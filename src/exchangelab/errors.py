"""The numerical failures of the compute modules.

They live here, apart from ``dynamics`` and ``perturbation`` (which
re-export them under their usual names), so that the CLI can catch them
without importing either module or numpy.
"""

__all__ = ["NoDynamicsError", "SingularityError"]


class NoDynamicsError(RuntimeError):
    """Raised when a probe finds no oscillation to measure."""


class SingularityError(RuntimeError):
    """An intermediate level (nearly) degenerate with the reference."""
