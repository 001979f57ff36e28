"""Toolkit for collective photon-exchange couplings and gate diagnostics.

The package is organized bottom-up:

``hilbert``
    truncated occupation-number bases, exchange couplings, collective
    transition amplitudes
``dynamics``
    piecewise-constant pulse evolution, Rabi and transmission probes
``gates``
    two-photon gate extraction, entanglement verdicts, pulse protocols
``perturbation``
    fourth-order energy corrections of the driven atom-cloud model with
    configurable complex level widths
``estimates``
    order-of-magnitude feasibility rates in SI units
``cli``
    scenario-file driven command line front end
"""

__version__ = "0.1.0"

__all__ = [
    "hilbert",
    "dynamics",
    "gates",
    "perturbation",
    "estimates",
    "cli",
]
