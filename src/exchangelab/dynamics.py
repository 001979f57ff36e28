"""Piecewise-constant pulse evolution and simple spectroscopy probes.

A schedule is an ordered list of :class:`PulseSegment` objects, each a
constant Hamiltonian applied for a fixed duration with sudden switching
in between.  Segments may carry one exchange coupling, per-mode diagonal
detunings (energy per quantum), and decay widths entering the diagonal
as -i w.  Per-mode widths multiply the occupation, matching the
convention that each quantum in a damped mode decays independently.

Time convention for pulse areas: a pi transition (complete transfer of
a single quantum) corresponds to g t = pi / 2, a 2 pi transition to
g t = pi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .hilbert import (
    HilbertBasis,
    OperatorMatrix,
    exchange_coupling,
)

__all__ = [
    "NoDynamicsError",
    "PulseSegment",
    "segment_hamiltonian",
    "evolve_segment",
    "Trajectory",
    "run_schedule",
    "final_state",
    "rabi_frequency",
    "transmission_scan",
    "phase_vs_loss",
]

#: Largest sample grid of :func:`phase_vs_loss`; a call at the cap peaks
#: at ~88 MB of arrays (measured with ``tracemalloc``).
MAX_PHASE_SAMPLES = 1_000_000


class NoDynamicsError(RuntimeError):
    """Raised when a probe finds no oscillation to measure."""


@dataclass(frozen=True)
class PulseSegment:
    """One constant-Hamiltonian slice of a pulse schedule.

    Parameters
    ----------
    duration : float
        Non-negative segment length.
    coupling : tuple (mode_a, mode_b, rate), optional
        Exchange coupling active during the segment.
    detunings : mapping label -> float
        Diagonal energy added per quantum of the mode.
    widths : mapping label -> float
        Non-negative decay width per quantum, entering as -i w n.
    """

    duration: float
    coupling: Optional[Tuple[str, str, float]] = None
    detunings: Mapping[str, float] = field(default_factory=dict)
    widths: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.duration) or self.duration < 0:
            raise ValueError("segment duration must be finite and non-negative")
        if self.coupling is not None:
            a, b, rate = self.coupling
            if a == b:
                raise ValueError("coupling requires two distinct mode labels")
            if not np.isfinite(rate):
                raise ValueError("coupling rate must be finite")
        for label, w in self.widths.items():
            if w < 0:
                raise ValueError(f"width for mode {label!r} must be non-negative")
        object.__setattr__(self, "detunings", dict(self.detunings))
        object.__setattr__(self, "widths", dict(self.widths))

    @property
    def lossless(self) -> bool:
        """True when no mode carries a non-zero width."""
        return not any(self.widths.values())


def segment_hamiltonian(basis: HilbertBasis, segment: PulseSegment) -> OperatorMatrix:
    """Build the (possibly non-Hermitian) generator of one segment."""
    matrix = np.zeros((basis.dim, basis.dim), dtype=complex)
    if segment.coupling is not None:
        a, b, rate = segment.coupling
        matrix += exchange_coupling(basis, a, b, rate).matrix

    occ = basis.occupations()
    diag = np.zeros(basis.dim, dtype=complex)
    for label, shift in segment.detunings.items():
        diag += shift * occ[:, basis.mode_position(label)]
    for label, w in segment.widths.items():
        diag += -1j * w * occ[:, basis.mode_position(label)]
    matrix[np.diag_indices(basis.dim)] += diag
    return OperatorMatrix(basis, matrix, hermitian=segment.lossless)


def _evolve_grid(generator: OperatorMatrix, state: np.ndarray,
                 duration: float, count: int) -> np.ndarray:
    """States exp(-i H duration j / count) state for j = 1..count.

    One factorisation serves every sample.  Generators flagged Hermitian
    are diagonalised once with ``eigh``: ``state`` is expanded in the
    eigenbasis once and each sample applies its own phases to those
    coefficients, so every sample is the one a separate eigendecomposition
    would give, byte for byte.  The rest (non-zero decay widths) get one
    scaled-and-squared matrix exponential of the step duration / count,
    applied ``count`` times in turn; this is the only use of
    ``scipy.linalg``, imported here so that lossless runs never load it.
    """
    if not np.isfinite(duration) or duration < 0:
        raise ValueError("duration must be finite and non-negative")
    state = np.asarray(state, dtype=complex)
    if state.shape != (generator.basis.dim,):
        raise ValueError(
            f"state has shape {state.shape}, expected ({generator.basis.dim},)"
        )
    if not np.isfinite(state).all():
        raise ValueError("state entries must be finite")
    if duration == 0.0:
        return np.tile(state, (count, 1))
    out = np.empty((count, state.size), dtype=complex)
    if generator.hermitian:
        evals, evecs = np.linalg.eigh(generator.matrix)
        coeffs = evecs.conj().T @ state
        for j in range(count):
            t = duration * (j + 1) / count
            out[j] = evecs @ (np.exp(-1j * evals * t) * coeffs)
        return out
    from scipy.linalg import expm

    step = expm(-1j * generator.matrix * (duration / count))
    for j in range(count):
        state = out[j] = step @ state
    return out


def evolve_segment(generator: OperatorMatrix, state: np.ndarray,
                   duration: float) -> np.ndarray:
    """Apply exp(-i H t) to a state vector.

    The single-sample case of the segment propagator: Hermitian generators
    go through their eigendecomposition, the rest through ``expm``.
    """
    return _evolve_grid(generator, state, duration, 1)[0]


@dataclass
class Trajectory:
    """Sampled evolution of one schedule run."""

    basis: HilbertBasis
    times: np.ndarray
    states: np.ndarray  # shape (n_samples, dim)

    @property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, path) -> None:
        """Write rows (time, state_index, re, im, norm).

        Each sample's time and norm are rendered once and shared by its
        ``dim`` rows; only the amplitudes are rendered per row.
        """
        from .serialize import format_floats, write_csv_lines

        dim = self.basis.dim
        index = [str(j) for j in range(dim)]
        re = format_floats(self.states.real)
        im = format_floats(self.states.imag)
        lines = []
        for i, (t, norm) in enumerate(zip(format_floats(self.times),
                                          format_floats(self.norms))):
            rows = slice(i * dim, (i + 1) * dim)
            lines.extend(f"{t},{j},{r},{m},{norm}"
                         for j, r, m in zip(index, re[rows], im[rows]))
        write_csv_lines(path, ["time", "state_index", "re", "im", "norm"], lines)


def _as_vector(basis: HilbertBasis, initial) -> np.ndarray:
    if isinstance(initial, (tuple, list)) and all(
        isinstance(x, (int, np.integer)) for x in initial
    ):
        return basis.state_vector(tuple(int(x) for x in initial))
    vec = np.asarray(initial, dtype=complex)
    if vec.shape != (basis.dim,):
        raise ValueError("initial state does not match the basis dimension")
    return vec


def run_schedule(schedule: Sequence[PulseSegment], basis: HilbertBasis,
                 initial, samples_per_segment: int = 32) -> Trajectory:
    """Evolve through a schedule, sampling each segment uniformly.

    Each segment is factorised once and the factorisation serves all of
    its samples.  In a lossless segment every sample is propagated
    directly from the segment start through the one eigendecomposition,
    so sampling density does not affect accuracy.  In a lossy segment the
    matrix exponential of one sample step is applied once per sample, so
    rounding can build up with the step count: at 10000 steps (the CLI's
    cap) the samples stay within 1e-12 of a separate exponential per
    sample (measured: 1.6e-14 on a damped dim-91 sector).
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be at least 1")
    n = samples_per_segment
    state = _as_vector(basis, initial)
    times = np.empty(1 + len(schedule) * n)
    states = np.empty((times.size, basis.dim), dtype=complex)
    times[0] = 0.0
    states[0] = state
    t0 = 0.0
    for i, segment in enumerate(schedule):
        block = slice(1 + i * n, 1 + (i + 1) * n)
        gen = segment_hamiltonian(basis, segment)
        states[block] = _evolve_grid(gen, state, segment.duration, n)
        times[block] = [t0 + segment.duration * j / n for j in range(1, n + 1)]
        state = states[block.stop - 1]
        t0 += segment.duration
    return Trajectory(basis=basis, times=times, states=states)


def final_state(schedule: Sequence[PulseSegment], basis: HilbertBasis,
                initial) -> np.ndarray:
    """Propagate through a schedule without intermediate samples: the
    one-sample-per-segment case of :func:`run_schedule`."""
    return run_schedule(schedule, basis, initial, 1).final_state


# Smallest dip 1 - P of the survival probability that counts as the state
# having left the initial state.
_DIP_THRESHOLD = 1e-6

#: Whole base periods 2 pi / spread searched for the first revival.
_HORIZON_PERIODS = 64


def rabi_frequency(generator: OperatorMatrix, initial) -> float:
    """Angular frequency of the return-probability oscillation.

    The survival probability P(t) = |<psi0| exp(-i H t) |psi0>|^2 returns
    to 1 only when the phases of all eigenvalues the initial state
    occupies wrap together, so a revival needs (E_max - E_min) t to be a
    whole multiple of 2 pi.  The first revival is therefore the smallest
    whole number m of base periods 2 pi / spread, m = 1 .. 64, at which
    1 - P < 1e-9, and the returned frequency 2 pi / t_revival is
    spread / m, exact up to the rounding of the eigenvalues.

    Raises
    ------
    NoDynamicsError
        If P cannot leave 1 (no spread among the occupied levels, or too
        little weight off the dominant one) or never returns within 64
        base periods.
    """
    if not generator.hermitian:
        raise ValueError("rabi_frequency expects a Hermitian generator")
    psi0 = _as_vector(generator.basis, initial)
    nrm = np.linalg.norm(psi0)
    if nrm == 0:
        raise ValueError("initial state must be non-zero")
    psi0 = psi0 / nrm

    evals, evecs = np.linalg.eigh(generator.matrix)
    weights = np.abs(evecs.conj().T @ psi0) ** 2
    active = weights > 1e-14
    evals, weights = evals[active], weights[active]
    spread = float(evals.max() - evals.min()) if active.any() else 0.0
    # |<psi0|psi(t)>| >= 2 w_max - 1, so a dominant weight w_max caps the
    # dip of P at 4 w_max (1 - w_max).
    w_max = weights.max(initial=0.0)
    if spread <= 0.0 or 4.0 * w_max * (1.0 - w_max) <= _DIP_THRESHOLD:
        raise NoDynamicsError("survival probability does not oscillate")

    periods = np.arange(1, _HORIZON_PERIODS + 1)
    times = periods * (2.0 * math.pi / spread)
    phases = np.outer(times, evals - evals.min())
    survival = np.abs(np.exp(-1j * phases) @ weights) ** 2
    revived = np.flatnonzero(1.0 - survival < 1e-9)
    if revived.size == 0:
        raise NoDynamicsError(
            "no revival of the survival probability within the scan horizon"
        )
    return spread / float(periods[revived[0]])


def _photon_amplitudes(rate: float, diagonal: complex, times):
    """Photon and collective amplitudes of exp(-i H t)|photon> at ``times``.

    H = [[0, g], [g, c]] couples the photon at rate g to a collective state
    with complex diagonal c = detuning - i width.  With mu = c / 2 and
    Omega^2 = mu^2 + g^2 the propagator is e^{-i mu t} [cos(Omega t)
    - i sin(Omega t) / Omega (H - mu)].  Taking the root with Im Omega >= 0
    and factoring out the bounded e^{-i (mu + Omega) t} leaves (1 + e^z) / 2
    and t phi(z) = expm1(z) / (2 i Omega), phi(z) = expm1(z) / z, with
    z = 2 i Omega t and Re z <= 0: nothing overflows at any width or time,
    and at the exceptional point Omega = 0 (detuning 0, width 2g) t phi is
    t itself, with no division by Omega.  The exponent mu + Omega is the
    photon's dressed energy; where the two terms nearly cancel it is taken
    as g^2 / (Omega - mu) instead.
    """
    t = np.asarray(times, dtype=float)
    mu = 0.5 * diagonal
    # scaled so that mu^2 + g^2 neither overflows nor underflows
    scale = max(abs(mu), abs(rate))
    omega = scale * cmath.sqrt((mu / scale) ** 2 + (rate / scale) ** 2)
    if omega.imag < 0.0:
        omega = -omega
    dressed = mu + omega
    if abs(omega - mu) > abs(dressed):
        dressed = rate * (rate / (omega - mu))
    em1 = np.expm1(2j * omega * t)
    t_phi = em1 / (2j * omega) if omega else t
    envelope = np.exp(-1j * dressed * t)
    return (envelope * (1.0 + 0.5 * em1 + 1j * mu * t_phi),
            envelope * t_phi * (-1j * rate))


def transmission_scan(rate: float, durations) -> list:
    """Survival probability of one photon against a resonant medium.

    For each interaction duration tau the photon mode is coupled to a
    bosonized collective mode at rate g and the probability of finding
    the photon back in its mode is recorded; analytically this is
    cos^2(g tau), periodic with period pi / g.  The amplitudes come from
    the closed-form two-level propagator, evaluated for all durations at
    once.

    Returns a list of (duration, survival) tuples.
    """
    if rate <= 0 or not np.isfinite(rate):
        raise ValueError("coupling rate must be positive and finite")
    durations = [float(t) for t in durations]
    if any(t < 0 or not np.isfinite(t) for t in durations):
        raise ValueError("durations must be finite and non-negative")
    photon, _ = _photon_amplitudes(rate, 0.0, durations)
    return list(zip(durations, (np.abs(photon) ** 2).tolist()))


def phase_vs_loss(rate: float, detuning: float, width: float,
                  duration: float) -> Tuple[float, float]:
    """Accrued phase and loss of an off-resonantly coupled photon.

    A single photon is coupled at rate g to a detuned collective state
    carrying decay width w (diagonal entry detuning - i w).  Returns the
    unwrapped phase of the survival amplitude (the bare photon evolves
    with zero phase in this frame, so no reference subtraction is
    needed) and the loss 1 - |psi|^2.

    In the dispersive regime the two obey phase/loss = detuning/(2 w):
    both are inherited from the same dressed complex energy
    -g^2 / (detuning - i w), whose real and imaginary parts stand in
    exactly that ratio.

    The amplitudes come from the closed-form two-level propagator,
    evaluated at every sample time at once; it needs no ``scipy`` and
    stays accurate at the exceptional point detuning = 0, w = 2 g, where
    the two eigenvectors of the generator coalesce, and at any w t.  A
    grid of more than ``MAX_PHASE_SAMPLES`` samples is refused with
    ``ValueError`` before anything is allocated.
    """
    for name, val in (("rate", rate), ("detuning", detuning),
                      ("width", width), ("duration", duration)):
        if not np.isfinite(val):
            raise ValueError(f"{name} must be finite")
    if width < 0:
        raise ValueError("width must be non-negative")
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if rate == 0.0 or duration == 0.0:
        return 0.0, 0.0
    # Sample densely enough that the survival-amplitude phase never
    # advances by more than ~pi/4 between samples, then unwrap.
    scale = abs(detuning) + abs(width) + 2.0 * abs(rate)
    steps = 8.0 * scale * duration / math.pi
    if steps > MAX_PHASE_SAMPLES:
        raise ValueError(f"phase_vs_loss needs {steps:.3g} samples at this "
                         f"rate, detuning, width and duration, more than "
                         f"{MAX_PHASE_SAMPLES}")
    n_samples = max(64, int(math.ceil(steps)))

    times = np.arange(1, n_samples + 1) * duration / n_samples
    photon, collective = _photon_amplitudes(rate, detuning - 1j * width, times)
    phase = float(np.unwrap(np.concatenate(([0.0], np.angle(photon))))[-1])
    loss = float(1.0 - abs(photon[-1]) ** 2 - abs(collective[-1]) ** 2)
    return phase, loss
