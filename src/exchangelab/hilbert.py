"""Truncated occupation-number bases and exchange couplings.

Two kinds of mode appear throughout: photonic modes (plain bosonic
ladders) and collective atomic modes (the symmetric excitation ladder of
N identical two-level atoms).  A finite collective ladder of N atoms
carries the raising matrix element sqrt((N - m)(m + 1)) between m and
m + 1 shared excitations and saturates at m = N.  Sending N to infinity
while absorbing sqrt(N) into the coupling rate recovers the bosonic
ladder sqrt(m + 1); a collective mode built with ``atom_count=None``
implements that limit exactly instead of approximating it with a large
numeric N.

Basis states are occupation tuples, one entry per mode, enumerated in
ascending lexicographic order within a fixed total-quanta sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BasisState",
    "ModeSpec",
    "photon_mode",
    "collective_mode",
    "HilbertBasis",
    "enumerate_basis",
    "OperatorMatrix",
    "exchange_coupling",
    "AtomCloud",
    "dicke_matrix_element",
    "HERMITIAN_TOL",
]

BasisState = Tuple[int, ...]

# Tolerance for declaring a matrix Hermitian (largest entry of A - A^dag).
HERMITIAN_TOL = 1e-12

_MODE_KINDS = ("photon", "collective")


@dataclass(frozen=True)
class ModeSpec:
    """One mode of the model.

    Parameters
    ----------
    label : str
        Unique name used to refer to the mode in couplings and schedules.
    kind : str
        Either ``"photon"`` or ``"collective"``.
    atom_count : int, optional
        Number of atoms behind a collective mode.  ``None`` selects the
        bosonized (infinite-atom) ladder.  Must be ``None`` for photonic
        modes.
    """

    label: str
    kind: str
    atom_count: Optional[int] = None

    def __post_init__(self):
        if not self.label:
            raise ValueError("mode label must be a non-empty string")
        if self.kind not in _MODE_KINDS:
            raise ValueError(
                f"unknown mode kind {self.kind!r}; expected one of {_MODE_KINDS}"
            )
        if self.kind == "photon" and self.atom_count is not None:
            raise ValueError("photonic modes carry no atom_count")
        if self.atom_count is not None:
            if self.atom_count != int(self.atom_count) or self.atom_count < 1:
                raise ValueError("atom_count must be a positive integer or None")

    @property
    def bosonized(self) -> bool:
        """True for a collective mode in the infinite-atom limit."""
        return self.kind == "collective" and self.atom_count is None

    def max_occupation(self, sector: int) -> int:
        if self.kind == "collective" and self.atom_count is not None:
            return min(self.atom_count, sector)
        return sector

    def raising_factor(self, occupation: int) -> float:
        """Matrix element <occupation+1| raise |occupation>."""
        if occupation < 0:
            raise ValueError("occupation must be non-negative")
        n = self.atom_count
        if self.kind == "collective" and n is not None:
            if occupation >= n:
                return 0.0
            return math.sqrt((n - occupation) * (occupation + 1))
        return math.sqrt(occupation + 1)

    def lowering_factor(self, occupation: int) -> float:
        """Matrix element <occupation-1| lower |occupation>."""
        if occupation <= 0:
            return 0.0
        return self.raising_factor(occupation - 1)


def photon_mode(label: str) -> ModeSpec:
    return ModeSpec(label=label, kind="photon")


def collective_mode(label: str, atom_count: Optional[int] = None) -> ModeSpec:
    return ModeSpec(label=label, kind="collective", atom_count=atom_count)


class HilbertBasis:
    """Occupation-number basis of one total-quanta sector.

    Instances are built by :func:`enumerate_basis`; states are occupation
    tuples ordered ascending lexicographically, and every occupation
    vector compatible with the sector and the per-mode caps is present
    exactly once.  A truncated sector may also be built directly from
    the states to keep; :func:`exchange_coupling` then drops the moves
    that leave it.
    """

    def __init__(self, modes: Sequence[ModeSpec], sector: int,
                 states: Sequence[BasisState]):
        labels = [m.label for m in modes]
        if len(set(labels)) != len(labels):
            raise ValueError("mode labels must be unique")
        self.modes: Tuple[ModeSpec, ...] = tuple(modes)
        self.sector = int(sector)
        self.states: Tuple[BasisState, ...] = tuple(tuple(s) for s in states)
        self._index = {s: i for i, s in enumerate(self.states)}
        self._mode_index = {m.label: i for i, m in enumerate(self.modes)}

    @property
    def dim(self) -> int:
        return len(self.states)

    def index(self, state: BasisState) -> int:
        try:
            return self._index[tuple(state)]
        except KeyError:
            raise KeyError(f"state {tuple(state)} is not in this basis") from None

    def __contains__(self, state) -> bool:
        return tuple(state) in self._index

    def mode_position(self, label: str) -> int:
        try:
            return self._mode_index[label]
        except KeyError:
            known = ", ".join(self._mode_index)
            raise KeyError(f"unknown mode label {label!r}; modes are: {known}") from None

    def state_vector(self, state: BasisState) -> np.ndarray:
        """Unit vector for one basis state."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index(state)] = 1.0
        return vec

    def occupations(self) -> np.ndarray:
        """All states as an integer array of shape (dim, n_modes)."""
        return np.array(self.states, dtype=int)

    def __repr__(self):
        labels = ",".join(m.label for m in self.modes)
        return f"HilbertBasis(modes=[{labels}], sector={self.sector}, dim={self.dim})"


def enumerate_basis(modes: Sequence[ModeSpec], sector: int) -> HilbertBasis:
    """Enumerate all occupation vectors of a conserved-quanta sector.

    Parameters
    ----------
    modes : sequence of ModeSpec
        Mode list; order fixes the position of each occupation entry.
    sector : int
        Total number of quanta shared by the modes.

    Returns
    -------
    HilbertBasis
        States in ascending lexicographic order.  Finite collective
        modes are capped at their atom count, so over-saturated
        occupations never appear.
    """
    modes = tuple(modes)
    if not modes:
        raise ValueError("at least one mode is required")
    if sector < 0 or sector != int(sector):
        raise ValueError("sector must be a non-negative integer")
    sector = int(sector)
    caps = [m.max_occupation(sector) for m in modes]

    states = []

    def fill(prefix, remaining):
        pos = len(prefix)
        if pos == len(modes) - 1:
            if remaining <= caps[pos]:
                states.append(prefix + (remaining,))
            return
        for n in range(min(caps[pos], remaining) + 1):
            fill(prefix + (n,), remaining - n)

    fill((), sector)
    return HilbertBasis(modes, sector, states)


class OperatorMatrix:
    """Dense operator on a :class:`HilbertBasis`.

    The ``hermitian`` flag is an assertion, not a hint: passing
    ``hermitian=True`` validates A = A^dag to ``HERMITIAN_TOL`` and
    raises otherwise.
    """

    def __init__(self, basis: HilbertBasis, matrix: np.ndarray,
                 hermitian: bool = False):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (basis.dim, basis.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match basis dimension {basis.dim}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("operator entries must be finite")
        if hermitian:
            defect = np.max(np.abs(matrix - matrix.conj().T)) if basis.dim else 0.0
            if defect > HERMITIAN_TOL:
                raise ValueError(
                    f"matrix declared Hermitian but max |A - A^dag| = {defect:.3e}"
                )
        self.basis = basis
        self.matrix = matrix
        self.hermitian = bool(hermitian)


def exchange_coupling(basis: HilbertBasis, mode_a: str, mode_b: str,
                      rate: float) -> OperatorMatrix:
    """Photon-exchange coupling g * (A^dag B + B^dag A).

    Moves one quantum between the two named modes with the appropriate
    ladder factors; the result is Hermitian and commutes with the total
    quanta operator by construction.

    Parameters
    ----------
    basis : HilbertBasis
    mode_a, mode_b : str
        Labels of the two coupled modes; must differ.
    rate : float
        Real coupling rate g.
    """
    if mode_a == mode_b:
        raise ValueError("exchange coupling requires two distinct modes")
    if not np.isreal(rate) or not np.isfinite(rate):
        raise ValueError("coupling rate must be a finite real number")
    ia = basis.mode_position(mode_a)
    ib = basis.mode_position(mode_b)
    spec_a = basis.modes[ia]
    spec_b = basis.modes[ib]

    half = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, state in enumerate(basis.states):
        if state[ib] == 0:
            continue
        target = list(state)
        target[ib] -= 1
        target[ia] += 1
        target = tuple(target)
        if target not in basis:
            continue
        amp = spec_a.raising_factor(state[ia]) * spec_b.lowering_factor(state[ib])
        half[basis.index(target), col] = rate * amp
    return OperatorMatrix(basis, half + half.conj().T, hermitian=True)


@dataclass(frozen=True)
class AtomCloud:
    """Positions of N atoms, shape (N, 3), in units of inverse wavenumber."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must be a non-empty (N, 3) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def size(self) -> int:
        return self.positions.shape[0]


def dicke_matrix_element(cloud: AtomCloud, k_photon, k_laser=None,
                         coupling: float = 1.0) -> complex:
    """Collective transition amplitude onto the symmetric excited state.

    The single-photon (optionally Raman) transition operator
    sum_j M exp(i (k_photon - k_laser) . r_j) |e_j><g_j| is evaluated
    between the all-ground state and the uniform symmetric excitation
    (1/sqrt(N)) sum_j |e_j>.  The residual phase of atom j relative to
    that target is q . r_j with q = k_photon - k_laser, so

        element = (M / sqrt(N)) * sum_j exp(i q . r_j).

    When every residual phase vanishes mod 2 pi (a phase-matched cloud)
    the element is sqrt(N) * M; its modulus can never exceed that, with
    equality exactly when all residual phases agree.

    Parameters
    ----------
    cloud : AtomCloud
    k_photon : array_like, shape (3,)
        Photon wavevector.
    k_laser : array_like or None
        Classical drive wavevector for a Raman transition; ``None``
        means a direct transition (no drive momentum).
    coupling : float
        Single-atom matrix element M.
    """
    k_photon = np.asarray(k_photon, dtype=float)
    if k_photon.shape != (3,):
        raise ValueError("k_photon must be a 3-vector")
    if k_laser is None:
        q = k_photon
    else:
        k_laser = np.asarray(k_laser, dtype=float)
        if k_laser.shape != (3,):
            raise ValueError("k_laser must be a 3-vector")
        q = k_photon - k_laser
    phases = cloud.positions @ q
    return complex(coupling / math.sqrt(cloud.size) * np.exp(1j * phases).sum())
