"""Logical two-photon gates from exchange-pulse schedules.

The logical encoding is presence/absence of a photon in each of two
field modes; a collective atomic mode mediates the interaction and must
start and end empty.  Because every coupling conserves total quanta,
the four logical inputs evolve in separate sectors (0, 1, 1 and 2
quanta) and the 4x4 gate matrix is assembled sector by sector.

The model is a Tavis-Cummings ladder for a finite atom count, or its
bosonized (harmonic) limit when the atom count is None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .dynamics import PulseSegment, final_state
from .hilbert import (
    HilbertBasis,
    ModeSpec,
    collective_mode,
    enumerate_basis,
    photon_mode,
)

__all__ = [
    "ExchangeModel",
    "LogicalEncoding",
    "GateReport",
    "FivePulseLeakage",
    "three_pulse_schedule",
    "extract_gate",
    "single_quantum_transfer",
    "is_entangling",
    "conditional_phase_defect",
    "five_pulse_leakage",
    "stimulated_couplings",
]

#: The three-pulse target in the bosonized limit: a bare sign flip on
#: the second photon, manifestly a product of single-qubit operations.
THREE_PULSE_TARGET = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)


@dataclass(frozen=True)
class ExchangeModel:
    """Two photon modes exchanging quanta with one collective mode.

    ``atoms=None`` selects the bosonized limit; an integer selects the
    Tavis-Cummings ladder for that many atoms.
    """

    atoms: Optional[int] = None

    def __post_init__(self):
        if self.atoms is not None and self.atoms < 1:
            raise ValueError("atom count must be at least 1 (or None)")

    @property
    def bosonized(self) -> bool:
        return self.atoms is None

    def modes(self) -> Tuple[ModeSpec, ModeSpec, ModeSpec]:
        return (
            photon_mode("photon_1"),
            photon_mode("photon_2"),
            collective_mode("collective", self.atoms),
        )

    def basis(self, sector: int) -> HilbertBasis:
        return enumerate_basis(self.modes(), sector)

    def single_quantum_rate(self, rate: float) -> float:
        """Effective rate on the empty-ladder transition (g or g*sqrt(N))."""
        return rate * self.modes()[2].raising_factor(0)


def three_pulse_schedule(model: ExchangeModel, rate: float) -> list:
    """Pi on photon 1, 2*pi on photon 2, pi on photon 1.

    Areas follow the module convention: a pi transition lasts
    pi / (2 g_eff) where g_eff is the empty-ladder effective rate, so
    the single-quantum transfers are exact for any atom count.
    """
    if rate <= 0 or not np.isfinite(rate):
        raise ValueError("coupling rate must be positive and finite")
    g_eff = model.single_quantum_rate(rate)
    t_pi = 0.5 * math.pi / g_eff
    return [
        PulseSegment(duration=t_pi, coupling=("photon_1", "collective", rate)),
        PulseSegment(duration=2 * t_pi, coupling=("photon_2", "collective", rate)),
        PulseSegment(duration=t_pi, coupling=("photon_1", "collective", rate)),
    ]


@dataclass(frozen=True)
class LogicalEncoding:
    """Which modes carry the two logical qubits; the rest start empty."""

    qubit_1: str = "photon_1"
    qubit_2: str = "photon_2"

    def __post_init__(self):
        if self.qubit_1 == self.qubit_2:
            raise ValueError("encoding modes must be distinct")

    def occupations(self, modes: Sequence[ModeSpec], q1: int, q2: int):
        """Occupation tuple for logical |q1 q2>, every other mode empty."""
        fill = {self.qubit_1: q1, self.qubit_2: q2}
        occ = []
        for mode in modes:
            if mode.label in fill:
                occ.append(fill.pop(mode.label))
            else:
                occ.append(0)
        if fill:
            missing = ", ".join(sorted(fill))
            raise ValueError(f"encoding refers to absent modes: {missing}")
        return tuple(occ)


@dataclass
class GateReport:
    """Extracted 4x4 logical gate and its quality figures.

    ``matrix[r, c]`` is the amplitude from logical input c to logical
    output r with rows/columns ordered |00>, |01>, |10>, |11>.
    ``leakage[c]`` is the probability of input c ending outside the
    logical subspace (including any probability absorbed by widths).
    """

    matrix: np.ndarray
    leakage: np.ndarray
    unitarity_defect: float
    entangling: bool
    local_factors: Optional[Tuple[np.ndarray, np.ndarray]]
    phase_defect: float

    def to_payload(self) -> dict:
        payload = {
            "schema_version": 1,
            "kind": "gate_report",
            "matrix": [[complex(x) for x in row] for row in self.matrix],
            "leakage": [float(x) for x in self.leakage],
            "unitarity_defect": float(self.unitarity_defect),
            "entangling": bool(self.entangling),
            "phase_defect": float(self.phase_defect),
        }
        if self.local_factors is not None:
            a, b = self.local_factors
            payload["local_factors"] = [
                [[complex(x) for x in row] for row in a],
                [[complex(x) for x in row] for row in b],
            ]
        return payload


def extract_gate(schedule: Sequence[PulseSegment], encoding: LogicalEncoding,
                 model: ExchangeModel, tol: float = 1e-8) -> GateReport:
    """Run a schedule on the four logical inputs and assemble the gate.

    Each input evolves in its own total-quanta sector.  The global
    phase is fixed by making the |00> -> |00> amplitude real positive.
    The entangling verdict uses the factorization test with a unitarity
    tolerance widened to the observed defect, so leaky (finite atom
    count) gates still get a verdict instead of an error.
    """
    modes = model.modes()
    matrix = _amplitudes(schedule, modes, [encoding.occupations(modes, q1, q2)
                                           for q1 in (0, 1) for q2 in (0, 1)])
    leakage = np.array([max(0.0, 1.0 - sum(abs(amp) ** 2 for amp in column))
                        for column in matrix.T])

    if abs(matrix[0, 0]) > 1e-12:
        matrix = matrix * (abs(matrix[0, 0]) / matrix[0, 0])

    defect = float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(4))))
    entangling, factors = is_entangling(
        matrix, tol=tol, unitarity_tol=max(tol, 10.0 * defect)
    )
    return GateReport(
        matrix=matrix,
        leakage=leakage,
        unitarity_defect=defect,
        entangling=entangling,
        local_factors=factors,
        phase_defect=conditional_phase_defect(matrix),
    )


def single_quantum_transfer(schedule: Sequence[PulseSegment],
                            model: ExchangeModel) -> np.ndarray:
    """Transfer matrix of the schedule restricted to the 1-quantum sector.

    Entry [i, j] is the amplitude for a quantum starting in mode j to
    end in mode i, with modes ordered as in ``model.modes()``.  In the
    bosonized model every sector is determined by this matrix (the
    evolution is linear optics), so zero cross-coupling between the two
    photon modes plus zero residual in the collective mode guarantees a
    product gate.
    """
    modes = model.modes()
    n = len(modes)
    return _amplitudes(schedule, modes, [tuple(int(p == j) for p in range(n))
                                         for j in range(n)])


def _amplitudes(schedule: Sequence[PulseSegment], modes: Sequence[ModeSpec],
                occupations: Sequence[Tuple[int, ...]]) -> np.ndarray:
    """Entry [r, c] is the amplitude of ``occupations[r]`` after the schedule
    from ``occupations[c]``; zero between different total-quanta sectors."""
    amps = np.zeros((len(occupations),) * 2, dtype=complex)
    for col, occ_in in enumerate(occupations):
        sector = sum(occ_in)
        basis = enumerate_basis(modes, sector)
        out = final_state(schedule, basis, occ_in)
        for row, occ_out in enumerate(occupations):
            if sum(occ_out) == sector:
                amps[row, col] = out[basis.index(occ_out)]
    return amps


def _reshuffle(u: np.ndarray) -> np.ndarray:
    """Map U[(i k),(j l)] to M[(i j),(k l)]; U = A (x) B iff rank(M) = 1."""
    return u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def is_entangling(u: np.ndarray, tol: float = 1e-8,
                  unitarity_tol: Optional[float] = None,
                  ) -> Tuple[bool, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """Decide whether a 4x4 unitary is a tensor product of 2x2 factors.

    The matrix is reshuffled so that products become rank-1 matrices;
    the verdict compares the second singular value against tol times
    the first.  For a non-entangling gate the two local factors are
    returned (gauged so the largest entry of the first is real
    positive); their Kronecker product reconstructs the input.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.isfinite(u).all():
        raise ValueError("matrix entries must be finite")
    if unitarity_tol is None:
        unitarity_tol = tol
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(4))))
    if defect > unitarity_tol:
        raise ValueError(
            f"matrix is not unitary: defect {defect:.3e} exceeds "
            f"tolerance {unitarity_tol:.3e}"
        )
    m = _reshuffle(u)
    left, sv, right = np.linalg.svd(m)
    if sv[0] == 0.0:
        return False, None
    if sv[1] > tol * sv[0]:
        return True, None
    a = (math.sqrt(sv[0]) * left[:, 0]).reshape(2, 2)
    b = (math.sqrt(sv[0]) * right[0, :]).reshape(2, 2)
    pivot = a.flat[int(np.argmax(np.abs(a)))]
    phase = pivot / abs(pivot)
    return False, (a * phase.conjugate(), b * phase)


def conditional_phase_defect(u: np.ndarray) -> float:
    """Conditional phase of a (near-)diagonal gate, mapped to (-pi, pi].

    Computes arg U00 - arg U01 - arg U10 + arg U11 from the diagonal
    entries; zero for any product of diagonal single-qubit phases, pi
    for the canonical conditional phase gate.  Returns NaN when a
    diagonal entry vanishes.
    """
    u = np.asarray(u, dtype=complex)
    diag = np.diagonal(u)
    if np.any(np.abs(diag) < 1e-12):
        return float("nan")
    phases = np.angle(diag)
    defect = phases[0] - phases[1] - phases[2] + phases[3]
    return float(math.remainder(defect, 2.0 * math.pi))


class FivePulseLeakage(NamedTuple):
    p_two_photon: float
    p_two_excitation: float
    p_return: float


class StimulatedCouplings(NamedTuple):
    emission: float
    absorption: float


def five_pulse_leakage(model: ExchangeModel, theta: float,
                       rate: float = 1.0) -> FivePulseLeakage:
    """Populations after driving |1 excitation, 1 photon> for angle theta.

    theta = g*t.  With (a, b) the :func:`stimulated_couplings` into |0,2>
    and |2,0> (excitations, photon-2 quanta), |1,1> couples only to the
    bright state (b|2,0> + a|0,2>)/Omega, at Omega = hypot(a, b); the dark
    state stays empty.  With phi = Omega*theta/g, P_return = cos^2 phi and
    P_two_photon, P_two_excitation = (a/Omega)^2, (b/Omega)^2 x sin^2 phi.
    """
    if rate <= 0 or not np.isfinite(rate):
        raise ValueError("coupling rate must be positive and finite")
    if not np.isfinite(theta) or theta < 0:
        raise ValueError("mixing angle must be finite and non-negative")
    emission, absorption = stimulated_couplings(model, rate)
    omega = math.hypot(emission, absorption)
    phi = omega * (theta / rate)
    return FivePulseLeakage(
        p_two_photon=(emission / omega * math.sin(phi)) ** 2,
        p_two_excitation=(absorption / omega * math.sin(phi)) ** 2,
        p_return=math.cos(phi) ** 2,
    )


def stimulated_couplings(model: ExchangeModel,
                         rate: float = 1.0) -> StimulatedCouplings:
    """Matrix elements out of |1 excitation, 1 photon> in the 2-quanta sector.

    Emission couples to the two-photon state with g*sqrt(2N) (finite N)
    and absorption to the doubly-excited state with g*sqrt(2(N-1)); the
    ratio sqrt(N/(N-1)) is the stimulated-emission excess, approaching
    1 in the bosonized limit.
    """
    collective = collective_mode("collective", model.atoms)
    emission = rate * collective.lowering_factor(1) * math.sqrt(2.0)
    absorption = rate * collective.raising_factor(1) * 1.0
    return StimulatedCouplings(emission=float(emission),
                               absorption=float(absorption))
