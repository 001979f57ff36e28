"""Independent oracles and shared helpers for the test suite.

Everything here is deliberately written from first principles (plain Taylor
series, stars-and-bars counting, hand-built schedules, a general
Rayleigh-Schrodinger solver) so that the package under test is checked
against arithmetic that shares none of its code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
import numpy as np

from exchangelab.dynamics import (NoDynamicsError, PulseSegment, Trajectory,
                                  _as_vector)
from exchangelab.gates import ExchangeModel
from exchangelab.hilbert import (BasisState, HilbertBasis, OperatorMatrix,
                                 collective_mode, enumerate_basis,
                                 exchange_coupling, photon_mode)
from exchangelab.perturbation import (GAP_TOLERANCE, CollisionModelParams,
                                      PerturbationResult, SingularityError,
                                      WidthRule)
from exchangelab.serialize import write_csv


def series_propagator(matrix: np.ndarray, t: float) -> np.ndarray:
    """exp(-i * matrix * t) via a scaled Taylor series.

    Independent of both the eigendecomposition path and scipy's expm: the
    argument is halved until its 1-norm is below one, summed to machine
    precision with a 200-term series, then squared back up.
    """
    a = np.asarray(matrix, dtype=complex) * (-1j * t)
    norm = np.linalg.norm(a, 1)
    squarings = 0
    if norm > 1.0:
        squarings = int(math.ceil(math.log2(norm)))
        a = a / (2.0 ** squarings)
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 200):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def propagated_five_pulse(model: ExchangeModel, theta: float,
                          rate: float) -> Tuple[float, float, float]:
    """(p_two_photon, p_two_excitation, p_return) after driving
    |1 excitation, 1 photon> of the collective/photon-2 pair for theta/rate.

    Builds the two-quanta basis, takes the generator from
    ``exchange_coupling`` and propagates it with :func:`series_propagator`,
    sharing no code with the closed form or with ``dynamics``.  A state
    the atom count forbids (|2, 0> for one atom) has population 0.
    """
    modes = (collective_mode("collective", model.atoms), photon_mode("photon_2"))
    basis = enumerate_basis(modes, 2)
    generator = exchange_coupling(basis, "collective", "photon_2", rate)
    start = basis.index((1, 1))
    out = series_propagator(generator.matrix, theta / rate)[:, start]

    def population(occ):
        return float(abs(out[basis.index(occ)]) ** 2) if occ in basis else 0.0

    return population((0, 2)), population((2, 0)), population((1, 1))


def rowwise_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write a trajectory CSV one row at a time through the generic writer.

    Every cell goes through ``serialize.write_csv``'s per-cell formatting;
    the package's columnar writer must produce the same bytes.
    """
    norms = trajectory.norms
    rows = []
    for i, t in enumerate(trajectory.times):
        for j in range(trajectory.basis.dim):
            amp = trajectory.states[i, j]
            rows.append([float(t), j, amp.real, amp.imag, float(norms[i])])
    write_csv(path, ["time", "state_index", "re", "im", "norm"], rows)


# Return-probability threshold below which the state counts as having
# genuinely left the initial state (guards against counting t=0 twice).
_DIP_THRESHOLD = 1e-6


def scanning_rabi_frequency(generator: OperatorMatrix, initial,
                            horizon_cycles: int = 64) -> float:
    """Angular frequency of the return-probability oscillation, by scanning.

    The survival probability P(t) = |<psi0| exp(-i H t) |psi0>|^2 is
    stepped at 1/128 of the base period 2 pi / spread, and each local
    maximum after the first dip is polished with a bounded scalar
    minimiser; the first polished maximum with 1 - P < 1e-9 is the
    revival, and the returned frequency is 2 pi / t_revival.  Shares no
    revival logic with ``dynamics.rabi_frequency``, which reads the
    revival off whole base periods.

    Raises
    ------
    NoDynamicsError
        If P never leaves 1 or never returns within the scan horizon.
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
    spread = float(evals[active].max() - evals[active].min()) if active.any() else 0.0
    if spread <= 0.0:
        raise NoDynamicsError("survival probability does not oscillate")

    def survival(t):
        return abs(np.sum(weights * np.exp(-1j * evals * t))) ** 2

    base_period = 2.0 * math.pi / spread
    dt = base_period / 128.0

    from scipy.optimize import minimize_scalar

    dipped = False
    for k in range(1, 128 * horizon_cycles + 1):
        t = k * dt     # not t += dt, whose rounding can step past the horizon
        p = survival(t)
        if not dipped:
            if 1.0 - p > _DIP_THRESHOLD:
                dipped = True
        elif p > survival(t - dt) and p > survival(t + dt):
            res = minimize_scalar(
                lambda x: -survival(x), bounds=(t - dt, t + dt),
                method="bounded", options={"xatol": 1e-13 * base_period},
            )
            t_star = float(res.x)
            if 1.0 - survival(t_star) < 1e-9:
                return 2.0 * math.pi / t_star
    raise NoDynamicsError(
        "no revival of the survival probability within the scan horizon"
    )


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def stars_and_bars(sector: int, modes: int) -> int:
    """Number of occupation tuples of `modes` nonnegative ints summing to sector."""
    return math.comb(sector + modes - 1, modes - 1)


def total_quanta(basis: HilbertBasis) -> np.ndarray:
    """Diagonal matrix of the total occupation of each basis state."""
    return np.diag(basis.occupations().sum(axis=1))


def matrix_element(op: OperatorMatrix, bra: BasisState, ket: BasisState) -> complex:
    """<bra| op |ket> for two occupation tuples of the operator's basis."""
    return complex(op.matrix[op.basis.index(bra), op.basis.index(ket)])


def fit_bilinear(points: Sequence[Tuple[float, float]], values: Sequence[complex]):
    """Least-squares fit of values on 1, x, y, x^2, y^2, xy; returns coefficients."""
    powers = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
    design = np.array([[x ** p * y ** q for (p, q) in powers] for (x, y) in points])
    coeffs, _, _, _ = np.linalg.lstsq(design, np.asarray(values, dtype=complex), rcond=None)
    return dict(zip(powers, coeffs))


def _pi_time(model: ExchangeModel, rate: float) -> float:
    return 0.5 * math.pi / model.single_quantum_rate(rate)


def _cycle_block(model: ExchangeModel, photon: str, rng: np.random.Generator) -> List[PulseSegment]:
    rate = float(rng.uniform(0.5, 2.0))
    cycles = int(rng.integers(1, 3))
    return [
        PulseSegment(
            duration=2.0 * cycles * _pi_time(model, rate),
            coupling=(photon, "collective", rate),
        )
    ]


def _detuning_block(rng: np.random.Generator) -> List[PulseSegment]:
    shifts = {
        label: float(rng.uniform(-1.0, 1.0))
        for label in ("photon_1", "photon_2", "collective")
    }
    return [PulseSegment(duration=float(rng.uniform(0.1, 2.0)), detunings=shifts)]


def _sandwich_block(model: ExchangeModel, rng: np.random.Generator) -> List[PulseSegment]:
    photon = "photon_1" if rng.random() < 0.5 else "photon_2"
    other = "photon_2" if photon == "photon_1" else "photon_1"
    rate = float(rng.uniform(0.5, 2.0))
    flank = PulseSegment(duration=_pi_time(model, rate), coupling=(photon, "collective", rate))
    middle: List[PulseSegment] = []
    for _ in range(int(rng.integers(1, 3))):
        if rng.random() < 0.5:
            middle.extend(_cycle_block(model, other, rng))
        else:
            middle.extend(_detuning_block(rng))
    return [flank, *middle, flank]


def random_product_schedule(rng: np.random.Generator, model: ExchangeModel) -> List[PulseSegment]:
    """A random pulse schedule built only from blocks that act diagonally.

    Full Rabi cycles, pure detuning holds, and pi-flanked sandwiches each map
    every single-quantum amplitude to a phase multiple of itself, so any
    composition transfers no amplitude between the two photon modes and leaves
    no residue on the collective mode.  Gates assembled this way must come out
    non-entangling; the three-pulse sequence is the simplest member.
    """
    schedule: List[PulseSegment] = []
    for _ in range(int(rng.integers(2, 6))):
        pick = rng.random()
        if pick < 0.35:
            photon = "photon_1" if rng.random() < 0.5 else "photon_2"
            schedule.extend(_cycle_block(model, photon, rng))
        elif pick < 0.6:
            schedule.extend(_detuning_block(rng))
        else:
            schedule.extend(_sandwich_block(model, rng))
    return schedule


@dataclass(frozen=True)
class PerturbationProblem:
    """A reference level, its neighbours, and the coupling between them.

    ``states`` are descriptors (opaque to the solver), reference first:
    state 0 is the level whose shift is computed; ``energies`` may be
    complex per the width rule;
    ``coupling`` is the real V matrix with zero diagonal; ``classes``
    label states for path diagnostics; ``energy_scale`` sets the
    degeneracy threshold.

    A state may be the uniform superposition of several equivalent
    levels, its members (the symmetric sector of permutable atoms).
    ``multiplicity`` gives the number of members of each state and
    ``degree[i, j]`` the number of members of state j that V couples to
    one member of state i; the element between single members is then
    ``coupling[i, j] / sqrt(degree[i, j] * degree[j, i])``.  The path
    diagnostics count and weigh member paths.  By default every state is
    a single level.  Both must agree on the links between members:
    ``multiplicity[i] * degree[i, j] == multiplicity[j] * degree[j, i]``.
    """

    states: Tuple
    energies: np.ndarray
    coupling: np.ndarray
    energy_scale: float
    classes: Tuple[str, ...] = ()
    multiplicity: Tuple[int, ...] = ()
    degree: Optional[np.ndarray] = None

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=complex)
        coupling = np.asarray(self.coupling, dtype=float)
        dim = len(self.states)
        if energies.shape != (dim,) or coupling.shape != (dim, dim):
            raise ValueError("states, energies and coupling sizes disagree")
        if not np.isfinite(energies).all() or not np.isfinite(coupling).all():
            raise ValueError("energies and coupling must be finite")
        if np.max(np.abs(np.diagonal(coupling))) > 0.0:
            raise ValueError("coupling must have zero diagonal")
        if np.max(np.abs(coupling - coupling.T)) > 0.0:
            raise ValueError("coupling must be symmetric")
        if self.energy_scale <= 0 or not np.isfinite(self.energy_scale):
            raise ValueError("energy_scale must be positive and finite")
        classes = self.classes if self.classes else ("intermediate",) * dim
        if len(classes) != dim:
            raise ValueError("classes length disagrees with states")
        multiplicity = self.multiplicity if self.multiplicity else (1,) * dim
        if len(multiplicity) != dim or min(multiplicity) < 1:
            raise ValueError("multiplicity needs one positive count per state")
        if self.degree is None:
            degree = (coupling != 0.0).astype(int)
        else:
            degree = np.asarray(self.degree, dtype=int)
        if degree.shape != (dim, dim) or (degree < 0).any():
            raise ValueError("degree must be a non-negative (dim, dim) matrix")
        if (degree[coupling != 0.0] == 0).any():
            raise ValueError("degree must be positive wherever coupling is non-zero")
        links = np.array(multiplicity, dtype=object)[:, None] * degree.astype(object)
        if (links != links.T).any():
            raise ValueError("multiplicity and degree must count the same member "
                             "links from either end")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "classes", tuple(classes))
        object.__setattr__(self, "multiplicity", tuple(int(m) for m in multiplicity))
        object.__setattr__(self, "degree", degree)

    @property
    def dim(self) -> int:
        return len(self.states)


def rspt_energy(problem: PerturbationProblem) -> PerturbationResult:
    """Rayleigh-Schrodinger corrections of orders 1 to 4 to the reference.

    The reference is state 0 of the problem (reference first).  Uses the
    standard nondegenerate expansion for a reference with zero diagonal
    coupling; the fourth order includes the renormalization term
    -E2 * sum |V_0k|^2 / gap_k^2.  Complex level energies enter the gaps
    as-is.  An overflow or invalid operation raises
    :class:`FloatingPointError` instead of returning a non-finite order.
    """
    u = problem.coupling[0, 1:]
    w_block = problem.coupling[1:, 1:]
    gaps = problem.energies[0] - problem.energies[1:]
    scale = problem.energy_scale

    tiny = np.abs(gaps) <= GAP_TOLERANCE * scale
    if tiny.any():
        culprit = problem.states[1 + int(np.argmax(tiny))]
        raise SingularityError(
            f"intermediate state {culprit!r} is degenerate with the reference"
        )

    with np.errstate(over="raise", invalid="raise"):
        x = u / gaps
        e2 = complex(u @ x)
        wx = w_block @ x
        orders = {
            1: 0.0 + 0.0j,
            2: e2,
            3: complex(x @ w_block @ x),
            4: complex((wx / gaps) @ wx - e2 * (u @ (u / gaps ** 2))),
        }
        diagnostics = _path_diagnostics(problem, gaps, e2)
    return PerturbationResult(orders=orders, diagnostics=diagnostics)


def _path_diagnostics(problem, gaps, e2) -> Dict[str, object]:
    """Count fourth-order member paths by middle-state class; record the largest.

    Counts and terms are those of single members (atom-labelled levels),
    not of the aggregated symmetric states, so they do not depend on how
    the problem was reduced.  ``e2`` is the full second order, which
    enters the renormalization term.
    """
    degree = problem.degree
    factor = np.sqrt(degree * degree.T)
    member = np.divide(problem.coupling, factor, out=np.zeros_like(problem.coupling),
                       where=factor > 0)
    u = member[0, 1:]
    w_block = member[1:, 1:]
    nz_u = u != 0.0
    # members of the one-step states a member of each middle state couples to
    fan = ((w_block != 0.0) & nz_u[None, :]) * degree[1:, 1:]
    fan = fan.sum(axis=1)
    x = np.abs(u / gaps)
    inv = 1.0 / np.abs(gaps)
    alpha = (x[:, None] * np.abs(w_block)) * inv[None, :]   # |(u_a/d_a) W_ab / d_b|
    beta = np.abs(w_block) * x[None, :]                     # |W_bc (u_c/d_c)|
    paths = alpha.max(axis=0, initial=0.0) * beta.max(axis=1, initial=0.0)
    max_path = float(paths[fan > 0].max(initial=0.0))
    counts: Dict[str, int] = {}
    multiplicity = problem.multiplicity[1:]
    classes = problem.classes[1:]
    for b in np.flatnonzero(fan):
        n = int(fan[b])
        counts[classes[b]] = counts.get(classes[b], 0) + multiplicity[b] * n * n
    renorm_max = abs(e2) * float(np.max(x * inv * np.abs(u), initial=0.0))
    return {
        "basis_size": sum(problem.multiplicity),
        "path_terms": counts,
        "renormalization_terms": sum(m for m, nz in zip(multiplicity, nz_u) if nz),
        "max_path_term": max(max_path, renorm_max),
    }


def _atom_states(n_1: int, n_2: int, atoms: int):
    """All levels reachable from |n1, n2, ground> in at most two V steps.

    A state is (photons in mode 1, photons in mode 2, excited atom set);
    which atoms are excited matters for path counting even though the
    matrix elements are atom-independent.
    """
    states = [(n_1, n_2, frozenset())]
    classes = ["reference"]
    for j in range(atoms):
        if n_1 >= 1:
            states.append((n_1 - 1, n_2, frozenset({j})))
            classes.append("one-excitation")
        if n_2 >= 1:
            states.append((n_1, n_2 - 1, frozenset({j})))
            classes.append("one-excitation")
    if n_1 >= 1:
        states.append((n_1 - 1, n_2 + 1, frozenset()))
        classes.append("exchanged-photon")
    if n_2 >= 1:
        states.append((n_1 + 1, n_2 - 1, frozenset()))
        classes.append("exchanged-photon")
    for j, l in combinations(range(atoms), 2):
        pair = frozenset({j, l})
        if n_1 >= 2:
            states.append((n_1 - 2, n_2, pair))
            classes.append("two-excitation")
        if n_1 >= 1 and n_2 >= 1:
            states.append((n_1 - 1, n_2 - 1, pair))
            classes.append("two-excitation")
        if n_2 >= 2:
            states.append((n_1, n_2 - 2, pair))
            classes.append("two-excitation")
    return states, classes


def _coupling_element(state_a, state_b, coupling: float) -> float:
    """V element between two levels (0 unless one excitation apart)."""
    n1a, n2a, exc_a = state_a
    n1b, n2b, exc_b = state_b
    if len(exc_b) == len(exc_a) + 1 and exc_a < exc_b:
        lower, upper = (n1a, n2a), (n1b, n2b)
    elif len(exc_a) == len(exc_b) + 1 and exc_b < exc_a:
        lower, upper = (n1b, n2b), (n1a, n2a)
    else:
        return 0.0
    if upper == (lower[0] - 1, lower[1]):
        return coupling * math.sqrt(lower[0])
    if upper == (lower[0], lower[1] - 1):
        return coupling * math.sqrt(lower[1])
    return 0.0


def labelled_perturbation_problem(params: CollisionModelParams, rule: WidthRule,
                                  atoms: int) -> PerturbationProblem:
    """The fourth-order problem on atom-labelled levels, one per excited-atom set.

    Its dimension grows as ~3 N^2 / 2 and it is filled pair by pair, so it
    is only practical for small N; :func:`rspt_energy` solves it without
    any of the package's closed forms.
    """
    states, classes = _atom_states(params.n_1, params.n_2, atoms)
    dim = len(states)
    energies = np.zeros(dim, dtype=complex)
    for i, (m1, m2, excited) in enumerate(states):
        energies[i] = ((params.n_1 - m1) * params.delta_1
                       + (params.n_2 - m2) * params.delta_2)
        if rule.selector == "excited-atom-states":
            energies[i] += -1j * rule.width * len(excited)
        elif rule.selector == "exchanged-photon-ground-states":
            if not excited and (m1, m2) != (params.n_1, params.n_2):
                energies[i] += -1j * rule.width
    matrix = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            element = _coupling_element(states[i], states[j], params.coupling)
            matrix[i, j] = matrix[j, i] = element
    return PerturbationProblem(
        states=tuple(states),
        energies=energies,
        coupling=matrix,
        energy_scale=abs(params.reference_detuning),
        classes=tuple(classes),
    )


def _mp_orders(params: CollisionModelParams, rule: WidthRule, n_1: int,
               n_2: int, atoms: int):
    """(E2, E4) of |n1, n2, all ground> summed path by path in ``mpmath``.

    The symmetric states (photons in mode 1, photons in mode 2, excited
    atoms) within two V steps of the reference are listed by hand, with
    the photon sqrt(n) and Dicke sqrt((N - k)(k + 1)) factors written out.
    """
    states = [s for s in ((n_1, n_2, 0), (n_1 - 1, n_2, 1), (n_1, n_2 - 1, 1),
                          (n_1 - 1, n_2 + 1, 0), (n_1 + 1, n_2 - 1, 0),
                          (n_1 - 2, n_2, 2), (n_1 - 1, n_2 - 1, 2), (n_1, n_2 - 2, 2))
              if min(s) >= 0 and s[2] <= atoms]
    d_1, d_2 = mpmath.mpf(params.delta_1), mpmath.mpf(params.delta_2)
    width = mpmath.mpf(rule.width)

    def energy(state):
        m1, m2, k = state
        value = mpmath.mpc((n_1 - m1) * d_1 + (n_2 - m2) * d_2)
        if rule.selector == "excited-atom-states":
            value -= 1j * width * k
        elif rule.selector == "exchanged-photon-ground-states" and k == 0 \
                and (m1, m2) != (n_1, n_2):
            value -= 1j * width
        return value

    def element(a, b):
        if b[2] < a[2]:
            a, b = b, a
        if b[2] != a[2] + 1:
            return mpmath.mpf(0)
        dicke = mpmath.sqrt(mpmath.mpf(atoms - a[2]) * (a[2] + 1))
        if (b[0], b[1]) == (a[0] - 1, a[1]):
            return mpmath.mpf(params.coupling) * mpmath.sqrt(a[0]) * dicke
        if (b[0], b[1]) == (a[0], a[1] - 1):
            return mpmath.mpf(params.coupling) * mpmath.sqrt(a[1]) * dicke
        return mpmath.mpf(0)

    ref, rest = states[0], states[1:]
    gap = {s: energy(ref) - energy(s) for s in rest}
    v = {(a, b): element(a, b) for a in states for b in states}
    links = {a: [b for b in rest if v[a, b]] for a in states}
    e2 = sum(v[ref, s] ** 2 / gap[s] for s in links[ref])
    paths = sum(v[ref, a] * v[a, b] * v[b, c] * v[c, ref] / (gap[a] * gap[b] * gap[c])
                for a in links[ref] for b in links[a] for c in links[b] if v[c, ref])
    return e2, paths - e2 * sum(v[ref, s] ** 2 / gap[s] ** 2 for s in links[ref])


def mp_orders(params: CollisionModelParams, rule: WidthRule, digits: int = 50):
    """(E2, E4) of ``fourth_order`` at 50 digits."""
    with mpmath.workdps(digits):
        e2, e4 = _mp_orders(params, rule, params.n_1, params.n_2, params.atoms)
        return complex(e2), complex(e4)


def mp_cross_coefficients(params: CollisionModelParams, rule: WidthRule,
                          digits: int = 50):
    """(value, total_value, single_atom_value) of ``cross_fit`` at 50 digits.

    The fourth order is a polynomial of degree 2 in (n1, n2), so its
    mixed difference over the unit square (1, 1)-(2, 2) is its exact n1*n2
    coefficient; the pair part subtracts N times the single-atom one.
    """
    with mpmath.workdps(digits):
        def mixed(atoms):
            e4 = {(n1, n2): _mp_orders(params, rule, n1, n2, atoms)[1]
                  for n1 in (1, 2) for n2 in (1, 2)}
            return e4[(2, 2)] - e4[(2, 1)] - e4[(1, 2)] + e4[(1, 1)]

        total, single = mixed(params.atoms), mixed(1)
        return (complex(total - params.atoms * single), complex(total),
                complex(single))
