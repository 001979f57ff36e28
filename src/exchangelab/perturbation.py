"""Fourth-order energy shifts for two photon modes in a two-level medium.

The model: N identical two-level atoms, all in the ground state, dressed
by n1 and n2 photons in two off-resonant modes with detunings delta_1
and delta_2.  The coupling V moves one photon into one atomic
excitation (and back) with matrix element M times the usual bosonic
square root.  Fourth-order Rayleigh-Schrodinger corrections then
contain terms proportional to n1*n2 - a cross-Kerr-like shift - which
cancel exactly when the level energies are real.

Decoherence is modelled by subtracting i*w from the energies of a
configurable class of levels (a width rule).  Widths on excited-atom
levels preserve the cancellation; widths on the photon-exchanged
ground-state levels (the physically unjustified choice) leave a residue
whose imaginary part exceeds its real part by delta/w, which is the
closed-form result evaluated by :func:`franson_formula`.

The cross coefficient is the n1*n2 coefficient of the two-atom-and-up
pair part of the fourth order, E4(N) - N*E4(1), because a single atom
already contributes an n1*n2 saturation shift that is linear in N and
has nothing to do with the interatomic exchange terms under study.  The
closed form of :func:`cross_fit` does that subtraction in the algebra:
with real energies, or widths on excited atoms, it gives exactly 0.0.

The problem is built in the permutation-symmetric (Dicke) sector on the
:mod:`exchangelab.hilbert` basis.  The reference |n1, n2, all ground>, V
and every width rule are invariant under atom permutations, so the
fourth order is exact on the symmetric states (m1, m2, k), k being the
number of excited atoms, coupled by the sqrt(N) M and sqrt((N - k)(k + 1))
Dicke ladder.  At most eight of them lie within two V steps of the
reference whatever N and the photon numbers are, and only those are
built, so a report costs the same for two atoms as for a million.  The path
diagnostics (``basis_size``, ``path_terms``, ``renormalization_terms``,
``max_path_term``) and :attr:`CrossFit.path_scale` still describe the
atom-labelled levels, one per set of excited atoms: a symmetric state
with k excited atoms stands for C(N, k) of them, and a single labelled
path term is the symmetric one with each element divided by its
collective factor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SingularityError",
    "WidthRule",
    "CollisionModelParams",
    "PerturbationProblem",
    "PerturbationResult",
    "CrossFit",
    "build_problem",
    "rspt_energy",
    "cross_fit",
    "franson_formula",
]

#: Valid width-rule selectors.
WIDTH_SELECTORS = ("none", "excited-atom-states", "exchanged-photon-ground-states")

#: Reference-gap threshold, relative to the problem's energy scale.
GAP_TOLERANCE = 1e-9


class SingularityError(ArithmeticError):
    """An intermediate level (nearly) degenerate with the reference."""


@dataclass(frozen=True)
class WidthRule:
    """Which class of levels receives the -i*w energy shift.

    Selectors:

    - ``none``: all energies stay real.
    - ``excited-atom-states``: every excited atom contributes -i*w, so
      doubly excited levels are shifted by -2i*w.  (A width per excited
      atom, not per state: collisions broaden each excited atom
      independently, and only this reading keeps the cancellation that
      holds for real energies.)
    - ``exchanged-photon-ground-states``: the all-ground levels with one
      photon moved between the modes (n1 +- 1, n2 -+ 1) are shifted by
      -i*w.
    """

    selector: str
    width: float = 0.0

    def __post_init__(self):
        if self.selector not in WIDTH_SELECTORS:
            known = ", ".join(WIDTH_SELECTORS)
            raise ValueError(f"unknown selector {self.selector!r}; expected one of {known}")
        if not np.isfinite(self.width) or self.width < 0:
            raise ValueError("width must be finite and non-negative")
        if self.selector == "none" and self.width != 0.0:
            raise ValueError("selector 'none' requires width 0")


@dataclass(frozen=True)
class CollisionModelParams:
    """Inputs of the collisional-broadening estimate.

    ``delta`` is the common reference detuning; when omitted it defaults
    to the mean of ``delta_1`` and ``delta_2``.  ``width`` is the
    collisional w entering the closed forms; the width used in the
    numerical perturbation is carried by the :class:`WidthRule`.
    ``raman_factor`` is the phenomenological which-way factor f_R.
    """

    coupling: float
    atoms: int
    delta_1: float
    delta_2: float
    delta: Optional[float] = None
    width: float = 0.0
    raman_factor: float = 1.0
    n_1: int = 1
    n_2: int = 1

    def __post_init__(self):
        if not np.isfinite(self.coupling):
            raise ValueError("coupling must be finite")
        if self.atoms < 2:
            raise ValueError("at least two atoms are required (pair terms)")
        for name in ("delta_1", "delta_2"):
            val = getattr(self, name)
            if not np.isfinite(val) or val == 0.0:
                raise ValueError(f"{name} must be finite and non-zero")
        if self.delta_1 == self.delta_2:
            raise ValueError("delta_1 and delta_2 must differ (closed forms diverge)")
        if self.delta is not None and (not np.isfinite(self.delta) or self.delta == 0.0):
            raise ValueError("delta must be finite and non-zero")
        if self.reference_detuning == 0.0:
            raise ValueError("delta_1 + delta_2 must be non-zero when delta is omitted")
        if not np.isfinite(self.width) or self.width < 0:
            raise ValueError("width must be finite and non-negative")
        if not 0.0 < self.raman_factor <= 1.0:
            raise ValueError("raman_factor must lie in (0, 1]")
        if self.n_1 < 1 or self.n_2 < 1:
            raise ValueError("photon numbers must be at least 1")

    @property
    def reference_detuning(self) -> float:
        if self.delta is not None:
            return self.delta
        return 0.5 * (self.delta_1 + self.delta_2)


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


def _build(params: CollisionModelParams, rule: WidthRule,
           atoms: int) -> PerturbationProblem:
    """The problem on the symmetric (Dicke) states of ``atoms`` atoms.

    States are occupations (m1, m2, k) of the two photon modes and the
    collective mode, k being the number of excited atoms, with n1 + n2
    quanta in all; the ladder carries the sqrt(N) and
    sqrt((N - k)(k + 1)) Dicke factors times the photons' sqrt(n).  Only
    the (at most eight) states within two V steps of the reference are
    built, reference first: farther ones cannot enter the fourth order,
    and their gaps may vanish without harm (2 delta_1 = delta_2, say).

    A state with k excited atoms stands for C(N, k) atom-labelled levels;
    one of them couples to the k members one excitation down and to the
    N - k members one excitation up.
    """
    from .hilbert import HilbertBasis, collective_mode, exchange_coupling, photon_mode

    n_1, n_2 = params.n_1, params.n_2
    near = [(state, cls) for state, cls in (
        ((n_1, n_2, 0), "reference"),
        ((n_1 - 1, n_2, 1), "one-excitation"),
        ((n_1, n_2 - 1, 1), "one-excitation"),
        ((n_1 - 1, n_2 + 1, 0), "exchanged-photon"),
        ((n_1 + 1, n_2 - 1, 0), "exchanged-photon"),
        ((n_1 - 2, n_2, 2), "two-excitation"),
        ((n_1 - 1, n_2 - 1, 2), "two-excitation"),
        ((n_1, n_2 - 2, 2), "two-excitation"),
    ) if min(state) >= 0 and state[2] <= atoms]
    basis = HilbertBasis([photon_mode("photon_1"), photon_mode("photon_2"),
                          collective_mode("collective", atoms)], n_1 + n_2,
                         [state for state, _ in near])
    ladder = (exchange_coupling(basis, "collective", "photon_1", 1.0).matrix
              + exchange_coupling(basis, "collective", "photon_2", 1.0).matrix).real
    m1, m2, k = basis.occupations().T
    lower = k[None, :] < k[:, None]
    degree = np.where(lower, k[:, None], atoms - k[:, None]) * (ladder != 0.0)
    energies = ((n_1 - m1) * params.delta_1 + (n_2 - m2) * params.delta_2).astype(complex)
    if rule.selector == "excited-atom-states":
        energies -= 1j * rule.width * k
    elif rule.selector == "exchanged-photon-ground-states":
        energies[(k == 0) & ((m1 != n_1) | (m2 != n_2))] -= 1j * rule.width
    return PerturbationProblem(
        states=basis.states,
        energies=energies,
        coupling=params.coupling * ladder,
        energy_scale=abs(params.reference_detuning),
        classes=tuple(cls for _, cls in near),
        multiplicity=tuple(math.comb(atoms, int(j)) for j in k),
        degree=degree,
    )


def build_problem(params: CollisionModelParams,
                  rule: WidthRule) -> PerturbationProblem:
    """Assemble the N-atom problem around |n1, n2, all atoms ground>."""
    return _build(params, rule, params.atoms)


@dataclass
class PerturbationResult:
    """Energy corrections by order plus path diagnostics."""

    orders: Mapping[int, complex]
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def order(self, k: int) -> complex:
        return self.orders[k]


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


#: The photon numbers (n1, n2) at which the fourth order is solved.
_FIT_GRID = tuple(product((1, 2, 3), repeat=2))


@dataclass
class CrossFit:
    """The n1*n2 coefficients of the fourth order (see :func:`cross_fit`).

    ``value`` is that of the pair part E4(N) - N * E4(1), ``total_value``
    of E4(N), ``single_atom_value`` of E4(1).  ``grid`` is E4(N) solved on
    the photon-number grid, and ``fit_residual`` how far its mixed
    differences lie from ``total_value``.  ``path_scale``, the largest path
    term of single atom-labelled levels on the grid, is the yardstick for
    calling a coefficient zero.
    """

    value: complex
    total_value: complex
    single_atom_value: complex
    fit_residual: float
    path_scale: float
    grid: Dict[Tuple[int, int], complex]


def cross_fit(params: CollisionModelParams, rule: WidthRule) -> CrossFit:
    """The n1*n2 coefficients of the fourth order, read off its closed form.

    Per M^4, E4(N) = N^2 P + 2 N (N - 1) Q: P holds the paths through the
    exchanged-photon levels and the renormalization term, Q those through
    the doubly excited ones.  With gaps (reference minus level) gA, gB of
    (n1 - 1, n2, 1), (n1, n2 - 1, 1) and gX1, gX2 of (n1 - 1, n2 + 1),
    (n1 + 1, n2 - 1), and e1 = gX1 - (gA - gB), e2 = gX2 - (gB - gA):

        pair = (e1 e2 (gA + gB) + e1 gB^2 + e2 gA^2) / (gA^2 gB^2 gX1 gX2)
        q = (gA + gB) / (gA gB)^2,  value = M^4 N (N - 1) pair,
        total_value = M^4 (N^2 pair - 2 N q),  single = M^4 (pair - 2 q).

    e1 and e2, so ``value``, are exactly 0.0 unless widths sit on the
    exchanged levels.  The gaps come from the grid's (2, 2) problem, whose
    solves raise on a degenerate gap or an overflow first; mixed
    differences of the grid farther than 1e-6 of its scale from
    ``total_value`` raise ``ValueError``.
    """
    grid: Dict[Tuple[int, int], complex] = {}
    path_scale = 0.0
    for n1, n2 in _FIT_GRID:
        problem = _build(replace(params, n_1=n1, n_2=n2), rule, params.atoms)
        result = rspt_energy(problem)
        grid[(n1, n2)] = result.order(4)
        path_scale = max(path_scale, float(result.diagnostics["max_path_term"]))
        if (n1, n2) == (2, 2):   # states 1-4: the excited and exchanged levels
            gaps = problem.energies[0] - problem.energies[1:5]
    # a subnormal scale has lost the digits that call the coefficient zero
    if path_scale < sys.float_info.min:
        raise FloatingPointError("fourth-order path terms underflow to zero")

    # r1 = e1 / gX1 and r2 = e2 / gX2 spread the degree-6 denominator over
    # chained divisions, and M^2 multiplies last, so that no partial
    # product leaves the double range before the result does
    g_a, g_b, g_x1, g_x2 = map(complex, gaps)
    r_1 = (g_x1 - (g_a - g_b)) / g_x1
    r_2 = (g_x2 - (g_b - g_a)) / g_x2
    q = (1 / g_a + 1 / g_b) / (g_a * g_b)
    pair = r_1 * r_2 * q + r_1 / (g_a * g_a * g_x2) + r_2 / (g_b * g_b * g_x1)
    m2, atoms = params.coupling ** 2, params.atoms
    total_value = (atoms * pair - 2 * q) * atoms * m2 * m2

    residual = max(abs(grid[(n1 + 1, n2 + 1)] - grid[(n1 + 1, n2)]
                       - grid[(n1, n2 + 1)] + grid[(n1, n2)] - total_value)
                   for n1, n2 in product((1, 2), repeat=2))
    magnitude = max(path_scale, max(abs(value) for value in grid.values()))
    if residual > 1e-6 * magnitude:
        raise ValueError(f"the solved fourth order departs from its closed form "
                         f"by {residual:.3e} at scale {magnitude:.3e}")
    return CrossFit(
        value=pair * atoms * m2 * (atoms - 1) * m2,
        total_value=total_value,
        single_atom_value=(pair - 2 * q) * m2 * m2,
        fit_residual=residual,
        path_scale=path_scale,
        grid=grid,
    )


def franson_formula(params: CollisionModelParams) -> Tuple[complex, complex]:
    """Closed-form nonlinear shift and its imaginary companion.

    Returns (dE, dE') with

        dE  = -2 M^4 N^2 n1 n2 f_R w^2 / (delta^3 (delta_1 - delta_2)^2)
        dE' = -2i M^4 N^2 n1 n2 f_R w  / (delta^2 (delta_1 - delta_2)^2)

    so |dE'| / |dE| = delta / w identically.  Width zero gives (0, 0).
    """
    m4 = params.coupling ** 4
    n_sq = params.atoms ** 2
    delta = params.reference_detuning
    split = params.delta_1 - params.delta_2
    common = 2.0 * m4 * n_sq * params.n_1 * params.n_2 * params.raman_factor
    d_e = complex(-common * params.width ** 2 / (delta ** 3 * split ** 2))
    d_e_prime = -1j * common * params.width / (delta ** 2 * split ** 2)
    return d_e, d_e_prime
