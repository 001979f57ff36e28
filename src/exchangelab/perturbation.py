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

The cross coefficient is extracted from the two-atom-and-up pair part
of the fourth order, E4(N) - N*E4(1), because a single atom already
contributes an n1*n2 saturation shift that is linear in N and has
nothing to do with the interatomic exchange terms under study.

The problem is built in the permutation-symmetric (Dicke) sector on the
:mod:`exchangelab.hilbert` basis.  The reference |n1, n2, all ground>, V
and every width rule are invariant under atom permutations, so the
fourth order is exact on the symmetric states (m1, m2, k), k being the
number of excited atoms, coupled by the sqrt(N) M and sqrt((N - k)(k + 1))
Dicke ladder.  At most eight of them lie within two V steps of the
reference whatever N and the photon numbers are, and only those are
built, so a fit costs the same for two atoms as for a million.  The path
diagnostics (``basis_size``, ``path_terms``, ``renormalization_terms``,
``max_path_term``) and :attr:`CrossFit.path_scale` still describe the
atom-labelled levels, one per set of excited atoms: a symmetric state
with k excited atoms stands for C(N, k) of them, and a single labelled
path term is the symmetric one with each element divided by its
collective factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
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


@lru_cache(maxsize=1024)
def _near_sector(n_1: int, n_2: int, atoms: int):
    """The symmetric (Dicke) states near |n1, n2, all ground>, with their V.

    States are occupations (m1, m2, k) of the two photon modes and the
    collective mode of ``atoms`` atoms, k being the number of excited
    atoms, with n1 + n2 quanta in all; the unit-rate ladder carries the
    sqrt(N) and sqrt((N - k)(k + 1)) Dicke factors times the photons'
    sqrt(n).  Only the (at most eight) states within two V steps of the
    reference are built: farther ones cannot enter the fourth order, and
    their gaps may vanish without harm (2 delta_1 = delta_2, say).

    Returns (basis, classes, ladder), reference first.  Memoised because
    fits and sweeps rebuild the same few (n1, n2, N); the ladder is only
    ever read, never handed out.
    """
    from .hilbert import HilbertBasis, collective_mode, exchange_coupling, photon_mode

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
    return basis, tuple(cls for _, cls in near), ladder


def _build(params: CollisionModelParams, rule: WidthRule,
           atoms: int) -> PerturbationProblem:
    """The problem on the symmetric sector of ``atoms`` atoms.

    A state with k excited atoms stands for C(N, k) atom-labelled levels;
    one of them couples to the k members one excitation down and to the
    N - k members one excitation up.
    """
    n_1, n_2 = params.n_1, params.n_2
    basis, classes, ladder = _near_sector(n_1, n_2, atoms)
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
        classes=classes,
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


#: Exact polynomial basis for E4 over the occupation grid: every path
#: product of four ladder factors is a polynomial of total degree 2.
_FIT_POWERS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))
_FIT_GRID = tuple(product((1, 2, 3), repeat=2))


@dataclass
class CrossFit:
    """Bilinear fit of the fourth order over the photon-number grid.

    ``value`` is the n1*n2 coefficient of the pair part
    E4(N) - N * E4(1); ``total_value`` of the raw E4(N); and
    ``single_atom_value`` of E4(1).  ``path_scale`` is the largest
    individual fourth-order path term on the grid, the natural yardstick
    for calling the coefficient zero; it is the term of single
    atom-labelled levels, not of the aggregated symmetric states.
    """

    value: complex
    total_value: complex
    single_atom_value: complex
    fit_residual: float
    path_scale: float
    grid: Dict[Tuple[int, int], complex]


def _fit_bilinear(values: Dict[Tuple[int, int], complex]) -> Tuple[np.ndarray, float]:
    design = np.array([[float(n1 ** p * n2 ** q) for p, q in _FIT_POWERS]
                       for n1, n2 in _FIT_GRID])
    target = np.array([values[point] for point in _FIT_GRID])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.max(np.abs(design @ coef - target)))
    return coef, residual


def cross_fit(params: CollisionModelParams, rule: WidthRule) -> CrossFit:
    """Extract the n1*n2 coefficient of the fourth order over the grid.

    The fourth-order energy is evaluated on n1, n2 in {1, 2, 3}^2 for
    the full N-atom problem and for a single atom; both are fitted to
    the exact degree-2 polynomial basis, and the pair coefficient is
    read off the difference.
    """
    totals: Dict[Tuple[int, int], complex] = {}
    singles: Dict[Tuple[int, int], complex] = {}
    path_scale = 0.0
    for n1, n2 in _FIT_GRID:
        point = replace(params, n_1=n1, n_2=n2)
        full = rspt_energy(_build(point, rule, params.atoms))
        single = rspt_energy(_build(point, rule, 1))
        totals[(n1, n2)] = full.order(4)
        singles[(n1, n2)] = single.order(4)
        path_scale = max(path_scale, float(full.diagnostics["max_path_term"]))
    if path_scale == 0.0:
        raise FloatingPointError("fourth-order path terms underflow to zero")

    coef_total, res_total = _fit_bilinear(totals)
    coef_single, res_single = _fit_bilinear(singles)
    residual = max(res_total, res_single)
    magnitude = max(path_scale, float(np.max(np.abs(list(totals.values())))), 1e-300)
    if residual > 1e-6 * magnitude:
        raise ValueError(
            f"polynomial fit residual {residual:.3e} is too large for scale "
            f"{magnitude:.3e}; the fourth order is not a degree-2 polynomial"
        )
    cross_index = _FIT_POWERS.index((1, 1))
    total_value = complex(coef_total[cross_index])
    single_value = complex(coef_single[cross_index])
    return CrossFit(
        value=total_value - params.atoms * single_value,
        total_value=total_value,
        single_atom_value=single_value,
        fit_residual=residual,
        path_scale=path_scale,
        grid=totals,
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
