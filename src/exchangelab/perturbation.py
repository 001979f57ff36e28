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

Every reported number is a closed form in four gaps, reference minus
level.  The reference |n1, n2, all ground>, V and every width rule are
invariant under atom permutations, so the series lives on the symmetric
(Dicke) states (m1, m2, k), k being the number of excited atoms, coupled
by sqrt(N) M and sqrt((N - k)(k + 1)) M times the photons' sqrt(n).
Within two V steps of the reference lie the singly excited levels
(n1 - 1, n2, 1) and (n1, n2 - 1, 1), with gaps gA and gB; the
exchanged-photon levels (n1 - 1, n2 + 1, 0) and (n1 + 1, n2 - 1, 0), with
gaps gX1 and gX2; and the doubly excited levels, with gaps 2 gA, gA + gB
and 2 gB under every width rule.  No gap depends on N or on the photon
numbers, so a report costs the same for two atoms as for 10^15.

The cross coefficient is the n1*n2 coefficient of the two-atom-and-up
pair part of the fourth order, E4(N) - N*E4(1), because a single atom
already contributes an n1*n2 saturation shift that is linear in N and
has nothing to do with the interatomic exchange terms under study.  The
closed form of :func:`cross_fit` does that subtraction in the algebra:
with real energies, or widths on excited atoms, it gives exactly 0.0.

The path diagnostics (``basis_size``, ``path_terms``,
``renormalization_terms``, ``max_path_term``) and
:attr:`CrossFit.path_scale` describe the atom-labelled levels, one per
set of excited atoms: a symmetric state with k excited atoms stands for
C(N, k) of them, and a single labelled path term is the symmetric one
with each element divided by its collective factor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "SingularityError",
    "WidthRule",
    "CollisionModelParams",
    "PerturbationResult",
    "CrossFit",
    "fourth_order",
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
        if not math.isfinite(self.width) or self.width < 0:
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
        if not math.isfinite(self.coupling):
            raise ValueError("coupling must be finite")
        if self.atoms < 2:
            raise ValueError("at least two atoms are required (pair terms)")
        for name in ("delta_1", "delta_2"):
            val = getattr(self, name)
            if not math.isfinite(val) or val == 0.0:
                raise ValueError(f"{name} must be finite and non-zero")
        if self.delta_1 == self.delta_2:
            raise ValueError("delta_1 and delta_2 must differ (closed forms diverge)")
        if self.delta is not None and (not math.isfinite(self.delta) or self.delta == 0.0):
            raise ValueError("delta must be finite and non-zero")
        if self.reference_detuning == 0.0:
            raise ValueError("delta_1 + delta_2 must be non-zero when delta is omitted")
        if not math.isfinite(self.width) or self.width < 0:
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


@dataclass
class PerturbationResult:
    """Energy corrections by order plus path diagnostics."""

    orders: Mapping[int, complex]
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def order(self, k: int) -> complex:
        return self.orders[k]


def _gaps(params: CollisionModelParams, rule: WidthRule) -> Tuple[complex, ...]:
    """(gA, gB, gX1, gX2); :class:`SingularityError` if one of them, or
    gA + gB, lies within ``GAP_TOLERANCE`` |delta| of zero."""
    excited = rule.width if rule.selector == "excited-atom-states" else 0.0
    exchanged = rule.width if rule.selector == "exchanged-photon-ground-states" else 0.0
    d_1, d_2 = params.delta_1, params.delta_2
    gaps = (complex(-d_1, excited), complex(-d_2, excited),
            complex(d_2 - d_1, exchanged), complex(d_1 - d_2, exchanged))
    n_1, n_2 = params.n_1, params.n_2
    levels = ((n_1 - 1, n_2, 1), (n_1, n_2 - 1, 1), (n_1 - 1, n_2 + 1, 0),
              (n_1 + 1, n_2 - 1, 0), (n_1 - 1, n_2 - 1, 2))
    for level, gap in zip(levels, (*gaps, gaps[0] + gaps[1])):
        if abs(gap) <= GAP_TOLERANCE * abs(params.reference_detuning):
            raise SingularityError(
                f"intermediate state {level!r} is degenerate with the reference")
    return gaps


def _pair_terms(gaps: Tuple[complex, ...]) -> Tuple[complex, complex]:
    """(pair, q) of :func:`cross_fit`."""
    g_a, g_b, g_x1, g_x2 = gaps
    # r1 = e1 / gX1 and r2 = e2 / gX2 spread the degree-6 denominator over
    # chained divisions, so that no partial product leaves the double range
    # before the result does
    r_1 = (g_x1 - (g_a - g_b)) / g_x1
    r_2 = (g_x2 - (g_b - g_a)) / g_x2
    q = (1 / g_a + 1 / g_b) / (g_a * g_b)
    pair = r_1 * r_2 * q + r_1 / (g_a * g_a * g_x2) + r_2 / (g_b * g_b * g_x1)
    return pair, q


def _check_finite(*values: complex) -> None:
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
        raise FloatingPointError("overflow encountered in the fourth order")


def _orders(params: CollisionModelParams, gaps: Tuple[complex, ...], pair: complex,
            q: complex, n_1: int, n_2: int) -> Tuple[complex, complex, float]:
    """(E2, E4, largest single labelled path term) at photons (n1, n2)."""
    g_a, g_b, g_x1, g_x2 = gaps
    m2, atoms = params.coupling ** 2, params.atoms
    e2 = (n_1 / g_a + n_2 / g_b) * atoms * m2
    s = (n_1 * (g_a - g_x1) / (g_x1 * g_a * g_a * g_a)
         + n_2 * (g_b - g_x2) / (g_x2 * g_b * g_b * g_b) + n_1 * n_2 * pair)
    q_n = (n_1 * (n_1 - 1) / (2 * g_a * g_a * g_a)
           + n_2 * (n_2 - 1) / (2 * g_b * g_b * g_b) + n_1 * n_2 * q)
    e4 = (atoms * s - 2 * q_n) * atoms * m2 * m2
    a, b, x_1, x_2 = map(abs, gaps)
    paths = max(n_1 * (n_2 + 1) / (a * a * x_1), n_2 * (n_1 + 1) / (b * b * x_2),
                n_1 * (n_1 - 1) / (2 * a * a * a), n_2 * (n_2 - 1) / (2 * b * b * b),
                n_1 * n_2 * max(1 / a, 1 / b) ** 2 / abs(g_a + g_b))
    renormalization = abs(e2) * m2 * max(n_1 / (a * a), n_2 / (b * b))
    max_path = max(paths * m2 * m2, renormalization)
    _check_finite(e2, e4, max_path)
    return e2, e4, max_path


def fourth_order(params: CollisionModelParams, rule: WidthRule) -> PerturbationResult:
    """Rayleigh-Schrodinger corrections of orders 1 to 4 and their paths.

    E1 = E3 = 0, because V changes the number of excited atoms by one and
    so closes no odd cycle.  With the gaps of the module docstring,

        E2 = M^2 N (n1 / gA + n2 / gB),
        E4 = M^4 N (N S - 2 Qn),
        S  = n1 (gA - gX1) / (gX1 gA^3) + n2 (gB - gX2) / (gX2 gB^3) + n1 n2 pair,
        Qn = n1 (n1 - 1) / (2 gA^3) + n2 (n2 - 1) / (2 gB^3) + n1 n2 q,

    with ``pair`` and ``q`` those of :func:`cross_fit`.  E4 is the sum of
    the paths through the exchanged-photon and doubly excited levels and
    the renormalization term -E2 sum |V_0k|^2 / gap_k^2, regrouped so that
    the n1*n2 part that cancels stays inside ``pair``.

    The diagnostics count atom-labelled levels and paths as exact
    integers at any N.  ``max_path_term`` is the largest single labelled
    path term, or |E2| times the largest single renormalization factor.

    Raises :class:`SingularityError` on a degenerate gap and
    :class:`FloatingPointError` when an order leaves the double range.
    """
    gaps = _gaps(params, rule)
    n_1, n_2, atoms = params.n_1, params.n_2, params.atoms
    e2, e4, max_path = _orders(params, gaps, *_pair_terms(gaps), n_1, n_2)
    pairs = math.comb(atoms, 2)
    doubly = (n_1 >= 2) + (n_2 >= 2)
    diagnostics = {
        "basis_size": 3 + 2 * atoms + pairs * (1 + doubly),
        "path_terms": {"exchanged-photon": 2 * atoms * atoms,
                       "two-excitation": pairs * (16 + 4 * doubly)},
        "renormalization_terms": 2 * atoms,
        "max_path_term": max_path,
    }
    return PerturbationResult({1: 0j, 2: e2, 3: 0j, 4: e4}, diagnostics)


#: The photon numbers (n1, n2) at which the fourth order is evaluated.
_FIT_GRID = tuple(product((1, 2, 3), repeat=2))


@dataclass
class CrossFit:
    """The n1*n2 coefficients of the fourth order (see :func:`cross_fit`).

    ``value`` is that of the pair part E4(N) - N * E4(1), ``total_value``
    of E4(N), ``single_atom_value`` of E4(1).  ``grid`` is E4(N) of
    :func:`fourth_order` on the photon-number grid, and ``fit_residual``
    how far its mixed differences lie from ``total_value``: both come
    from the same closed form, so it measures only rounding, at most
    1e-14 of the largest |E4| on the grid.  ``path_scale``, the largest
    path term of single atom-labelled levels on the grid, is the
    yardstick for calling a coefficient zero.
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
    the doubly excited ones.  With the gaps gA, gB, gX1, gX2 of the module
    docstring, e1 = gX1 - (gA - gB) and e2 = gX2 - (gB - gA):

        pair = (e1 e2 (gA + gB) + e1 gB^2 + e2 gA^2) / (gA^2 gB^2 gX1 gX2)
        q = (gA + gB) / (gA gB)^2,  value = M^4 N (N - 1) pair,
        total_value = M^4 (N^2 pair - 2 N q),  single = M^4 (pair - 2 q).

    e1 and e2, so ``value``, are exactly 0.0 unless widths sit on the
    exchanged levels.  Under that rule, with n1 = n2 = 1 and f_R = 1,
    x = ((delta_1 - delta_2) / (delta_1 + delta_2))^2 and
    y = (w / (delta_1 - delta_2))^2, ``value`` N / (N - 1) equals
    (dE + dE' (1 + x)) / ((1 - x)^2 (1 + y)) for (dE, dE') of
    :func:`franson_formula` at delta = (delta_1 + delta_2) / 2: Franson's
    formula is its limit w << |delta_1 - delta_2| << delta.

    Raises :class:`SingularityError` on a degenerate gap, and
    :class:`FloatingPointError` when a coefficient or the grid leaves the
    double range or the path terms fall below the normal doubles.
    """
    gaps = _gaps(params, rule)
    pair, q = _pair_terms(gaps)
    grid: Dict[Tuple[int, int], complex] = {}
    path_scale = 0.0
    for n1, n2 in _FIT_GRID:
        _, grid[(n1, n2)], max_path = _orders(params, gaps, pair, q, n1, n2)
        path_scale = max(path_scale, max_path)
    # a subnormal scale has lost the digits that call the coefficient zero
    if path_scale < sys.float_info.min:
        raise FloatingPointError("fourth-order path terms underflow to zero")

    # M^2 multiplies last, so that no partial product leaves the double
    # range before the result does
    m2, atoms = params.coupling ** 2, params.atoms
    total_value = (atoms * pair - 2 * q) * atoms * m2 * m2
    value = pair * atoms * m2 * (atoms - 1) * m2
    single_atom_value = (pair - 2 * q) * m2 * m2
    _check_finite(value, total_value, single_atom_value)
    residual = max(abs(grid[(n1 + 1, n2 + 1)] - grid[(n1 + 1, n2)]
                       - grid[(n1, n2 + 1)] + grid[(n1, n2)] - total_value)
                   for n1, n2 in product((1, 2), repeat=2))
    return CrossFit(value, total_value, single_atom_value, residual, path_scale,
                    grid)


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
