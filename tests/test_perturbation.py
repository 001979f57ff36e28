"""Tests for the fourth-order cross-shift machinery.

The package's closed forms are checked against a general
Rayleigh-Schrodinger solver on atom-labelled levels and a 50-digit path
sum (``oracles``).  The solver itself is checked against closed forms that
can be derived by hand: the exactly solvable two-level problem and the
single-mode saturation shift (renormalization term in isolation).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchangelab import perturbation
from exchangelab.perturbation import (
    CollisionModelParams,
    SingularityError,
    WidthRule,
    cross_fit,
    fourth_order,
    franson_formula,
)

from oracles import (PerturbationProblem, fit_bilinear,
                     labelled_perturbation_problem, mp_cross_coefficients,
                     mp_orders, rspt_energy)


NONE_RULE = WidthRule("none")
FIT_GRID = [(n1, n2) for n1 in (1, 2, 3) for n2 in (1, 2, 3)]
ALL_RULES = (NONE_RULE, WidthRule("excited-atom-states", 0.095),
             WidthRule("exchanged-photon-ground-states", 0.01))


def _two_level(v, delta):
    return PerturbationProblem(
        states=("reference", "excited"),
        energies=np.array([0.0, delta], dtype=complex),
        coupling=np.array([[0.0, v], [v, 0.0]]),
        energy_scale=abs(delta),
    )


# ---------------------------------------------------------------------------
# The reference solver on solvable problems
# ---------------------------------------------------------------------------


def test_two_level_matches_exact_eigenvalue():
    v, delta = 0.08, 1.3
    result = rspt_energy(_two_level(v, delta))
    assert result.order(2) == pytest.approx(-v * v / delta, rel=1e-12)
    assert result.order(3) == pytest.approx(0.0, abs=1e-15)
    assert result.order(4) == pytest.approx(v ** 4 / delta ** 3, rel=1e-12)
    # sum through fourth order agrees with the exact root up to the sixth
    exact = 0.5 * (delta - math.sqrt(delta * delta + 4 * v * v))
    series = result.order(2) + result.order(4)
    assert abs(series - exact) < 2.5 * v ** 6 / delta ** 5


def test_single_mode_saturation_is_renormalization_term():
    # one atom, one mode, n photons: the only fourth-order contribution is
    # the renormalization term, giving exactly M^4 n^2 / delta^3
    m, delta = 0.11, 0.9
    for n in (1, 2, 3):
        problem = PerturbationProblem(
            states=((n, frozenset()), (n - 1, frozenset({0}))),
            energies=np.array([0.0, delta], dtype=complex),
            coupling=np.array([[0.0, m * math.sqrt(n)], [m * math.sqrt(n), 0.0]]),
            energy_scale=delta,
        )
        result = rspt_energy(problem)
        assert result.order(4) == pytest.approx(m ** 4 * n * n / delta ** 3, rel=1e-12)


def test_zero_coupling_gives_zero_shifts():
    problem = PerturbationProblem(
        states=("a", "b", "c"),
        energies=np.array([0.0, 1.0, 2.0], dtype=complex),
        coupling=np.zeros((3, 3)),
        energy_scale=1.0,
    )
    result = rspt_energy(problem)
    assert all(result.order(k) == 0.0 for k in (1, 2, 3, 4))


def test_overflow_raises_instead_of_a_non_finite_order():
    # E2 = -v^2 / delta leaves the range of a double
    with pytest.raises(FloatingPointError, match="overflow"):
        rspt_energy(_two_level(1e160, 1.0))


@pytest.mark.parametrize("coupling, atoms", [
    (1.0e77, 2),            # M^4 N^2 = 4e308
    (1.0e70, 10 ** 15),     # M^4 = 1e280 is finite, M^4 N^2 is not
], ids=["coupling", "atoms"])
def test_closed_form_overflow_is_a_floating_point_error(coupling, atoms):
    # a product of doubles overflows to inf silently: the closed forms
    # check what they report
    params = CollisionModelParams(coupling=coupling, atoms=atoms, delta_1=1.0,
                                  delta_2=0.9)
    for compute in (fourth_order, cross_fit):
        with pytest.raises(FloatingPointError,
                           match="^overflow encountered in the fourth order$"):
            compute(params, NONE_RULE)


def test_problem_validation():
    with pytest.raises(ValueError):
        PerturbationProblem(states=("a",), energies=np.array([0.0]),
                            coupling=np.array([[0.5]]), energy_scale=1.0)
    with pytest.raises(ValueError):
        PerturbationProblem(states=("a", "b"), energies=np.array([0.0, 1.0]),
                            coupling=np.array([[0.0, 1.0], [2.0, 0.0]]),
                            energy_scale=1.0)


def test_member_counts_must_agree():
    # one member of "a" linked to two of "b" needs twice as many b links
    # from "a"'s side as there are a members: 1 * 2 == 2 * 1
    coupling = np.array([[0.0, 0.1], [0.1, 0.0]])
    PerturbationProblem(states=("a", "b"), energies=np.array([0.0, 1.0]),
                        coupling=coupling, energy_scale=1.0, multiplicity=(1, 2),
                        degree=np.array([[0, 2], [1, 0]]))
    with pytest.raises(ValueError, match="links"):
        PerturbationProblem(states=("a", "b"), energies=np.array([0.0, 1.0]),
                            coupling=coupling, energy_scale=1.0, multiplicity=(1, 2),
                            degree=np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="positive"):
        PerturbationProblem(states=("a", "b"), energies=np.array([0.0, 1.0]),
                            coupling=coupling, energy_scale=1.0,
                            degree=np.zeros((2, 2), dtype=int))


def test_degenerate_intermediate_raises():
    # opposite detunings make the doubly excited level resonant with the
    # reference after one photon is taken from each mode
    params = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=-1.0,
                                  delta=1.0)
    message = r"^intermediate state \(0, 0, 2\) is degenerate with the reference$"
    for compute in (fourth_order, cross_fit):
        with pytest.raises(SingularityError, match=message):
            compute(params, NONE_RULE)
    with pytest.raises(SingularityError, match="degenerate"):
        rspt_energy(labelled_perturbation_problem(params, NONE_RULE, 2))
    # a gap within GAP_TOLERANCE of the reference detuning counts as zero;
    # the level is named at the photon numbers asked for
    near = replace(params, delta_2=0.9, n_1=3, n_2=2,
                   delta_1=0.9 * (1 + 0.5 * perturbation.GAP_TOLERANCE))
    with pytest.raises(SingularityError, match=r"\(2, 3, 0\) is degenerate"):
        fourth_order(near, NONE_RULE)


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------


def test_two_atom_basis_contents():
    params = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.9)
    problem = labelled_perturbation_problem(params, NONE_RULE, params.atoms)
    assert problem.dim == 8
    by_class = {}
    for cls in problem.classes:
        by_class[cls] = by_class.get(cls, 0) + 1
    assert by_class == {
        "reference": 1,
        "one-excitation": 4,
        "exchanged-photon": 2,
        "two-excitation": 1,
    }
    assert (0, 2, frozenset()) in problem.states
    assert (2, 0, frozenset()) in problem.states
    assert (0, 0, frozenset({0, 1})) in problem.states
    # the closed-form diagnostics count these levels
    assert fourth_order(params, NONE_RULE).diagnostics["basis_size"] == problem.dim


def test_width_rules_place_imaginary_parts():
    params = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.9,
                                  width=0.05)
    excited_rule = WidthRule("excited-atom-states", 0.05)
    exchanged_rule = WidthRule("exchanged-photon-ground-states", 0.05)

    excited = labelled_perturbation_problem(params, excited_rule, params.atoms)
    for state, energy in zip(excited.states, excited.energies):
        assert energy.imag == pytest.approx(-0.05 * len(state[2]))

    exchanged = labelled_perturbation_problem(params, exchanged_rule, params.atoms)
    for state, cls, energy in zip(exchanged.states, exchanged.classes,
                                  exchanged.energies):
        expected = -0.05 if cls == "exchanged-photon" else 0.0
        assert energy.imag == pytest.approx(expected)

    plain = labelled_perturbation_problem(params, NONE_RULE, params.atoms)
    assert np.all(plain.energies.imag == 0.0)

    # the gaps (gA, gB, gX1, gX2), reference minus level, gain +i*w
    assert perturbation._gaps(params, excited_rule) == (
        complex(-1.0, 0.05), complex(-0.9, 0.05), complex(0.9 - 1.0, 0.0),
        complex(1.0 - 0.9, 0.0))
    assert perturbation._gaps(params, exchanged_rule) == (
        complex(-1.0, 0.0), complex(-0.9, 0.0), complex(0.9 - 1.0, 0.05),
        complex(1.0 - 0.9, 0.05))
    assert all(gap.imag == 0.0 for gap in perturbation._gaps(params, NONE_RULE))


def test_second_order_closed_form():
    m, d1, d2 = 0.07, 1.1, 0.8
    for atoms in (2, 3):
        for n1, n2 in ((1, 1), (2, 3)):
            params = CollisionModelParams(coupling=m, atoms=atoms, delta_1=d1,
                                          delta_2=d2, n_1=n1, n_2=n2)
            result = fourth_order(params, NONE_RULE)
            expected = -atoms * m * m * (n1 / d1 + n2 / d2)
            assert result.order(2) == pytest.approx(expected, rel=1e-12)


def test_diagnostics_shape():
    params = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.9)
    result = fourth_order(params, NONE_RULE)
    assert result.order(1) == result.order(3) == 0
    diag = result.diagnostics
    assert diag["basis_size"] == 8
    assert diag["renormalization_terms"] == 4
    assert diag["max_path_term"] > 0.0
    assert set(diag["path_terms"]) <= {"one-excitation", "exchanged-photon",
                                       "two-excitation"}


def test_params_validation():
    with pytest.raises(ValueError):
        CollisionModelParams(coupling=0.1, atoms=1, delta_1=1.0, delta_2=0.9)
    with pytest.raises(ValueError):
        CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=1.0)
    with pytest.raises(ValueError):
        CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.0)
    with pytest.raises(ValueError):
        CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.9,
                             raman_factor=0.0)
    with pytest.raises(ValueError):
        CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.9,
                             n_1=0)
    with pytest.raises(ValueError):
        WidthRule("middle-states")
    with pytest.raises(ValueError):
        WidthRule("none", width=0.1)
    with pytest.raises(ValueError):
        WidthRule("excited-atom-states", width=-0.1)


def test_reference_detuning_defaults_to_mean():
    params = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.8)
    assert params.reference_detuning == pytest.approx(0.9)
    pinned = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.8,
                                  delta=1.0)
    assert pinned.reference_detuning == 1.0


def test_zero_reference_detuning_is_refused():
    # delta_1 = -delta_2 puts the closed forms' delta**3 denominator at zero
    with pytest.raises(ValueError, match=r"delta_1 \+ delta_2 must be non-zero"):
        CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=-1.0)
    pinned = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=-1.0,
                                  delta=1.0)
    assert pinned.reference_detuning == 1.0


def test_underflowing_path_terms_are_a_floating_point_error():
    params = CollisionModelParams(coupling=1.0e-200, atoms=2, delta_1=1.0,
                                  delta_2=0.9)
    with pytest.raises(FloatingPointError, match="underflow to zero"):
        cross_fit(params, WidthRule("none"))


# ---------------------------------------------------------------------------
# The cross coefficient and its cancellation
# ---------------------------------------------------------------------------


def test_real_energies_have_no_pair_cross_shift():
    for atoms in (2, 3, 4):
        for ratio in (0.8, 0.9, 0.99):
            params = CollisionModelParams(coupling=0.1, atoms=atoms, delta_1=1.0,
                                          delta_2=ratio)
            fit = cross_fit(params, NONE_RULE)
            assert abs(fit.value) <= 1e-10 * fit.path_scale
            assert fit.fit_residual <= 1e-9 * fit.path_scale
            # the raw coefficient is dominated by the single-atom saturation
            assert fit.total_value == pytest.approx(
                atoms * fit.single_atom_value, rel=1e-9
            )


def test_excited_state_widths_keep_cancellation():
    rule = WidthRule("excited-atom-states", width=0.1)
    for atoms in (2, 3):
        params = CollisionModelParams(coupling=0.1, atoms=atoms, delta_1=1.0,
                                      delta_2=0.9, width=0.1)
        fit = cross_fit(params, rule)
        assert abs(fit.value) <= 1e-10 * fit.path_scale


def test_exchanged_state_widths_break_cancellation():
    params = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.9,
                                  width=0.01)
    value = cross_fit(params, WidthRule("exchanged-photon-ground-states", 0.01)).value
    fit = cross_fit(params, NONE_RULE)
    assert abs(value) > 1e3 * max(abs(fit.value), 1e-300)
    # the residue is predominantly imaginary: |Im / Re| tracks delta / w
    expected = params.reference_detuning / 0.01
    assert abs(value.imag / value.real) == pytest.approx(expected, rel=0.05)


def test_cross_shift_scales_with_atom_pairs():
    rule = WidthRule("exchanged-photon-ground-states", 0.01)
    per_pair = []
    for atoms in (2, 3, 4):
        params = CollisionModelParams(coupling=0.1, atoms=atoms, delta_1=1.0,
                                      delta_2=0.9, width=0.01)
        value = cross_fit(params, rule).value
        pairs = atoms * (atoms - 1) / 2.0
        per_pair.append(value / pairs)
    assert per_pair[1] == pytest.approx(per_pair[0], rel=1e-9)
    assert per_pair[2] == pytest.approx(per_pair[0], rel=1e-9)


# with delta_2 = 0.9 the exchanged-photon paths carry the largest term;
# with delta_2 = -0.6 and few atoms the doubly excited ones do
@pytest.mark.parametrize("delta_2", (0.9, -0.6))
@pytest.mark.parametrize("atoms", range(2, 9))
@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda rule: rule.selector)
def test_symmetric_sector_matches_labelled_oracle(atoms, rule, delta_2):
    params = CollisionModelParams(coupling=0.1, atoms=atoms, delta_1=1.0,
                                  delta_2=delta_2, width=rule.width)
    totals, singles, path_scale = {}, {}, 0.0
    for n1, n2 in FIT_GRID:
        point = replace(params, n_1=n1, n_2=n2)
        oracle = rspt_energy(labelled_perturbation_problem(point, rule, atoms))
        result = fourth_order(point, rule)
        for k in (2, 4):
            assert abs(result.order(k) - oracle.order(k)) <= 1e-12 * abs(oracle.order(k))
        for key in ("basis_size", "path_terms", "renormalization_terms"):
            assert result.diagnostics[key] == oracle.diagnostics[key], key
        assert result.diagnostics["max_path_term"] == pytest.approx(
            oracle.diagnostics["max_path_term"], rel=1e-12)
        totals[(n1, n2)] = oracle.order(4)
        singles[(n1, n2)] = rspt_energy(labelled_perturbation_problem(point, rule, 1)).order(4)
        path_scale = max(path_scale, oracle.diagnostics["max_path_term"])

    cross = (fit_bilinear(FIT_GRID, [totals[p] for p in FIT_GRID])[(1, 1)]
             - atoms * fit_bilinear(FIT_GRID, [singles[p] for p in FIT_GRID])[(1, 1)])
    fit = cross_fit(params, rule)
    assert fit.path_scale == pytest.approx(path_scale, rel=1e-12)
    # a cancelled coefficient is round-off, so it is compared on the scale
    # that calls it zero; a surviving one is compared to itself
    scale = abs(cross) if rule.selector == "exchanged-photon-ground-states" else path_scale
    assert abs(fit.value - cross) <= 1e-12 * scale


_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)

# detuning ratios delta_2 / delta_1 that keep every gap of the eight
# near states (delta_1, delta_2, delta_1 - delta_2, 2 delta_1, 2 delta_2,
# delta_1 + delta_2) away from zero
_RATIOS = (st.floats(0.2, 0.9) | st.floats(1.1, 3.0) | st.floats(-3.0, -1.3)
           | st.floats(-0.7, -0.2))


@_SETTINGS
@given(log_atoms=st.floats(math.log10(2), 15), rule_index=st.integers(0, 2),
       delta_1=st.floats(0.5, 2.0), sign=st.sampled_from((1.0, -1.0)),
       ratio=_RATIOS, log_width=st.floats(-4, -0.5), log_coupling=st.floats(-3, 0))
def test_closed_form_matches_the_fitted_algorithm_at_50_digits(
        log_atoms, rule_index, delta_1, sign, ratio, log_width, log_coupling):
    atoms = max(2, round(10 ** log_atoms))
    selector = ALL_RULES[rule_index].selector
    width = 0.0 if selector == "none" else 10 ** log_width * delta_1
    rule = WidthRule(selector, width)
    params = CollisionModelParams(coupling=10 ** log_coupling, atoms=atoms,
                                  delta_1=sign * delta_1,
                                  delta_2=sign * delta_1 * ratio, width=width)
    fit = cross_fit(params, rule)
    value, total, single = mp_cross_coefficients(params, rule)
    if selector == "exchanged-photon-ground-states":
        assert abs(fit.value - value) <= 1e-12 * abs(value)
    else:
        assert fit.value == 0
    assert abs(fit.total_value - total) <= 1e-12 * max(abs(total), fit.path_scale)
    assert abs(fit.single_atom_value - single) <= 1e-12 * max(abs(single),
                                                               fit.path_scale)


@_SETTINGS
@given(log_atoms=st.floats(math.log10(2), 15), rule_index=st.integers(0, 2),
       delta_1=st.floats(0.5, 2.0), sign=st.sampled_from((1.0, -1.0)),
       ratio=_RATIOS, log_width=st.floats(-4, -0.5), log_coupling=st.floats(-3, 0),
       n_1=st.integers(1, 5), n_2=st.integers(1, 5))
def test_fourth_order_matches_the_path_sum_at_50_digits(
        log_atoms, rule_index, delta_1, sign, ratio, log_width, log_coupling,
        n_1, n_2):
    atoms = max(2, round(10 ** log_atoms))
    selector = ALL_RULES[rule_index].selector
    width = 0.0 if selector == "none" else 10 ** log_width * delta_1
    rule = WidthRule(selector, width)
    params = CollisionModelParams(coupling=10 ** log_coupling, atoms=atoms,
                                  delta_1=sign * delta_1,
                                  delta_2=sign * delta_1 * ratio, width=width,
                                  n_1=n_1, n_2=n_2)
    result = fourth_order(params, rule)
    e2, e4 = mp_orders(params, rule)
    scale = result.diagnostics["max_path_term"]
    assert abs(result.order(2) - e2) <= 1e-13 * max(abs(e2), scale)
    assert abs(result.order(4) - e4) <= 1e-13 * max(abs(e4), scale)
    assert result.order(1) == result.order(3) == 0
    # the grid and the coefficients come from one closed form: their mixed
    # differences differ by rounding only
    fit = cross_fit(params, rule)
    assert fit.fit_residual <= 1e-14 * max(abs(value) for value in fit.grid.values())


@_SETTINGS
@given(log_atoms=st.floats(math.log10(2), 15), delta_1=st.floats(0.5, 2.0),
       sign=st.sampled_from((1.0, -1.0)), ratio=_RATIOS,
       log_width=st.floats(-4, -0.5), log_coupling=st.floats(-3, 0))
def test_exact_coefficient_is_franson_formula_times_two_factors(
        log_atoms, delta_1, sign, ratio, log_width, log_coupling):
    # With x = ((delta_1 - delta_2) / (delta_1 + delta_2))^2 and
    # y = (w / (delta_1 - delta_2))^2 the exact pair coefficient per
    # (N - 1) / N is (dE + dE' (1 + x)) / ((1 - x)^2 (1 + y)): Franson's
    # formula is its limit w << |delta_1 - delta_2| << delta.
    atoms = max(2, round(10 ** log_atoms))
    delta_1, delta_2 = sign * delta_1, sign * delta_1 * ratio
    width = 10 ** log_width * abs(delta_1)
    params = CollisionModelParams(coupling=10 ** log_coupling, atoms=atoms,
                                  delta_1=delta_1, delta_2=delta_2, width=width)
    value = cross_fit(params, WidthRule("exchanged-photon-ground-states", width)).value
    d_e, d_e_prime = franson_formula(params)
    x = ((delta_1 - delta_2) / (delta_1 + delta_2)) ** 2
    y = (width / (delta_1 - delta_2)) ** 2
    expected = (d_e + d_e_prime * (1 + x)) / ((1 - x) ** 2 * (1 + y))
    assert abs(value * atoms / (atoms - 1) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("atoms", (100, 10 ** 4, 10 ** 6))
@pytest.mark.parametrize("rule", ALL_RULES[:2], ids=lambda rule: rule.selector)
def test_cancellation_holds_at_large_atom_counts(atoms, rule):
    # the yardstick is |E4| on the grid: path_scale grows with N through
    # E2 and would let round-off of order eps * N pass
    params = CollisionModelParams(coupling=0.1, atoms=atoms, delta_1=1.0,
                                  delta_2=0.9, width=rule.width)
    fit = cross_fit(params, rule)
    e4_scale = max(abs(value) for value in fit.grid.values())
    assert abs(fit.value) <= 1e-12 * e4_scale


def test_pair_scaling_holds_at_large_atom_counts():
    rule = ALL_RULES[2]

    def per_pair(atoms):
        params = CollisionModelParams(coupling=0.1, atoms=atoms, delta_1=1.0,
                                      delta_2=0.9, width=rule.width)
        return cross_fit(params, rule).value / (atoms * (atoms - 1) / 2.0), params

    base, _ = per_pair(2)
    for atoms in (100, 10 ** 4, 10 ** 6):
        value, params = per_pair(atoms)
        assert abs(value - base) <= 1e-9 * abs(base)
        expected = params.reference_detuning / rule.width
        assert abs(value.imag / value.real) == pytest.approx(expected, rel=0.2)


@pytest.mark.parametrize("atoms", (10 ** 6, 10 ** 15))
def test_counts_are_exact_at_large_atom_counts(atoms):
    params = CollisionModelParams(coupling=0.1, atoms=atoms, delta_1=1.0,
                                  delta_2=0.9, n_1=3, n_2=3)
    diag = fourth_order(params, NONE_RULE).diagnostics
    pairs = math.comb(atoms, 2)
    assert diag["basis_size"] == 1 + 2 * atoms + 2 + 3 * pairs
    assert diag["path_terms"] == {"exchanged-photon": 2 * atoms ** 2,
                                  "two-excitation": 24 * pairs}
    assert diag["renormalization_terms"] == 2 * atoms


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda rule: rule.selector)
def test_large_photon_numbers_match_labelled_oracle(rule):
    params = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.9,
                                  width=rule.width, n_1=10 ** 4, n_2=10 ** 4)
    result = fourth_order(params, rule)
    oracle = rspt_energy(labelled_perturbation_problem(params, rule, 2))
    for k in (2, 4):
        assert abs(result.order(k) - oracle.order(k)) <= 1e-12 * abs(oracle.order(k))
    for key in ("basis_size", "path_terms", "renormalization_terms"):
        assert result.diagnostics[key] == oracle.diagnostics[key], key
    assert result.diagnostics["max_path_term"] == pytest.approx(
        oracle.diagnostics["max_path_term"], rel=1e-12)


def test_far_states_do_not_trigger_singularity():
    # 2 delta_1 = delta_2 makes (n1 - 2, n2 + 1, 1) resonant with the
    # reference, three V steps away: it cannot enter the fourth order
    params = CollisionModelParams(coupling=0.1, atoms=3, delta_1=1.0, delta_2=2.0,
                                  n_1=2, n_2=2)
    oracle = rspt_energy(labelled_perturbation_problem(params, NONE_RULE, 3))
    result = fourth_order(params, NONE_RULE)
    assert result.order(4) == pytest.approx(oracle.order(4), rel=1e-12)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_franson_zero_width():
    params = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.9)
    d_e, d_e_prime = franson_formula(params)
    assert d_e == 0.0
    assert d_e_prime == 0.0


def test_franson_ratio_is_detuning_over_width():
    params = CollisionModelParams(coupling=0.3, atoms=5, delta_1=1.2, delta_2=0.7,
                                  width=0.004, raman_factor=0.6, n_1=2, n_2=3)
    d_e, d_e_prime = franson_formula(params)
    assert d_e.real < 0.0
    assert d_e.imag == 0.0
    assert d_e_prime.real == 0.0
    assert abs(d_e_prime) / abs(d_e) == pytest.approx(
        params.reference_detuning / params.width, rel=1e-12
    )


def test_franson_scalings():
    base = CollisionModelParams(coupling=0.2, atoms=3, delta_1=1.0, delta_2=0.8,
                                width=0.01)
    d_e, d_e_prime = franson_formula(base)
    doubled_atoms = CollisionModelParams(coupling=0.2, atoms=6, delta_1=1.0,
                                         delta_2=0.8, width=0.01)
    d_e_2, _ = franson_formula(doubled_atoms)
    assert d_e_2 == pytest.approx(4.0 * d_e, rel=1e-12)

    half_raman = CollisionModelParams(coupling=0.2, atoms=3, delta_1=1.0,
                                      delta_2=0.8, width=0.01, raman_factor=0.5)
    d_e_half, _ = franson_formula(half_raman)
    assert d_e_half == pytest.approx(0.5 * d_e, rel=1e-12)
