"""Tests for the fourth-order cross-shift machinery.

The solver is checked against closed forms that can be derived by hand:
the exactly solvable two-level problem, the single-mode saturation shift
(renormalization term in isolation), and the analytic width formulas.
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
    PerturbationProblem,
    SingularityError,
    WidthRule,
    build_problem,
    cross_fit,
    franson_formula,
    rspt_energy,
)

from oracles import (fit_bilinear, labelled_perturbation_problem,
                     mp_cross_coefficients)


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
# Solver correctness on solvable problems
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
    problem = build_problem(params, NONE_RULE)
    with pytest.raises(SingularityError, match="degenerate"):
        rspt_energy(problem)


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

    # the symmetric sector: one state per class and photon content, each
    # standing for C(2, k) labelled levels
    symmetric = build_problem(params, NONE_RULE)
    assert symmetric.states == ((1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 2, 0),
                                (2, 0, 0), (0, 0, 2))
    assert symmetric.classes == ("reference", "one-excitation", "one-excitation",
                                 "exchanged-photon", "exchanged-photon",
                                 "two-excitation")
    assert symmetric.multiplicity == (1, 2, 2, 1, 1, 1)
    members = {}
    for cls, count in zip(symmetric.classes, symmetric.multiplicity):
        members[cls] = members.get(cls, 0) + count
    assert members == by_class
    # Dicke ladder: sqrt(N) M out of the ground state, sqrt((N - 1) 2) M
    # into the doubly excited one, times the photon's own sqrt(n)
    m = params.coupling * math.sqrt(2.0)
    assert symmetric.coupling[0, 1] == pytest.approx(m, rel=1e-15)
    assert symmetric.coupling[1, 5] == pytest.approx(m, rel=1e-15)
    assert symmetric.coupling[1, 3] == pytest.approx(m * math.sqrt(2.0), rel=1e-15)
    assert symmetric.coupling[0, 3] == 0.0


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

    # the symmetric states carry k excited atoms as their last entry
    excited = build_problem(params, excited_rule)
    for state, energy in zip(excited.states, excited.energies):
        assert energy.imag == -0.05 * state[2]

    exchanged = build_problem(params, exchanged_rule)
    assert "exchanged-photon" in exchanged.classes
    for cls, energy in zip(exchanged.classes, exchanged.energies):
        assert energy.imag == (-0.05 if cls == "exchanged-photon" else 0.0)

    assert np.all(build_problem(params, NONE_RULE).energies.imag == 0.0)


def test_second_order_closed_form():
    m, d1, d2 = 0.07, 1.1, 0.8
    for atoms in (2, 3):
        for n1, n2 in ((1, 1), (2, 3)):
            params = CollisionModelParams(coupling=m, atoms=atoms, delta_1=d1,
                                          delta_2=d2, n_1=n1, n_2=n2)
            result = rspt_energy(build_problem(params, NONE_RULE))
            expected = -atoms * m * m * (n1 / d1 + n2 / d2)
            assert result.order(2) == pytest.approx(expected, rel=1e-12)


def test_diagnostics_shape():
    params = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.9)
    result = rspt_energy(build_problem(params, NONE_RULE))
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


def test_numeric_residue_approaches_closed_form():
    # the closed form assumes w << |delta_1 - delta_2| << delta; shrinking
    # both ratios drives the numeric pair coefficient to the closed form
    # times (N - 1) / N (the N^2 prefactor counts ordered pairs)
    for atoms in (2, 4):
        target = (atoms - 1) / atoms
        deviations = []
        for delta_2, width in ((0.9, 1e-3), (0.99, 1e-5)):
            params = CollisionModelParams(coupling=0.1, atoms=atoms, delta_1=1.0,
                                          delta_2=delta_2, width=width)
            numeric = cross_fit(
                params, WidthRule("exchanged-photon-ground-states", width)
            ).value
            d_e, d_e_prime = franson_formula(params)
            worst = max(abs(numeric.real / d_e.real - target),
                        abs(numeric.imag / d_e_prime.imag - target))
            deviations.append(worst)
        assert deviations[1] < deviations[0]
        assert deviations[1] < 1e-3 * target


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
        result = rspt_energy(build_problem(point, rule))
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


def test_cross_fit_needs_no_least_squares_and_no_single_atom_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cross_fit reached a least-squares fit")

    built = []

    def build(params, rule, atoms):
        built.append(atoms)
        return original(params, rule, atoms)

    original = perturbation._build
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(perturbation, "_build", build)
    for rule in ALL_RULES:
        params = CollisionModelParams(coupling=0.1, atoms=5, delta_1=1.0,
                                      delta_2=0.9, width=rule.width)
        cross_fit(params, rule)
    assert built == [5] * 9 * len(ALL_RULES)


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


def test_basis_stays_small_at_large_atom_counts():
    params = CollisionModelParams(coupling=0.1, atoms=10 ** 6, delta_1=1.0,
                                  delta_2=0.9, n_1=3, n_2=3)
    problem = build_problem(params, NONE_RULE)
    assert problem.dim == 8
    diag = rspt_energy(problem).diagnostics
    pairs = math.comb(10 ** 6, 2)
    assert diag["basis_size"] == 1 + 2 * 10 ** 6 + 2 + 3 * pairs
    assert diag["renormalization_terms"] == 2 * 10 ** 6


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda rule: rule.selector)
def test_basis_stays_small_at_large_photon_numbers(rule):
    # the kept states are built directly, so the cost does not grow with
    # the photon numbers either
    params = CollisionModelParams(coupling=0.1, atoms=2, delta_1=1.0, delta_2=0.9,
                                  width=rule.width, n_1=10 ** 4, n_2=10 ** 4)
    problem = build_problem(params, rule)
    assert problem.dim == 8
    assert build_problem(replace(params, atoms=10 ** 6), rule).dim == 8
    result = rspt_energy(problem)
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
    problem = build_problem(params, NONE_RULE)
    assert (0, 3, 1) not in problem.states
    oracle = rspt_energy(labelled_perturbation_problem(params, NONE_RULE, 3))
    assert rspt_energy(problem).order(4) == pytest.approx(oracle.order(4), rel=1e-12)


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
