"""Tests for mode specs, basis enumeration, and operator construction."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from exchangelab.hilbert import (
    AtomCloud,
    HERMITIAN_TOL,
    OperatorMatrix,
    collective_mode,
    dicke_matrix_element,
    enumerate_basis,
    exchange_coupling,
    photon_mode,
)

from oracles import matrix_element, stars_and_bars, total_quanta


# ---------------------------------------------------------------------------
# Mode specs and ladder factors
# ---------------------------------------------------------------------------


def test_photon_ladder_factors():
    mode = photon_mode("cavity")
    assert not mode.bosonized  # the flag marks infinite-atom collective modes
    for n in range(6):
        assert mode.raising_factor(n) == pytest.approx(math.sqrt(n + 1))
        assert mode.lowering_factor(n + 1) == pytest.approx(math.sqrt(n + 1))
    assert mode.lowering_factor(0) == 0.0


def test_collective_ladder_finite():
    mode = collective_mode("atoms", atom_count=2)
    # one shared excitation -> two: sqrt((N - m)(m + 1)) with N = 2, m = 1
    assert mode.raising_factor(1) == pytest.approx(math.sqrt(2.0))
    assert mode.raising_factor(0) == pytest.approx(math.sqrt(2.0))
    # the ladder terminates at full inversion
    assert mode.raising_factor(2) == 0.0
    assert mode.max_occupation(5) == 2


def test_collective_ladder_bosonized_limit():
    unbounded = collective_mode("atoms")
    assert unbounded.bosonized
    for m in range(4):
        assert unbounded.raising_factor(m) == pytest.approx(math.sqrt(m + 1))


def test_bosonized_limit_is_large_atom_number():
    n_atoms = 10_000
    finite = collective_mode("atoms", atom_count=n_atoms)
    unbounded = collective_mode("atoms")
    for m in range(4):
        scaled = finite.raising_factor(m) / math.sqrt(n_atoms)
        ideal = unbounded.raising_factor(m)
        assert abs(scaled - ideal) / ideal < 2e-4


def test_mode_validation():
    from exchangelab.hilbert import ModeSpec

    with pytest.raises(ValueError):
        ModeSpec(label="cavity", kind="photon", atom_count=3)
    with pytest.raises(ValueError):
        ModeSpec(label="x", kind="qubit")
    with pytest.raises(ValueError):
        collective_mode("atoms", atom_count=0)
    with pytest.raises(ValueError):
        collective_mode("")


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------


def test_single_mode_sector():
    basis = enumerate_basis([photon_mode("a")], 1)
    assert basis.dim == 1
    assert basis.states == ((1,),)


def test_two_mode_sector_two():
    basis = enumerate_basis([photon_mode("a"), photon_mode("b")], 2)
    assert basis.dim == 3
    assert basis.states == ((0, 2), (1, 1), (2, 0))


def test_three_mode_sector_two():
    modes = [photon_mode("a"), photon_mode("b"), photon_mode("c")]
    basis = enumerate_basis(modes, 2)
    assert basis.dim == 6


def test_enumeration_counts_match_compositions():
    for n_modes in (1, 2, 3, 4):
        modes = [photon_mode(f"m{i}") for i in range(n_modes)]
        for sector in range(5):
            basis = enumerate_basis(modes, sector)
            assert basis.dim == stars_and_bars(sector, n_modes)


def test_truncation_removes_overfull_states():
    modes = [collective_mode("atoms", atom_count=1), photon_mode("field")]
    basis = enumerate_basis(modes, 2)
    assert (2, 0) not in basis
    assert (1, 1) in basis
    assert (0, 2) in basis
    assert basis.dim == 2


def test_enumeration_ordering_is_lexicographic():
    modes = [photon_mode("a"), photon_mode("b"), photon_mode("c")]
    basis = enumerate_basis(modes, 3)
    assert list(basis.states) == sorted(basis.states)


def test_enumeration_errors():
    with pytest.raises(ValueError):
        enumerate_basis([], 1)
    with pytest.raises(ValueError):
        enumerate_basis([photon_mode("a")], -1)
    with pytest.raises(ValueError):
        enumerate_basis([photon_mode("a"), photon_mode("a")], 1)


def test_basis_lookup_helpers():
    basis = enumerate_basis([photon_mode("a"), photon_mode("b")], 2)
    assert basis.index((1, 1)) == 1
    assert basis.mode_position("b") == 1
    vec = basis.state_vector((0, 2))
    assert_allclose(vec, [1.0, 0.0, 0.0])
    occ = basis.occupations()
    assert occ.shape == (3, 2)
    assert list(occ[:, 0]) == [0, 1, 2]
    with pytest.raises(KeyError):
        basis.index((3, 0))


# ---------------------------------------------------------------------------
# Exchange couplings
# ---------------------------------------------------------------------------


def test_exchange_element_bosonized():
    basis = enumerate_basis([photon_mode("a"), photon_mode("b")], 2)
    op = exchange_coupling(basis, "a", "b", rate=0.7)
    # moving one quantum from a (n=1) into b (already holding one) picks up
    # sqrt(1) * sqrt(2)
    assert matrix_element(op, (0, 2), (1, 1)) == pytest.approx(0.7 * math.sqrt(2.0))
    assert matrix_element(op, (1, 1), (0, 2)) == pytest.approx(0.7 * math.sqrt(2.0))
    assert matrix_element(op, (2, 0), (0, 2)) == 0.0


def test_exchange_element_finite_atoms():
    modes = [collective_mode("atoms", atom_count=2), photon_mode("field")]
    basis = enumerate_basis(modes, 2)
    op = exchange_coupling(basis, "field", "atoms", rate=1.0)
    # photon absorbed by a cloud already holding one excitation:
    # sqrt(1) * sqrt((2 - 1)(1 + 1)) = sqrt(2)
    assert matrix_element(op, (2, 0), (1, 1)) == pytest.approx(math.sqrt(2.0))


def test_stimulated_ratio_from_matrix_elements():
    n_atoms = 10
    modes = [collective_mode("atoms", atom_count=n_atoms), photon_mode("field")]
    basis = enumerate_basis(modes, 2)
    op = exchange_coupling(basis, "field", "atoms", rate=1.0)
    emission = abs(matrix_element(op, (0, 2), (1, 1)))
    absorption = abs(matrix_element(op, (2, 0), (1, 1)))
    assert emission / absorption == pytest.approx(math.sqrt(n_atoms / (n_atoms - 1.0)))
    assert emission / absorption == pytest.approx(1.0541, abs=5e-5)


def test_exchange_validation():
    basis = enumerate_basis([photon_mode("a"), photon_mode("b")], 1)
    with pytest.raises(ValueError):
        exchange_coupling(basis, "a", "a", rate=1.0)
    with pytest.raises(KeyError):
        exchange_coupling(basis, "a", "nope", rate=1.0)


def test_exchange_is_hermitian_and_conserves_quanta():
    rng = np.random.default_rng(7)
    for trial in range(6):
        n_modes = int(rng.integers(2, 4))
        modes = []
        for i in range(n_modes):
            if rng.random() < 0.5:
                modes.append(photon_mode(f"m{i}"))
            else:
                modes.append(collective_mode(f"m{i}", atom_count=int(rng.integers(1, 5))))
        sector = int(rng.integers(1, 4))
        basis = enumerate_basis(modes, sector)
        if basis.dim == 0:
            continue
        labels = rng.choice(n_modes, size=2, replace=False)
        op = exchange_coupling(basis, f"m{labels[0]}", f"m{labels[1]}", rate=1.3)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) <= HERMITIAN_TOL
        total = total_quanta(basis)
        commutator = op.matrix @ total - total @ op.matrix
        assert np.max(np.abs(commutator)) < 1e-12


# ---------------------------------------------------------------------------
# OperatorMatrix behaviour
# ---------------------------------------------------------------------------


def test_operator_validation():
    basis = enumerate_basis([photon_mode("a"), photon_mode("b")], 1)
    with pytest.raises(ValueError):
        OperatorMatrix(basis, np.zeros((3, 3), dtype=complex))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        OperatorMatrix(basis, skew, hermitian=True)
    with pytest.raises(ValueError):
        OperatorMatrix(basis, np.full((2, 2), np.nan, dtype=complex))


# ---------------------------------------------------------------------------
# Spatially resolved collective coupling
# ---------------------------------------------------------------------------


def test_dicke_element_phase_matched():
    cloud = AtomCloud(np.zeros((4, 3)))
    value = dicke_matrix_element(cloud, k_photon=np.array([1.0, 0.0, 0.0]), coupling=1.0)
    assert value == pytest.approx(2.0)


def test_dicke_element_single_atom():
    cloud = AtomCloud(np.zeros((1, 3)))
    value = dicke_matrix_element(cloud, k_photon=np.array([0.0, 0.0, 2.0]), coupling=0.3)
    assert value == pytest.approx(0.3)


def test_dicke_element_opposed_phases_cancel():
    # two atoms positioned so the residual phases are 0 and pi
    positions = np.array([[0.0, 0.0, 0.0], [math.pi, 0.0, 0.0]])
    cloud = AtomCloud(positions)
    value = dicke_matrix_element(cloud, k_photon=np.array([1.0, 0.0, 0.0]), coupling=1.0)
    assert abs(value) < 1e-12


def test_dicke_element_laser_compensation():
    rng = np.random.default_rng(21)
    positions = rng.uniform(-5.0, 5.0, size=(12, 3))
    cloud = AtomCloud(positions)
    k = np.array([0.8, -0.2, 1.4])
    # launching along the same wavevector that is collected leaves no residual
    value = dicke_matrix_element(cloud, k_photon=k, k_laser=k, coupling=2.0)
    assert value == pytest.approx(2.0 * math.sqrt(12), rel=1e-12)


def test_dicke_modulus_bound():
    rng = np.random.default_rng(5)
    coupling = 0.9
    for _ in range(20):
        n_atoms = int(rng.integers(2, 30))
        cloud = AtomCloud(rng.uniform(-4.0, 4.0, size=(n_atoms, 3)))
        k = rng.uniform(-2.0, 2.0, size=3)
        value = dicke_matrix_element(cloud, k_photon=k, coupling=coupling)
        bound = coupling * math.sqrt(n_atoms)
        assert abs(value) <= bound + 1e-12
        # generic disordered positions fall strictly below the bound
        assert abs(value) < bound - 1e-9


def test_dicke_validation():
    with pytest.raises(ValueError):
        AtomCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        AtomCloud(np.zeros((3, 2)))
    cloud = AtomCloud(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        dicke_matrix_element(cloud, k_photon=np.array([1.0, 0.0]))
