"""Tests for gate extraction, entanglement verdicts, and pulse diagnostics."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from exchangelab import cli, gates
from exchangelab.dynamics import PulseSegment
from exchangelab.gates import (
    ExchangeModel,
    LogicalEncoding,
    THREE_PULSE_TARGET,
    conditional_phase_defect,
    extract_gate,
    five_pulse_leakage,
    is_entangling,
    single_quantum_transfer,
    stimulated_couplings,
    three_pulse_schedule,
)
from exchangelab.serialize import dumps_json

from oracles import (propagated_five_pulse, random_product_schedule,
                     random_unitary_2x2)


# ---------------------------------------------------------------------------
# Three-pulse gate
# ---------------------------------------------------------------------------


def test_three_pulse_bosonized_is_exact():
    model = ExchangeModel()
    schedule = three_pulse_schedule(model, rate=1.0)
    report = extract_gate(schedule, LogicalEncoding(), model)
    assert np.max(np.abs(report.matrix - THREE_PULSE_TARGET)) < 1e-12
    assert report.leakage.max() < 1e-12
    assert report.unitarity_defect < 1e-12
    assert not report.entangling
    assert report.local_factors is not None
    factor_1, factor_2 = report.local_factors
    assert_allclose(np.kron(factor_1, factor_2), THREE_PULSE_TARGET, atol=1e-12)
    assert abs(report.phase_defect) < 1e-12


def test_three_pulse_timing_uses_collective_enhancement():
    bosonized = three_pulse_schedule(ExchangeModel(), rate=1.0)
    finite = three_pulse_schedule(ExchangeModel(atoms=4), rate=1.0)
    # a pi pulse takes half as long when the collective coupling is doubled
    assert finite[0].duration == pytest.approx(bosonized[0].duration / 2.0)
    durations = [seg.duration for seg in bosonized]
    assert durations[1] == pytest.approx(2 * durations[0])
    assert durations[2] == pytest.approx(durations[0])


def test_empty_schedule_gives_identity():
    model = ExchangeModel()
    report = extract_gate([], LogicalEncoding(), model)
    assert_allclose(report.matrix, np.eye(4), atol=1e-14)
    assert not report.entangling


def test_finite_atoms_deviation_matches_closed_form():
    # with N atoms the middle pulse detunes from a full cycle by the factor
    # sqrt(1 - 1/(2N)); the worst matrix-element error follows in closed form
    for atoms in (2, 8, 32):
        model = ExchangeModel(atoms=atoms)
        schedule = three_pulse_schedule(model, rate=1.0)
        report = extract_gate(schedule, LogicalEncoding(), model)
        deviation = float(np.max(np.abs(report.matrix - THREE_PULSE_TARGET)))
        predicted = 1.0 - math.cos(2 * math.pi * math.sqrt(1.0 - 0.5 / atoms))
        assert deviation == pytest.approx(predicted, rel=1e-6)


def test_finite_atoms_deviation_decreases():
    deviations = []
    for atoms in (2, 4, 8, 16, 32, 64):
        model = ExchangeModel(atoms=atoms)
        schedule = three_pulse_schedule(model, rate=1.0)
        report = extract_gate(schedule, LogicalEncoding(), model)
        deviations.append(float(np.max(np.abs(report.matrix - THREE_PULSE_TARGET))))
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[0] > 0.1  # two atoms miss the target badly
    assert deviations[-1] < 1e-3


def test_gate_report_payload_roundtrip():
    model = ExchangeModel()
    report = extract_gate(three_pulse_schedule(model, rate=1.0), LogicalEncoding(), model)
    payload = json.loads(dumps_json(report.to_payload()))
    assert payload["schema_version"] == 1
    assert payload["kind"] == "gate_report"
    assert payload["entangling"] is False
    re, im = payload["matrix"][1][1]
    assert re == pytest.approx(-1.0, abs=1e-12)
    assert im == pytest.approx(0.0, abs=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        ExchangeModel(atoms=0)
    model = ExchangeModel(atoms=5)
    assert not model.bosonized
    assert model.single_quantum_rate(2.0) == pytest.approx(2.0 * math.sqrt(5))
    assert ExchangeModel().single_quantum_rate(2.0) == pytest.approx(2.0)


def test_encoding_validation():
    with pytest.raises(ValueError):
        LogicalEncoding(qubit_1="photon_1", qubit_2="photon_1")


# ---------------------------------------------------------------------------
# Entanglement verdicts
# ---------------------------------------------------------------------------


def test_is_entangling_diagonal_examples():
    entangling, factors = is_entangling(THREE_PULSE_TARGET)
    assert not entangling
    factor_1, factor_2 = factors
    assert_allclose(np.kron(factor_1, factor_2), THREE_PULSE_TARGET, atol=1e-12)

    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    entangling, factors = is_entangling(cz)
    assert entangling
    assert factors is None

    entangling, factors = is_entangling(np.eye(4, dtype=complex))
    assert not entangling
    assert_allclose(np.kron(*factors), np.eye(4), atol=1e-12)


def test_is_entangling_rejects_nonunitary():
    with pytest.raises(ValueError):
        is_entangling(np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        is_entangling(np.eye(3, dtype=complex))


def test_is_entangling_local_dressing_invariance():
    rng = np.random.default_rng(17)
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    for _ in range(10):
        left = np.kron(random_unitary_2x2(rng), random_unitary_2x2(rng))
        right = np.kron(random_unitary_2x2(rng), random_unitary_2x2(rng))
        dressed_product = left @ THREE_PULSE_TARGET @ right
        verdict, factors = is_entangling(dressed_product)
        assert not verdict
        assert_allclose(np.kron(*factors), dressed_product, atol=1e-9)
        dressed_cz = left @ cz @ right
        verdict, factors = is_entangling(dressed_cz)
        assert verdict
        assert factors is None


def test_conditional_phase_defect_examples():
    assert conditional_phase_defect(THREE_PULSE_TARGET) == pytest.approx(0.0, abs=1e-12)
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    assert abs(conditional_phase_defect(cz)) == pytest.approx(math.pi, abs=1e-12)
    hopper = np.zeros((4, 4), dtype=complex)
    hopper[0, 0] = hopper[3, 3] = 1.0
    hopper[1, 2] = hopper[2, 1] = 1.0
    assert math.isnan(conditional_phase_defect(hopper))


# ---------------------------------------------------------------------------
# Five-pulse diagnostics
# ---------------------------------------------------------------------------


def test_five_pulse_limits():
    model = ExchangeModel()
    at_zero = five_pulse_leakage(model, theta=0.0)
    assert at_zero.p_two_photon == pytest.approx(0.0, abs=1e-12)
    assert at_zero.p_two_excitation == pytest.approx(0.0, abs=1e-12)
    assert at_zero.p_return == pytest.approx(1.0, abs=1e-12)

    worst = five_pulse_leakage(model, theta=math.pi / 4.0)
    assert worst.p_two_photon == pytest.approx(0.5, abs=1e-12)

    full = five_pulse_leakage(model, theta=math.pi)
    assert full.p_return == pytest.approx(1.0, abs=1e-9)


def test_five_pulse_probabilities_complete():
    for model in (ExchangeModel(), ExchangeModel(atoms=3)):
        for theta in np.linspace(0.0, math.pi, 9):
            probs = five_pulse_leakage(model, theta=float(theta))
            total = probs.p_two_photon + probs.p_two_excitation + probs.p_return
            assert total == pytest.approx(1.0, abs=1e-12)


def test_five_pulse_bosonized_closed_form():
    model = ExchangeModel()
    for theta in np.linspace(0.0, math.pi, 7):
        probs = five_pulse_leakage(model, theta=float(theta))
        assert probs.p_two_photon == pytest.approx(
            math.sin(2 * theta) ** 2 / 2.0, abs=1e-12
        )
        assert probs.p_return == pytest.approx(math.cos(2 * theta) ** 2, abs=1e-12)


@pytest.mark.parametrize("atoms", [None, 1, 2, 3, 8, 64, 10**4, 10**6])
@pytest.mark.parametrize("rate", [0.3, 1.0, 2.7])
def test_five_pulse_matches_series_propagation(atoms, rate):
    # both sides round the phase Omega*theta/g = theta*sqrt(4N - 2) (2 theta
    # bosonized), so the tolerance grows with it
    model = ExchangeModel(atoms=atoms)
    omega = 2.0 if atoms is None else math.sqrt(4.0 * atoms - 2.0)
    for theta in np.linspace(0.0, 2.0 * math.pi, 33):
        got = five_pulse_leakage(model, float(theta), rate)
        want = propagated_five_pulse(model, float(theta), rate)
        assert_allclose(got, want, rtol=0.0, atol=1e-14 * (1.0 + omega * theta))


def test_five_pulse_exact_cases():
    for atoms in (None, 1, 2, 10**6):
        for rate in (0.3, 1.0):
            leak = five_pulse_leakage(ExchangeModel(atoms), 0.0, rate)
            assert leak == (0.0, 0.0, 1.0)
    # one atom cannot hold two excitations: that channel is exactly empty
    for theta in np.linspace(0.0, 2.0 * math.pi, 17):
        leak = five_pulse_leakage(ExchangeModel(atoms=1), float(theta))
        assert leak.p_two_excitation == 0.0
    for theta in np.linspace(0.0, math.pi, 17):
        probs = five_pulse_leakage(ExchangeModel(), float(theta))
        assert probs.p_two_photon == probs.p_two_excitation
        assert probs.p_two_photon == pytest.approx(math.sin(2 * theta) ** 2 / 2,
                                                   abs=1e-15)
        assert probs.p_return == pytest.approx(math.cos(2 * theta) ** 2,
                                               abs=1e-15)


def test_five_pulse_builds_no_basis_and_propagates_nothing(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the five-pulse table needs no basis or propagator")

    for name in ("enumerate_basis", "final_state"):
        monkeypatch.setattr(gates, name, refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert five_pulse_leakage(ExchangeModel(atoms=5), 0.7, 1.3).p_return < 1.0
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "five_pulse.yaml"
    assert cli.main(["five-pulse", "--scenario", str(scenario),
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "five_pulse.csv").is_file()


def test_stimulated_couplings_ratio():
    ten = stimulated_couplings(ExchangeModel(atoms=10), rate=1.0)
    assert ten.emission == pytest.approx(math.sqrt(20.0))
    assert ten.absorption == pytest.approx(math.sqrt(18.0))
    assert ten.emission / ten.absorption == pytest.approx(math.sqrt(10.0 / 9.0))

    bosonized = stimulated_couplings(ExchangeModel(), rate=1.0)
    assert bosonized.emission == pytest.approx(bosonized.absorption)

    single = stimulated_couplings(ExchangeModel(atoms=1), rate=1.0)
    assert single.absorption == 0.0


# ---------------------------------------------------------------------------
# Transfer matrices and the no-entanglement property
# ---------------------------------------------------------------------------


def test_single_quantum_transfer_three_pulse():
    model = ExchangeModel()
    transfer = single_quantum_transfer(three_pulse_schedule(model, rate=1.0), model)
    assert_allclose(transfer, np.diag([1.0, -1.0, -1.0]), atol=1e-12)


def test_product_schedules_never_entangle():
    rng = np.random.default_rng(41)
    model = ExchangeModel()
    for _ in range(30):
        schedule = random_product_schedule(rng, model)
        transfer = single_quantum_transfer(schedule, model)
        # no cross-talk between the two photon modes, no residue on the ancilla
        assert abs(transfer[0, 1]) < 1e-10
        assert abs(transfer[1, 0]) < 1e-10
        assert abs(transfer[2, 0]) < 1e-10
        assert abs(transfer[2, 1]) < 1e-10
        report = extract_gate(schedule, LogicalEncoding(), model)
        assert report.leakage.max() < 1e-9
        assert not report.entangling
        assert abs(report.phase_defect) < 1e-7
