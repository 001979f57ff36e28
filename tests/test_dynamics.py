"""Tests for pulsed evolution, Rabi analysis, and the loss/phase scans."""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from exchangelab import dynamics
from exchangelab.dynamics import (
    MAX_PHASE_SAMPLES,
    NoDynamicsError,
    PulseSegment,
    Trajectory,
    evolve_segment,
    final_state,
    phase_vs_loss,
    rabi_frequency,
    run_schedule,
    segment_hamiltonian,
    transmission_scan,
)
from exchangelab.gates import ExchangeModel, three_pulse_schedule
from exchangelab.hilbert import (
    OperatorMatrix,
    collective_mode,
    enumerate_basis,
    exchange_coupling,
    photon_mode,
)

from oracles import (random_hermitian, rowwise_trajectory_csv,
                     scanning_rabi_frequency, series_propagator, total_quanta)


def _beamsplitter_basis():
    return enumerate_basis([photon_mode("a"), photon_mode("b")], 1)


# ---------------------------------------------------------------------------
# Single-segment evolution
# ---------------------------------------------------------------------------


def test_half_exchange_swaps_modes():
    basis = _beamsplitter_basis()
    g = 0.8
    op = exchange_coupling(basis, "a", "b", rate=g)
    out = evolve_segment(op, basis.state_vector((1, 0)), duration=math.pi / (2 * g))
    assert_allclose(out, -1j * basis.state_vector((0, 1)), atol=1e-12)


def test_full_exchange_returns_with_sign():
    basis = _beamsplitter_basis()
    g = 0.8
    op = exchange_coupling(basis, "a", "b", rate=g)
    out = evolve_segment(op, basis.state_vector((1, 0)), duration=math.pi / g)
    assert_allclose(out, -basis.state_vector((1, 0)), atol=1e-12)


def test_zero_generator_is_identity():
    basis = _beamsplitter_basis()
    op = OperatorMatrix(basis, np.zeros((2, 2), dtype=complex), hermitian=True)
    state = np.array([0.6, 0.8j])
    assert_allclose(evolve_segment(op, state, 2.5), state)


def test_width_decays_norm():
    basis = enumerate_basis([photon_mode("a")], 2)
    seg = PulseSegment(duration=0.7, detunings={"a": 1.1}, widths={"a": 0.3})
    gen = segment_hamiltonian(basis, seg)
    out = evolve_segment(gen, basis.state_vector((2,)), seg.duration)
    # occupation 2 decays at 2w and rotates at 2 * detuning
    expected = math.exp(-2 * 0.3 * 0.7) * np.exp(-1j * 2 * 1.1 * 0.7)
    assert_allclose(out[0], expected, atol=1e-12)


def test_segment_hamiltonian_matrix():
    basis = _beamsplitter_basis()
    seg = PulseSegment(
        duration=1.0,
        coupling=("a", "b", 0.5),
        detunings={"b": 2.0},
        widths={"b": 0.25},
    )
    gen = segment_hamiltonian(basis, seg)
    assert not gen.hermitian
    # lexicographic sector-1 basis is [(0, 1), (1, 0)]
    expected = np.array([[2.0 - 0.25j, 0.5], [0.5, 0.0]], dtype=complex)
    assert_allclose(gen.matrix, expected)


def test_oracle_equivalence_random_generators():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        matrix = random_hermitian(rng, dim)
        if rng.random() < 0.5:
            matrix = matrix - 1j * np.diag(rng.uniform(0.0, 0.5, size=dim))
        basis = enumerate_basis([photon_mode(f"m{i}") for i in range(dim)], 1)
        hermitian = bool(np.max(np.abs(matrix - matrix.conj().T)) < 1e-14)
        gen = OperatorMatrix(basis, matrix, hermitian=hermitian)
        t = float(rng.uniform(0.1, 3.0))
        state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state /= np.linalg.norm(state)
        got = evolve_segment(gen, state, t)
        want = series_propagator(matrix, t) @ state
        assert np.max(np.abs(got - want)) < 1e-10


def test_evolution_composes():
    rng = np.random.default_rng(3)
    basis = enumerate_basis([photon_mode("a"), photon_mode("b")], 2)
    op = exchange_coupling(basis, "a", "b", rate=1.1)
    state = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    state /= np.linalg.norm(state)
    one_shot = evolve_segment(op, state, 2.3)
    two_step = evolve_segment(op, evolve_segment(op, state, 0.9), 1.4)
    assert np.max(np.abs(one_shot - two_step)) < 1e-10


def test_evolve_validation():
    basis = _beamsplitter_basis()
    op = exchange_coupling(basis, "a", "b", rate=1.0)
    with pytest.raises(ValueError):
        evolve_segment(op, np.zeros(3, dtype=complex), 1.0)
    with pytest.raises(ValueError):
        evolve_segment(op, basis.state_vector((1, 0)), -1.0)


# ---------------------------------------------------------------------------
# Schedules and trajectories
# ---------------------------------------------------------------------------


def test_segment_validation():
    with pytest.raises(ValueError):
        PulseSegment(duration=-0.1)
    with pytest.raises(ValueError):
        PulseSegment(duration=1.0, coupling=("a", "a", 1.0))
    with pytest.raises(ValueError):
        PulseSegment(duration=1.0, widths={"a": -0.2})
    seg = PulseSegment(duration=1.0, coupling=("a", "b", 1.0))
    assert seg.lossless
    lossy = PulseSegment(duration=1.0, widths={"a": 0.1})
    assert not lossy.lossless


def test_zero_widths_stay_on_the_hermitian_path(monkeypatch):
    # A None entry in sys.modules makes any import of scipy.linalg fail.
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    model = ExchangeModel()
    basis = model.basis(1)
    coupling = ("photon_1", "collective", 1.0)
    bare = PulseSegment(duration=1.3, coupling=coupling,
                        detunings={"collective": 0.5})
    bare_bytes = run_schedule([bare], basis, (1, 0, 0)).states.tobytes()
    for extra in ({"widths": {"collective": 0.0}},
                  {"widths": {"photon_1": 0.0, "collective": 0.0}}):
        seg = PulseSegment(duration=1.3, coupling=coupling,
                           detunings={"collective": 0.5}, **extra)
        assert seg.lossless
        assert segment_hamiltonian(basis, seg).hermitian
        assert run_schedule([seg], basis, (1, 0, 0)).states.tobytes() == bare_bytes
    lossy = PulseSegment(duration=1.3, coupling=coupling,
                         widths={"collective": 0.1})
    with pytest.raises(ImportError):
        run_schedule([lossy], basis, (1, 0, 0))


def test_run_schedule_vacuum_is_constant():
    model = ExchangeModel()
    basis = model.basis(0)
    schedule = three_pulse_schedule(model, rate=1.0)
    traj = run_schedule(schedule, basis, (0, 0, 0))
    assert_allclose(np.abs(traj.states), 1.0, atol=1e-12)


def test_run_schedule_three_pulse_flips_one_one():
    model = ExchangeModel()
    basis = model.basis(2)
    schedule = three_pulse_schedule(model, rate=1.0)
    final = final_state(schedule, basis, (1, 1, 0))
    assert_allclose(final, -basis.state_vector((1, 1, 0)), atol=1e-12)


def test_run_schedule_samples_and_conservation():
    model = ExchangeModel(atoms=3)
    basis = model.basis(2)
    schedule = three_pulse_schedule(model, rate=0.7)
    traj = run_schedule(schedule, basis, (1, 1, 0), samples_per_segment=16)
    assert len(traj.times) == len(traj.states)
    assert traj.times[0] == 0.0
    total_time = sum(seg.duration for seg in schedule)
    assert traj.times[-1] == pytest.approx(total_time)
    assert np.all(np.diff(traj.times) >= 0)
    # lossless schedule: norm and total quanta stay put at every sample
    assert_allclose(traj.norms, 1.0, atol=1e-12)
    number = total_quanta(basis)
    for state in traj.states:
        assert np.vdot(state, number @ state).real == pytest.approx(2.0, abs=1e-12)
    assert_allclose(traj.final_state, final_state(schedule, basis, (1, 1, 0)), atol=1e-12)


def test_trajectory_csv(tmp_path):
    model = ExchangeModel()
    basis = model.basis(1)
    schedule = [PulseSegment(duration=1.0, coupling=("photon_1", "collective", 1.0),
                             widths={"collective": 0.2})]
    traj = run_schedule(schedule, basis, (1, 0, 0), samples_per_segment=8)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,state_index,re,im,norm"
    assert len(lines) == 1 + len(traj.times) * basis.dim
    # widths make the norm column non-increasing
    norms = traj.norms
    assert np.all(np.diff(norms) <= 1e-12)
    assert norms[-1] < 1.0


def _mixed_schedule(rng, lossy):
    """Coupled, detuned segments (every second one damped when lossy),
    plus a zero-duration segment."""
    pairs = [("photon_1", "collective"), ("photon_2", "collective"),
             ("photon_1", "photon_2")]
    schedule = []
    for i, pair in enumerate(pairs):
        schedule.append(PulseSegment(
            duration=float(rng.uniform(0.5, 1.5)),
            coupling=(*pair, float(rng.uniform(0.5, 1.5))),
            detunings={"photon_1": float(rng.uniform(-1, 1)),
                       "collective": float(rng.uniform(-1, 1))},
            widths=({"collective": 0.2, "photon_2": 0.05}
                    if lossy and i % 2 == 0 else {})))
    schedule.insert(1, PulseSegment(duration=0.0, coupling=pairs[0][:2] + (1.0,)))
    return schedule


def test_lossless_samples_equal_per_sample_evolution():
    # The definition: each sample propagated by its own evolve_segment call
    # from the segment start.  Sharing one eigh per segment keeps the bytes.
    rng = np.random.default_rng(5)
    for atoms, initial, samples in ((None, (1, 1, 0), 7), (3, (2, 1, 1), 16),
                                    (None, (3, 2, 2), 1)):
        model = ExchangeModel(atoms=atoms)
        basis = model.basis(sum(initial))
        schedule = _mixed_schedule(rng, lossy=False)
        traj = run_schedule(schedule, basis, initial, samples_per_segment=samples)
        state = basis.state_vector(initial)
        times, states, t0 = [0.0], [state], 0.0
        for segment in schedule:
            gen = segment_hamiltonian(basis, segment)
            for j in range(1, samples + 1):
                dt = segment.duration * j / samples
                times.append(t0 + dt)
                states.append(evolve_segment(gen, state, dt))
            state = states[-1]
            t0 += segment.duration
        assert traj.times.tobytes() == np.array(times).tobytes()
        assert traj.states.tobytes() == np.array(states).tobytes()


def test_lossy_samples_are_stepped_within_1e_12():
    from scipy.linalg import expm

    from exchangelab.cli import MAX_GRID_COUNT

    model = ExchangeModel()
    basis = model.basis(1)
    segment = PulseSegment(duration=3.0, coupling=("photon_1", "collective", 1.3),
                           detunings={"collective": 0.4},
                           widths={"collective": 0.3, "photon_1": 0.1})
    initial = basis.state_vector((1, 0, 0))
    traj = run_schedule([segment], basis, initial,
                        samples_per_segment=MAX_GRID_COUNT)
    h = segment_hamiltonian(basis, segment).matrix
    for j, state in enumerate(traj.states[1:], start=1):
        dt = segment.duration * j / MAX_GRID_COUNT
        assert np.max(np.abs(state - expm(-1j * h * dt) @ initial)) < 1e-12
    assert traj.states[-1] == pytest.approx(
        series_propagator(h, segment.duration) @ initial, abs=1e-12)


def test_one_factorisation_per_segment(monkeypatch):
    import scipy.linalg

    calls = {"eigh": 0, "expm": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "expm",
                        counting("expm", scipy.linalg.expm))
    basis = ExchangeModel().basis(2)
    # segments 0 and 3 are damped, 2 is lossless, 1 has zero duration
    schedule = _mixed_schedule(np.random.default_rng(2), lossy=True)
    run_schedule(schedule, basis, (1, 1, 0), samples_per_segment=50)
    assert calls == {"eigh": 1, "expm": 2}
    calls.update(eigh=0, expm=0)
    transmission_scan(0.8, np.linspace(0.0, 10.0, 200))
    assert calls == {"eigh": 0, "expm": 0}
    calls.update(eigh=0, expm=0)
    phase_vs_loss(rate=1.0, detuning=0.5, width=0.2, duration=30.0)
    assert calls == {"eigh": 0, "expm": 0}


def test_columnar_csv_matches_rowwise_writer(tmp_path):
    rng = np.random.default_rng(9)
    basis = ExchangeModel(atoms=2).basis(3)
    for lossy in (False, True):
        traj = run_schedule(_mixed_schedule(rng, lossy), basis, (1, 1, 1),
                            samples_per_segment=5)
        # signed zeros and extreme magnitudes, which the formatter normalises
        traj.states[2, 0] = complex(-0.0, -0.0)
        traj.states[2, 1] = complex(-1e-300, 5e-324)
        traj.states[3, 2] = complex(1.5e150, -0.0)
        traj.states[4, 3] = complex(-0.0, 0.0)
        new, old = tmp_path / f"new{lossy}.csv", tmp_path / f"old{lossy}.csv"
        traj.to_csv(new)
        rowwise_trajectory_csv(traj, old)
        assert new.read_bytes() == old.read_bytes()
        assert ",-0," not in new.read_text()
    for bad in (complex(float("nan"), 0.0), complex(0.0, float("inf"))):
        traj.states[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            traj.to_csv(tmp_path / "bad.csv")


def test_empty_schedule_returns_initial():
    model = ExchangeModel()
    basis = model.basis(1)
    out = final_state([], basis, (1, 0, 0))
    assert_allclose(out, basis.state_vector((1, 0, 0)))


# ---------------------------------------------------------------------------
# Rabi frequencies
# ---------------------------------------------------------------------------


def _exchange_generator(sector, rate):
    basis = enumerate_basis([photon_mode("field"), collective_mode("atoms")], sector)
    return basis, exchange_coupling(basis, "field", "atoms", rate=rate)


def test_rabi_single_photon():
    g = 1.3
    basis, op = _exchange_generator(1, g)
    freq = rabi_frequency(op, (1, 0))
    assert freq == pytest.approx(2 * g, rel=1e-9)


def test_rabi_two_quanta_doubles():
    g = 1.3
    basis1, op1 = _exchange_generator(1, g)
    basis2, op2 = _exchange_generator(2, g)
    f1 = rabi_frequency(op1, (1, 0))
    f2 = rabi_frequency(op2, (1, 1))
    assert f2 == pytest.approx(4 * g, rel=1e-9)
    assert f2 / f1 == pytest.approx(2.0, abs=1e-9)


def test_rabi_requires_oscillation():
    basis = enumerate_basis([photon_mode("field")], 1)
    still = OperatorMatrix(basis, np.diag([1.5 + 0j]), hermitian=True)
    with pytest.raises(NoDynamicsError):
        rabi_frequency(still, (1,))


def test_rabi_accepts_vector_initial():
    g = 0.9
    basis, op = _exchange_generator(1, g)
    freq = rabi_frequency(op, basis.state_vector((1, 0)))
    assert freq == pytest.approx(2 * g, rel=1e-9)


def _rabi_case(kind, *args):
    """(generator, initial state) of one Rabi agreement case."""
    if kind == "bosonic":
        sector, rate, initial = args
        return _exchange_generator(sector, rate)[1], initial
    if kind == "tavis-cummings":
        atoms, initial = args
        modes = [photon_mode("field"), collective_mode("atoms", atoms)]
        basis = enumerate_basis(modes, sum(initial))
        return exchange_coupling(basis, "field", "atoms", 0.7), initial
    dim, seed = args
    basis = enumerate_basis([photon_mode(f"m{k}") for k in range(dim)], 1)
    matrix = random_hermitian(np.random.default_rng(seed), dim)
    return OperatorMatrix(basis, matrix, hermitian=True), (1,) + (0,) * (dim - 1)


_REVIVING = (
    [("bosonic", sector, rate, initial) for sector in (1, 2, 3, 4)
     for rate in (0.3, 1.3, 10.0) for initial in ((sector, 0), (sector - 1, 1))]
    + [("tavis-cummings", atoms, initial) for atoms in range(1, 9)
       for initial in ((1, 0), (2, 0), (1, 1))]
    + [("random", 2, seed) for seed in range(6)]
)


@pytest.mark.parametrize(
    "case", _REVIVING, ids=lambda case: "-".join(map(str, case)).replace(" ", ""))
def test_rabi_agrees_with_scanning_oracle(case):
    op, initial = _rabi_case(*case)
    assert rabi_frequency(op, initial) == pytest.approx(
        scanning_rabi_frequency(op, initial), rel=1e-9)


def _almost_eigenvector():
    op, _ = _rabi_case("random", 2, 0)
    _, vecs = np.linalg.eigh(op.matrix)
    return op, math.sqrt(1.0 - 1e-10) * vecs[:, 0] + 1e-5 * vecs[:, 1]


@pytest.mark.parametrize("make", [
    lambda: _rabi_case("random", 3, 0),
    lambda: _rabi_case("random", 3, 1),
    lambda: _rabi_case("random", 4, 0),
    _almost_eigenvector,
], ids=["random-3-0", "random-3-1", "random-4-0", "weight-1e-10-off-eigenvector"])
def test_rabi_and_oracle_both_find_no_revival(make):
    op, initial = make()
    with pytest.raises(NoDynamicsError):
        rabi_frequency(op, initial)
    with pytest.raises(NoDynamicsError):
        scanning_rabi_frequency(op, initial)


@pytest.mark.parametrize("spread", [1.0, 1.7, 123.4])
def test_rabi_horizon_is_64_base_periods(spread):
    basis = enumerate_basis([photon_mode(f"m{k}") for k in range(3)], 1)
    even = np.ones(3) / math.sqrt(3.0)

    def diagonal(middle):
        levels = np.diag([0.0, middle, spread]).astype(complex)
        return OperatorMatrix(basis, levels, hermitian=True)

    for probe in (rabi_frequency, scanning_rabi_frequency):
        assert probe(diagonal(spread / 64), even) == pytest.approx(
            spread / 64, rel=1e-12)
        with pytest.raises(NoDynamicsError, match="horizon"):
            probe(diagonal(spread / 65), even)


# ---------------------------------------------------------------------------
# Transmission and phase scans
# ---------------------------------------------------------------------------


def test_transmission_scan_cosine():
    g = 0.75
    durations = [0.0, math.pi / (2 * g), math.pi / g, 1.1]
    points = transmission_scan(g, durations)
    taus = [tau for tau, _ in points]
    values = [p for _, p in points]
    assert taus == durations
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert values[1] == pytest.approx(0.0, abs=1e-9)
    assert values[2] == pytest.approx(1.0, abs=1e-9)
    assert values[3] == pytest.approx(math.cos(g * 1.1) ** 2, rel=1e-9)


def test_transmission_scan_validation():
    with pytest.raises(ValueError):
        transmission_scan(0.0, [1.0])
    with pytest.raises(ValueError):
        transmission_scan(1.0, [-0.5])


def test_phase_vs_loss_no_coupling():
    phase, loss = phase_vs_loss(rate=0.0, detuning=5.0, width=0.1, duration=3.0)
    assert phase == pytest.approx(0.0, abs=1e-12)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_phase_vs_loss_dispersive_limit():
    g = 1.0
    delta = 20.0
    t = 10.0
    phase, loss = phase_vs_loss(rate=g, detuning=delta, width=0.0, duration=t)
    assert loss == pytest.approx(0.0, abs=1e-9)
    expected = g * g * t / delta
    assert phase == pytest.approx(expected, rel=0.02)


def test_phase_to_loss_ratio_approaches_half_detuning_over_width():
    # with g/detuning fixed and small, phase/loss -> detuning / (2 width);
    # the deviation shrinks as the detuning/width ratio grows
    deviations = []
    for ratio in (1e2, 1e3):
        width = 1.0
        delta = ratio * width
        g = delta / 20.0
        t = 0.5 * math.sqrt(ratio) / width
        phase, loss = phase_vs_loss(rate=g, detuning=delta, width=width, duration=t)
        deviations.append(abs(phase / loss - delta / (2 * width)) / (delta / (2 * width)))
    assert deviations[1] < deviations[0]
    assert deviations[1] < 0.05


def test_phase_vs_loss_at_the_exceptional_point():
    # Detuning 0 and width 2g make the two eigenvectors of [[0, g], [g, -2ig]]
    # coalesce; the answer must still match a 40-digit matrix exponential.
    import mpmath

    for g in (0.2, 0.7, 1.0, 2.5):
        for gt in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            duration = gt / g
            with mpmath.workdps(40):
                gm = mpmath.mpf(g)
                u = mpmath.expm(-1j * mpmath.matrix([[0, gm], [gm, -2j * gm]])
                                * mpmath.mpf(duration))
                amp = u[0, 0]
                want_loss = float(1 - abs(amp) ** 2 - abs(u[1, 0]) ** 2)
                want_phase, modulus = float(mpmath.arg(amp)), float(abs(amp))
            phase, loss = phase_vs_loss(rate=g, detuning=0.0, width=2.0 * g,
                                        duration=duration)
            assert abs(loss - want_loss) < 1e-12
            slip = math.remainder(phase - want_phase, 2 * math.pi)
            assert modulus * abs(slip) < 1e-12


def test_phase_vs_loss_validation():
    with pytest.raises(ValueError):
        phase_vs_loss(rate=1.0, detuning=1.0, width=-0.1, duration=1.0)
    with pytest.raises(ValueError):
        phase_vs_loss(rate=1.0, detuning=1.0, width=0.1, duration=-1.0)


def test_phase_vs_loss_grid_is_capped_before_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized phase grid reached _photon_amplitudes")

    monkeypatch.setattr(dynamics, "_photon_amplitudes", refuse)
    # 8 * (1e6 + 2) * 1e3 / pi ~ 2.5e9 samples
    with pytest.raises(ValueError, match=f"more than {MAX_PHASE_SAMPLES}"):
        phase_vs_loss(rate=1.0, detuning=1e6, width=0.0, duration=1e3)
    # an overflowing grid fails the same way
    with pytest.raises(ValueError, match=f"more than {MAX_PHASE_SAMPLES}"):
        phase_vs_loss(rate=1e300, detuning=0.0, width=0.0, duration=1e300)
    monkeypatch.undo()
    # the bound is inclusive: with the cap lowered to 128, a 128-step grid
    # runs and a 129-step one is refused
    monkeypatch.setattr(dynamics, "MAX_PHASE_SAMPLES", 128)
    phase, loss = phase_vs_loss(rate=1.0, detuning=0.0, width=0.0,
                                duration=128 * math.pi / 16.0)
    assert abs(loss) < 1e-12
    with pytest.raises(ValueError, match="more than 128"):
        phase_vs_loss(rate=1.0, detuning=0.0, width=0.0,
                      duration=129 * math.pi / 16.0)
