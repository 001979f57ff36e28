"""Property tests of the closed-form two-level propagator.

``transmission_scan`` and ``phase_vs_loss`` evolve one photon coupled at
rate g to a collective state with diagonal detuning - i width, through
``dynamics._photon_amplitudes``.  Its amplitudes, and ``phase_vs_loss``'s
(phase, loss), are checked against the Taylor-series oracle at random
parameters, and against a 50-digit ``mpmath`` exponential next to the
exceptional point (detuning 0, width 2g), on overdamped runs with
width * duration up to 1e4, where a direct sin/cos form overflows, and on
dispersive runs with detuning / width up to 1e4.

Runs are derandomised, so the suite draws the same cases every time.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchangelab import dynamics
from exchangelab.dynamics import phase_vs_loss, transmission_scan
from oracles import series_propagator

TOLERANCE = 1e-12

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)

rates = st.floats(0.05, 3.0)
detunings = st.floats(-5.0, 5.0)
widths = st.floats(0.0, 5.0)
durations = st.floats(0.0, 10.0)


def _generator(rate, detuning, width):
    return np.array([[0.0, rate], [rate, detuning - 1j * width]])


def _mp_reference(rate, detuning, width, duration):
    """Photon and collective amplitudes and loss from a 50-digit expm."""
    with mpmath.workdps(50):
        g = mpmath.mpf(rate)
        h = mpmath.matrix([[0, g], [g, mpmath.mpf(detuning) - 1j * mpmath.mpf(width)]])
        u = mpmath.expm(-1j * h * mpmath.mpf(duration))
        loss = 1 - abs(u[0, 0]) ** 2 - abs(u[1, 0]) ** 2
        return complex(u[0, 0]), complex(u[1, 0]), float(loss)


def _assert_phase_and_loss(phase, loss, photon, want_loss):
    assert math.isfinite(phase) and math.isfinite(loss)
    assert abs(loss - want_loss) < TOLERANCE
    slip = math.remainder(phase - cmath.phase(photon), 2.0 * math.pi)
    assert abs(photon) * abs(slip) < TOLERANCE


def _assert_amplitudes(rate, detuning, width, times, columns):
    photon, collective = dynamics._photon_amplitudes(
        rate, detuning - 1j * width, times)
    assert photon.shape == collective.shape == (len(times),)
    for a, b, (want_a, want_b) in zip(photon, collective, columns):
        assert abs(a - want_a) < TOLERANCE
        assert abs(b - want_b) < TOLERANCE


@_SETTINGS
@given(rates, detunings, widths, st.lists(durations, min_size=1, max_size=6))
def test_amplitudes_match_the_series_propagator(rate, detuning, width, times):
    h = _generator(rate, detuning, width)
    _assert_amplitudes(rate, detuning, width, times,
                       [series_propagator(h, t)[:, 0] for t in times])


@_SETTINGS
@given(rates, detunings, widths, st.floats(0.01, 10.0))
def test_phase_and_loss_match_the_series_propagator(rate, detuning, width, duration):
    photon, collective = series_propagator(_generator(rate, detuning, width),
                                           duration)[:, 0]
    phase, loss = phase_vs_loss(rate, detuning, width, duration)
    _assert_phase_and_loss(phase, loss, photon,
                           1.0 - abs(photon) ** 2 - abs(collective) ** 2)


# width = 2g (1 + eps): at eps = 0 the generator's eigenvectors coalesce and
# Omega = 0; at eps = +-1e-9 and +-1e-5 Omega is tiny but not zero.
near_exceptional_point = st.tuples(
    rates,
    st.sampled_from([0.0, 1e-9, -1e-9, 1e-5, -1e-5]),
    st.floats(0.05, 20.0),
).map(lambda c: (c[0], 0.0, 2.0 * c[0] * (1.0 + c[1]), c[2] / c[0]))

# overdamped (width well above 2g) and long: width * duration from 1e3 to 1e4
overdamped = st.tuples(
    st.floats(0.1, 3.0),
    st.floats(-2.0, 2.0),
    st.floats(1.5, 50.0),
    st.floats(1e3, 1e4),
).map(lambda c: (c[0], c[1], 2.0 * c[0] * c[2], c[3] / (2.0 * c[0] * c[2])))


def _dispersive(case):
    """Criterion 9's probe: g = detuning / 20, duration at the geometric
    mean of the phase and loss timescales."""
    ratio, sign, width = case
    detuning = sign * ratio * width
    rate = 0.05 * ratio * width
    loss_rate = rate * rate * width / (detuning * detuning + width * width)
    return rate, detuning, width, 1.0 / math.sqrt(2.0 * width * loss_rate)


# detuning / width from 1e2 to 1e4: the dressed energy mu + Omega is a small
# difference of two large terms
dispersive = st.tuples(
    st.floats(2.0, 4.0).map(lambda e: 10.0 ** e),
    st.sampled_from([1.0, -1.0]),
    st.floats(0.1, 3.0),
).map(_dispersive)


@pytest.mark.parametrize("cases", [near_exceptional_point, overdamped, dispersive],
                         ids=["near-exceptional-point", "overdamped", "dispersive"])
def test_closed_form_matches_mpmath(cases):
    @settings(_SETTINGS, max_examples=40)
    @given(cases)
    def check(case):
        want_a, want_b, want_loss = _mp_reference(*case)
        _assert_amplitudes(*case[:3], [case[3]], [(want_a, want_b)])
        phase, loss = phase_vs_loss(*case)
        _assert_phase_and_loss(phase, loss, want_a, want_loss)

    check()


@pytest.mark.parametrize("case", [(1.0, 0.0, 100.0, 20.0), (1.0, 0.0, 200.0, 30.0),
                                  (1.0, 5.0, 300.0, 10.0)])
def test_phase_vs_loss_stays_finite_at_large_width_times_duration(case):
    # sin and cos of a complex Omega t overflow here (w t up to 6000)
    want_a, _, want_loss = _mp_reference(*case)
    phase, loss = phase_vs_loss(*case)
    _assert_phase_and_loss(phase, loss, want_a, want_loss)


@pytest.mark.parametrize("scale", [1e-200, 1e-155, 1e155, 1e200])
def test_rates_whose_square_leaves_the_double_range(scale):
    # only g t, detuning t and width t matter; g^2 overflows or underflows
    [(_, survival)] = transmission_scan(scale, [1.0 / scale])
    assert abs(survival - math.cos(1.0) ** 2) < TOLERANCE
    phase, loss = phase_vs_loss(scale, 0.5 * scale, 0.3 * scale, 2.0 / scale)
    want_phase, want_loss = phase_vs_loss(1.0, 0.5, 0.3, 2.0)
    assert abs(phase - want_phase) < TOLERANCE
    assert abs(loss - want_loss) < TOLERANCE
