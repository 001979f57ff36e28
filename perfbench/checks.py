"""Output checks from closed forms and an independent propagator.

Nothing here calls exchangelab: the reference values come from the
paper's closed forms and from a plain scaled Taylor-series propagator, so
a check cannot pass because the package agrees with itself.  Every check
raises ``CheckFailure`` with a reason; tolerances follow the acceptance
criteria in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

import numpy as np


class CheckFailure(Exception):
    """An output disagrees with its reference."""


def _require(condition, message):
    if not condition:
        raise CheckFailure(message)


def series_expm(generator, t):
    """exp(-i * generator * t) by scaling, a Taylor series and squaring."""
    a = np.asarray(generator, dtype=complex) * (-1j * t)
    norm = float(np.linalg.norm(a, 1))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    a = a / 2.0 ** squarings
    result = np.eye(len(a), dtype=complex)
    term = np.eye(len(a), dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        result = result + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result


# --------------------------------------------------------------------------
# payload readers


def _rows(data: bytes):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _complex(pair):
    return complex(pair[0], pair[1])


# --------------------------------------------------------------------------
# gate


MODES = ("photon_1", "photon_2", "collective")


def single_quantum_transfer(segments, atoms):
    """Transfer matrix of a schedule on the one-quantum sector.

    Modes are ordered photon_1, photon_2, collective; a photon-collective
    coupling carries the empty-ladder factor sqrt(N) for N atoms.
    """
    transfer = np.eye(3, dtype=complex)
    ladder = 1.0 if atoms is None else math.sqrt(atoms)
    for seg in segments:
        h = np.zeros((3, 3), dtype=complex)
        if "coupling" in seg:
            a, b = (MODES.index(m) for m in seg["coupling"]["modes"])
            rate = seg["coupling"]["rate"]
            if "collective" in seg["coupling"]["modes"]:
                rate *= ladder
            h[a, b] = h[b, a] = rate
        for mode, shift in seg.get("detunings", {}).items():
            h[MODES.index(mode), MODES.index(mode)] += shift
        for mode, width in seg.get("widths", {}).items():
            h[MODES.index(mode), MODES.index(mode)] += -1j * width
        transfer = series_expm(h, seg["duration"]) @ transfer
    return transfer


def linear_optics_gate(t):
    """4x4 gate on |00>,|01>,|10>,|11> of a bosonized one-quantum map t."""
    gate = np.zeros((4, 4), dtype=complex)
    gate[0, 0] = 1.0
    gate[1, 1], gate[2, 1] = t[1, 1], t[0, 1]
    gate[1, 2], gate[2, 2] = t[1, 0], t[0, 0]
    gate[3, 3] = t[0, 0] * t[1, 1] + t[0, 1] * t[1, 0]
    return gate


def three_pulse_error(atoms):
    """Deviation of the finite-N three-pulse gate from diag(1,-1,1,-1)."""
    return 1.0 - math.cos(2.0 * math.pi * math.sqrt(1.0 - 1.0 / (2.0 * atoms)))


def check_gate(files, expect):
    report = json.loads(files[expect["file"]])
    atoms = expect["atoms"]
    if expect["preset"]:
        dev = report["three_pulse_deviation"]
        if atoms is None:
            _require(dev < 1e-9, f"bosonized three-pulse deviation {dev:.3e}")
        else:
            want = three_pulse_error(atoms)
            _require(abs(dev - want) <= 1e-12,
                     f"N={atoms} three-pulse deviation {dev!r}, closed form {want!r}")
    if atoms is not None:
        return
    t = single_quantum_transfer(expect["segments"], atoms)
    matrix = np.array([[_complex(x) for x in row] for row in report["matrix"]])
    err = float(np.abs(matrix - linear_optics_gate(t)).max())
    _require(err <= 1e-9, f"gate differs from linear optics by {err:.3e}")
    cross = max(abs(t[0, 1]), abs(t[1, 0]), abs(t[2, 0]), abs(t[2, 1]))
    if cross <= 1e-9:
        _require(not report["entangling"],
                 "cross-coupling-free schedule judged entangling")
        _require(abs(report["phase_defect"]) < 1e-8,
                 f"cross-coupling-free phase defect {report['phase_defect']:.3e}")


def check_gate_sweep(files, expect):
    rows = _rows(files[expect["file"]])
    _require(len(rows) == len(expect["values"]), "sweep row count")
    for row, atoms in zip(rows, expect["values"]):
        _require(row["status"] == "ok", f"sweep point N={atoms}: {row['status']}")
        dev, want = float(row["deviation"]), three_pulse_error(atoms)
        _require(abs(dev - want) <= 1e-12,
                 f"N={atoms} deviation {dev!r}, closed form {want!r}")


# --------------------------------------------------------------------------
# simulate


def check_transmission(files, expect):
    rows = _rows(files[expect["file"]])
    _require(len(rows) == expect["count"], "transmission row count")
    g = expect["rate"]
    worst = max(abs(float(r["survival"]) - math.cos(g * float(r["duration"])) ** 2)
                for r in rows)
    _require(worst <= 1e-9, f"survival differs from cos^2(g tau) by {worst:.3e}")


def check_trajectory(files, expect):
    rows = _rows(files[expect["file"]])
    dim, samples = expect["dim"], expect["samples"]
    _require(len(rows) == dim * samples, f"trajectory has {len(rows)} rows, "
             f"expected {dim * samples}")
    norms = []
    for i in range(samples):
        block = rows[i * dim:(i + 1) * dim]
        norm = math.sqrt(sum(float(r["re"]) ** 2 + float(r["im"]) ** 2 for r in block))
        worst = max(abs(float(r["norm"]) - norm) for r in block)
        _require(worst <= 1e-12, f"sample {i}: norm column off by {worst:.3e}")
        norms.append(norm)
    _require(abs(norms[0] - 1.0) <= 1e-12, f"initial norm {norms[0]!r}")
    if expect["lossy"]:
        rise = max(b - a for a, b in zip(norms, norms[1:]))
        _require(rise <= 1e-10, f"lossy norm rises by {rise:.3e}")
    else:
        drift = max(abs(n - 1.0) for n in norms)
        _require(drift <= 1e-10, f"lossless norm drifts by {drift:.3e}")


# --------------------------------------------------------------------------
# five-pulse


def check_five_pulse(files, expect):
    rows = _rows(files[expect["table"]])
    _require(len(rows) == expect["count"], "five-pulse row count")
    for row in rows:
        theta = float(row["theta"])
        p2, pe, pr = (float(row[k]) for k in
                      ("p_two_photon", "p_two_excitation", "p_return"))
        _require(abs(p2 + pe + pr - 1.0) <= 1e-9,
                 f"theta={theta}: populations sum to {p2 + pe + pr!r}")
        if expect["atoms"] is None:
            _require(abs(p2 - math.sin(2 * theta) ** 2 / 2) <= 1e-9
                     and abs(pr - math.cos(2 * theta) ** 2) <= 1e-9,
                     f"theta={theta}: closed forms sin^2(2t)/2, cos^2(2t) missed")
    report = json.loads(files[expect["report"]])
    atoms = expect["atoms"]
    want = 1.0 if atoms is None else math.sqrt(atoms / (atoms - 1.0))
    got = report["emission_absorption_ratio"]
    _require(abs(got - want) <= 1e-12 * want,
             f"emission/absorption {got!r}, expected {want!r}")


# --------------------------------------------------------------------------
# perturbation


def _cross_check(cross, path_scale, selector, width, delta):
    """|cross|/path_scale <= 1e-10 unless widths sit on exchanged levels."""
    if selector != "exchanged-photon-ground-states" or width == 0.0:
        rel = abs(cross) / path_scale
        _require(rel <= 1e-10, f"{selector}: |cross|/path_scale = {rel:.3e}")
        return
    ratio, want = abs(cross.imag / cross.real), delta / width
    _require(abs(ratio - want) <= 0.2 * want,
             f"exchanged rule: |Im/Re| = {ratio:.4g}, delta/w = {want:.4g}")


def check_perturb(files, expect):
    report = json.loads(files[expect["file"]])
    _cross_check(_complex(report["cross_coefficient"]), report["path_scale"],
                 expect["selector"], expect["width"], expect["delta"])


def check_perturb_sweep(files, expect):
    rows = _rows(files[expect["file"]])
    _require(len(rows) == len(expect["widths"]), "sweep row count")
    for row, width in zip(rows, expect["widths"]):
        _require(row["status"] == "ok", f"sweep point {row['value']}: {row['status']}")
        cross = complex(float(row["cross_re"]), float(row["cross_im"]))
        _cross_check(cross, float(row["path_scale"]), expect["selector"],
                     width, expect["delta"])


# --------------------------------------------------------------------------
# rates


EPS0, HBAR = 8.8541878128e-12, 1.054571817e-34


def check_rates(files, expect):
    p = expect["params"]
    rows = _rows(files[expect["table"]])
    _require(len(rows) == len(p["density"]) * len(p["wavenumber"]),
             "regime map row count")
    for row in rows:
        rho, k = float(row["density"]), float(row["wavenumber"])
        coop = math.sqrt(rho * p["omega"] / (EPS0 * HBAR)) * p["dipole"] \
            * p["rabi"] / p["detuning"]
        dominant = max(p["gamma"] * rho / k ** 3, 1.0 / p["t2"])
        regime = "high-density" if rho / k ** 3 >= 1.0 else "low-density"
        _require(row["regime"] == regime, f"rho={rho}, k={k}: regime {row['regime']}")
        for name, want in (("cooperative_rate", coop), ("dominant_rate", dominant)):
            got = float(row[name])
            _require(abs(got - want) <= 1e-12 * want, f"{name} {got!r}, expected {want!r}")


# --------------------------------------------------------------------------
# direct probes


def check_rabi(result, expect):
    ratio = result[1] / result[0]
    _require(abs(ratio - 2.0) < 1e-6, f"two-quanta/one-quantum frequency {ratio!r}")


def photon_amplitude(rate, detuning, width, duration):
    """Survival amplitude and loss of the detuned, broadened two-level problem."""
    h = np.array([[0.0, rate], [rate, detuning - 1j * width]])
    psi = series_expm(h, duration)[:, 0]
    return complex(psi[0]), float(1.0 - np.vdot(psi, psi).real)


def phase_loss_error(result, expect):
    """Largest deviation of (phase, loss) pairs from the reference.

    The phase error is weighted by the amplitude modulus, so it measures
    the amplitude error it implies and stays meaningful where the survival
    amplitude vanishes.
    """
    worst = 0.0
    for (phase, loss), duration in zip(result, expect["durations"]):
        amp, ref_loss = photon_amplitude(expect["rate"], expect["detuning"],
                                         expect["width"], duration)
        slip = abs(math.remainder(phase - cmath.phase(amp), 2.0 * math.pi))
        worst = max(worst, abs(loss - ref_loss), abs(amp) * slip)
    return worst


def check_phase_loss(result, expect):
    """Agreement with the reference to 1e-10 (criterion 10's tolerance).

    At the exceptional point (detuning 0, width 2 * rate) the deviation is
    recorded as a measurement instead: the package's eigenvector route is
    known to lose accuracy there, and the benchmark reports by how much.
    """
    err = phase_loss_error(result, expect)
    if not expect["exceptional"]:
        _require(err <= 1e-10, f"phase/loss differ from the propagator by {err:.3e}")
    return err


CHECKS = {
    "gate": check_gate,
    "gate-sweep": check_gate_sweep,
    "transmission": check_transmission,
    "schedule-run": check_trajectory,
    "five-pulse": check_five_pulse,
    "perturb": check_perturb,
    "perturb-sweep": check_perturb_sweep,
    "rates": check_rates,
    "rabi": check_rabi,
    "phase-vs-loss": check_phase_loss,
}
