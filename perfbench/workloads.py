"""Seeded request pools for the three workloads.

A workload is a fixed list of request *slots*.  The slot list fixes the
amount of work (basis sectors, samples, grid lengths, atom counts); the
seed draws everything else (rates, detunings, widths, schedules, atom
counts where they do not change the basis size, initial states).  So a
different seed asks different physics of the same size, and run-to-run
spread measures the machine rather than the draw.  Runs replay the pool in
whole passes, each pass in a fresh seeded order.

Each request carries what its checker needs (``expect``), derived from the
generated scenario document alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

MODES = ("photon_1", "photon_2", "collective")
SELECTORS = ("none", "excited-atom-states", "exchanged-photon-ground-states")


@dataclass
class Request:
    """One closed-loop request: a CLI call (argv) or a direct probe call."""

    rtype: str
    expect: dict
    argv: Optional[list] = None
    probe: Optional[str] = None
    args: dict = field(default_factory=dict)
    out: Optional[Path] = None


# --------------------------------------------------------------------------
# check metadata derived from a scenario document


def _count(spec):
    if isinstance(spec, list):
        return len(spec)
    if isinstance(spec, dict):
        return int(spec["count"])
    return 1


def _atoms(doc):
    model = doc.get("model", {"type": "bosonized"})
    return model.get("atoms") if model.get("type") == "tavis-cummings" else None


def _sector_dim(sector, atoms):
    cap = sector if atoms is None else min(atoms, sector)
    return sum(sector - c + 1 for c in range(cap + 1))


def _three_pulse(rate, atoms):
    g_eff = rate * (1.0 if atoms is None else math.sqrt(atoms))
    t_pi = 0.5 * math.pi / g_eff
    return [{"duration": d, "coupling": {"modes": [p, "collective"], "rate": rate}}
            for d, p in ((t_pi, "photon_1"), (2 * t_pi, "photon_2"),
                         (t_pi, "photon_1"))]


def _perturb_expect(params):
    rule = params["rule"]
    delta = params.get("delta", 0.5 * (params["delta_1"] + params["delta_2"]))
    return {"selector": rule["selector"], "width": float(rule.get("width", 0.0)),
            "delta": delta}


def expect_for(doc):
    """(request type, checker facts) for a scenario document."""
    kind, out = doc["kind"], doc.get("output", {})
    params = doc.get("parameters", {})
    if kind == "gate":
        atoms, schedule = _atoms(doc), doc["schedule"]
        preset = "preset" in schedule
        segments = (_three_pulse(schedule.get("rate", 1.0), atoms) if preset
                    else schedule["segments"])
        return "gate", {"file": out.get("report", "gate.json"), "atoms": atoms,
                        "preset": preset, "segments": segments}
    if kind == "simulate" and params["experiment"] == "transmission":
        return "transmission", {"file": out.get("scan", "transmission.csv"),
                                "rate": params.get("rate", 1.0),
                                "count": _count(params["durations"])}
    if kind == "simulate":
        segments = doc["schedule"]["segments"]
        spp = params.get("samples_per_segment", 32)
        return "schedule-run", {
            "file": out.get("trajectory", "trajectory.csv"),
            "dim": _sector_dim(sum(params["initial"]), _atoms(doc)),
            "samples": len(segments) * spp + 1,
            "lossy": any(seg.get("widths") for seg in segments)}
    if kind == "five-pulse":
        return "five-pulse", {"table": out.get("table", "five_pulse.csv"),
                              "report": out.get("report", "five_pulse.json"),
                              "atoms": _atoms(doc), "count": _count(params["theta"])}
    if kind == "perturb":
        return "perturb", dict(_perturb_expect(params),
                               file=out.get("report", "perturbation.json"))
    if kind == "rates":
        lists = {k: (v if isinstance(v, list) else [v]) for k, v in params.items()
                 if k in ("density", "wavenumber")}
        return "rates", {"table": out.get("table", "regime_map.csv"),
                         "params": dict(params, **lists)}
    base, values = params["base"], params["values"]
    file = out.get("table", "sweep.csv")
    if base["kind"] == "gate":
        return "gate-sweep", {"file": file, "values": values}
    facts = _perturb_expect(base["parameters"])
    widths = (values if params["parameter"] == "parameters.rule.width"
              else [facts["width"]] * len(values))
    return "perturb-sweep", dict(facts, file=file, widths=widths)


def cli_request(doc, path: Path, out: Path, extra=()):
    """Write the scenario document and build the matching CLI request."""
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    command = doc["kind"]
    rtype, expect = expect_for(doc)
    argv = [command, "--scenario", str(path), "--out", str(out), *extra]
    return Request(rtype=rtype, expect=expect, argv=argv, out=out)


# --------------------------------------------------------------------------
# random physics


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _segment(rng, *, lossy):
    seg = {"duration": _u(rng, 0.2, 2.0)}
    if rng.random() < 0.85:
        pair = [("photon_1", "collective"), ("photon_2", "collective"),
                ("photon_1", "photon_2")][int(rng.integers(3))]
        seg["coupling"] = {"modes": list(pair), "rate": _u(rng, 0.3, 2.0)}
    if rng.random() < 0.6:
        seg["detunings"] = {m: _u(rng, -1.0, 1.0) for m in MODES if rng.random() < 0.6}
    if lossy:
        seg["widths"] = {m: _u(rng, 0.02, 0.4) for m in MODES if rng.random() < 0.5}
        seg["widths"] = seg["widths"] or {"collective": _u(rng, 0.02, 0.4)}
    return seg


def _free_schedule(rng, count):
    return [_segment(rng, lossy=rng.random() < 0.3) for _ in range(count)]


def _pi_time(rate):
    return 0.5 * math.pi / rate


def _product_schedule(rng):
    """Blocks that map every single quantum to a phase multiple of itself.

    Full exchange cycles, detuning holds (photon widths allowed) and
    pi-flanked sandwiches: a bosonized gate built from them has no
    photon_1/photon_2 cross-coupling and must come out non-entangling.
    """
    def cycle(photon):
        rate = _u(rng, 0.5, 2.0)
        return [{"duration": 2 * _pi_time(rate) * int(rng.integers(1, 3)),
                 "coupling": {"modes": [photon, "collective"], "rate": rate}}]

    def hold():
        seg = {"duration": _u(rng, 0.1, 2.0),
               "detunings": {m: _u(rng, -1.0, 1.0) for m in MODES}}
        if rng.random() < 0.5:
            seg["widths"] = {"photon_1": _u(rng, 0.0, 0.3),
                             "photon_2": _u(rng, 0.0, 0.3)}
        return [seg]

    def sandwich():
        photon, other = ("photon_1", "photon_2")[::1 if rng.random() < 0.5 else -1]
        rate = _u(rng, 0.5, 2.0)
        flank = {"duration": _pi_time(rate),
                 "coupling": {"modes": [photon, "collective"], "rate": rate}}
        middle = cycle(other) if rng.random() < 0.5 else hold()
        return [flank, *middle, flank]

    blocks = [lambda: cycle(MODES[int(rng.integers(2))]), hold, sandwich]
    schedule = []
    for index in rng.permutation(3):
        schedule.extend(blocks[index]())
    return schedule


def _model(atoms):
    if atoms is None:
        return {"type": "bosonized"}
    return {"type": "tavis-cummings", "atoms": int(atoms)}


def _initial(rng, sector):
    cuts = np.sort(rng.integers(0, sector + 1, size=2))
    return [int(cuts[0]), int(cuts[1] - cuts[0]), int(sector - cuts[1])]


# --------------------------------------------------------------------------
# dynamics-mix


# (sector, samples per segment, lossy): quanta up to 12 (dim 91).
SCHEDULE_SLOTS = ((1, 128, False), (2, 64, True), (4, 128, False), (6, 16, True),
                  (8, 64, False), (10, 32, True), (12, 16, False), (12, 32, True))
TINY_SCHEDULE_SLOTS = ((1, 16, False), (2, 16, True))
# Each slot is drawn this many times, so one run averages the cost of a
# slot over several draws of its physics instead of replaying one.
DRAWS = 3


def _trajectory_schedule(rng, lossy):
    """Three segments coupling the three mode pairs in a seeded order.

    Every segment couples and detunes, so every basis state is reached and
    the cost of a run depends on its size, not on which states stay empty.
    """
    pairs = [("photon_1", "collective"), ("photon_2", "collective"),
             ("photon_1", "photon_2")]
    segments = []
    for i in rng.permutation(3):
        segments.append({
            "duration": _u(rng, 0.5, 1.5),
            "coupling": {"modes": list(pairs[i]), "rate": _u(rng, 0.5, 1.5)},
            "detunings": {m: _u(rng, -1.0, 1.0) for m in MODES}})
    if lossy:
        segments[1]["widths"] = {m: _u(rng, 0.05, 0.3) for m in MODES}
    return segments


def _dynamics_docs(rng, tiny):
    docs = []
    rate = lambda: _u(rng, 0.3, 3.0)  # noqa: E731
    tc_atoms = lambda: int(rng.integers(2, 65))  # noqa: E731
    docs.append({"kind": "gate", "model": _model(None),
                 "schedule": {"preset": "three-pulse", "rate": rate()}})
    for _ in range(1 if tiny else 2):
        docs.append({"kind": "gate", "model": _model(tc_atoms()),
                     "schedule": {"preset": "three-pulse", "rate": rate()}})
    for _ in range(1 if tiny else 2):
        docs.append({"kind": "gate", "model": _model(None),
                     "schedule": {"segments": _product_schedule(rng)}})
        docs.append({"kind": "gate", "model": _model(None),
                     "schedule": {"segments": _free_schedule(rng, 6)}})
    docs.append({"kind": "gate", "model": _model(tc_atoms()),
                 "schedule": {"segments": _free_schedule(rng, 6)}})
    for sector, samples, lossy in (TINY_SCHEDULE_SLOTS if tiny else SCHEDULE_SLOTS):
        docs.append({"kind": "simulate", "model": _model(None),
                     "schedule": {"segments": _trajectory_schedule(rng, lossy)},
                     "parameters": {"experiment": "schedule-run",
                                    "initial": _initial(rng, sector),
                                    "samples_per_segment": samples}})
    for count in ((16,) if tiny else (128, 512)):
        g = rate()
        docs.append({"kind": "simulate", "parameters": {
            "experiment": "transmission", "rate": g,
            "durations": {"start": 0.0, "stop": _u(rng, 2.0, 8.0) * math.pi / g,
                          "count": count}}})
    for atoms in (None, tc_atoms()):
        docs.append({"kind": "five-pulse", "model": _model(atoms), "parameters": {
            "rate": rate(), "theta": {"start": 0.0, "stop": _u(rng, 0.5, 2.0) * math.pi,
                                      "count": 8 if tiny else 64}}})
    return docs


def _probes(rng):
    requests = [Request(rtype="rabi", expect={}, probe="rabi",
                        args={"rate": _u(rng, 0.2, 3.0)})]
    # One probe sits exactly on the exceptional point detuning 0, width 2g.
    for exceptional in (True, False):
        g = _u(rng, 0.2, 3.0)
        detuning, width = (0.0, 2.0 * g) if exceptional else (
            _u(rng, -3.0, 3.0), _u(rng, 0.0, 3.0))
        durations = sorted(_u(rng, 0.1, 10.0) / g for _ in range(8))
        args = {"rate": g, "detuning": detuning, "width": width,
                "durations": durations}
        requests.append(Request(rtype="phase-vs-loss", probe="phase_vs_loss",
                                args=args, expect=dict(args, exceptional=exceptional)))
    return requests


def dynamics_mix(rng, work: Path, tiny=False):
    requests = []
    for _ in range(1 if tiny else DRAWS):
        for doc in _dynamics_docs(rng, tiny):
            i = len(requests)
            requests.append(cli_request(doc, work / f"scenario-{i}.yaml",
                                        work / f"out-{i}"))
        requests.extend(_probes(rng))
    return requests


def _sweep_base(rng, selector):
    delta_1 = _u(rng, 0.5, 2.0)
    # delta_2 / delta_1 in [0.6, 0.95] keeps every denominator (delta_1,
    # delta_2, delta_1 - delta_2, delta_1 + delta_2, ...) far from zero.
    delta_2 = delta_1 * _u(rng, 0.6, 0.95)
    reference = 0.5 * (delta_1 + delta_2)
    width = {"none": 0.0,
             "excited-atom-states": _u(rng, 1e-3, 0.1) * reference,
             "exchanged-photon-ground-states": _u(rng, 1e-3, 1e-2) * reference,
             }[selector]
    params = {"coupling": _u(rng, 0.02, 0.1), "atoms": 2,
              "delta_1": delta_1, "delta_2": delta_2,
              "rule": {"selector": selector}}
    if width:
        params["width"] = width
        params["rule"]["width"] = width
    return {"kind": "perturb", "parameters": params}


# --------------------------------------------------------------------------
# perturb-sweep

# Atom counts per sweep request: a small and a large count, the large one
# stepping through 3..20, so request costs (~N^5 in the large count) form a
# fine ladder and the tail does not sit on a jump between sizes.  The six
# smallest sweeps come three more times: the median then falls among many
# cheap samples (small N) and the tail among the large N.
_LADDER = tuple((top // 2 + 1, top) for top in range(3, 21))
ATOM_SLOTS = _LADDER + 3 * _LADDER[:6]
TINY_ATOM_SLOTS = ((2, 3), (3, 4), (2, 4))


def perturb_sweep(rng, work: Path, nproc: int, tiny=False):
    requests = []
    offset = int(rng.integers(3))
    for i, atoms in enumerate(TINY_ATOM_SLOTS if tiny else ATOM_SLOTS):
        selector = SELECTORS[(i + offset) % 3]
        doc = {"kind": "sweep", "parameters": {
            "parameter": "parameters.atoms", "values": list(atoms),
            "base": _sweep_base(rng, selector)}}
        requests.append(cli_request(doc, work / f"scenario-{i}.yaml",
                                    work / f"out-{i}",
                                    extra=("--parallel", str(nproc))))
    return requests


# --------------------------------------------------------------------------
# cli-cold


def _variants(rng, documented):
    """Seeded variants of each documented scenario, small enough that the
    interpreter start-up, not the computation, dominates a cold request."""
    out = []
    for name, doc in documented:
        doc = yaml.safe_load(yaml.safe_dump(doc))
        params = doc.get("parameters", {})
        kind = doc["kind"]
        if kind == "gate":
            doc["schedule"]["rate"] = _u(rng, 0.3, 3.0)
            if "atoms" in doc.get("model", {}):
                doc["model"]["atoms"] = int(rng.integers(2, 65))
        elif kind == "simulate" and params["experiment"] == "transmission":
            params["rate"] = _u(rng, 0.3, 3.0)
            params["durations"]["stop"] = _u(rng, 2.0, 8.0) * math.pi / params["rate"]
        elif kind == "simulate":
            # the lossy variant: widths send the hold segment through expm
            sector = int(rng.integers(1, 4))
            doc["schedule"]["segments"] = [_segment(rng, lossy=i == 1)
                                           for i in range(3)]
            params["initial"] = _initial(rng, sector)
        elif kind == "five-pulse":
            params["rate"] = _u(rng, 0.3, 3.0)
            params["theta"]["stop"] = _u(rng, 0.5, 2.0) * math.pi
        elif kind == "perturb":
            selector = params["rule"]["selector"]
            doc = _sweep_base(rng, selector)
            doc["parameters"]["atoms"] = int(rng.integers(2, 7))
            doc["output"] = {"report": f"{name}.json"}
        elif kind == "rates":
            params["density"] = [float(10 ** _u(rng, 20, 26)) for _ in range(3)]
            params["wavenumber"] = float(8e6 * _u(rng, 0.5, 2.0))
            for key in ("omega", "dipole", "detuning", "rabi", "gamma", "t2"):
                params[key] = float(params[key] * _u(rng, 0.8, 1.25))
        elif params["base"]["kind"] == "gate":
            params["values"] = sorted(int(n) for n in rng.integers(2, 65, size=4))
            params["base"]["schedule"]["rate"] = _u(rng, 0.3, 3.0)
        else:
            base = _sweep_base(rng, "exchanged-photon-ground-states")
            reference = 0.5 * (base["parameters"]["delta_1"]
                               + base["parameters"]["delta_2"])
            base["parameters"]["atoms"] = int(rng.integers(2, 5))
            base["parameters"]["rule"]["width"] = 0.0
            base["parameters"].pop("width", None)
            params["base"] = base
            params["values"] = [0.0] + [_u(rng, 1e-3, 1e-2) * reference
                                        for _ in range(3)]
        out.append((f"{name}-variant", doc))
    return out


def cli_cold(rng, work: Path, scenarios: Path, tiny=False):
    documented = [(p.stem, yaml.safe_load(p.read_text()))
                  for p in sorted(scenarios.glob("*.yaml"))]
    if not documented:
        raise FileNotFoundError(f"no documented scenarios in {scenarios}")
    if tiny:
        documented = [d for d in documented if d[1]["kind"] in ("gate", "simulate")]
    requests = []
    for i, (name, doc) in enumerate(documented + _variants(rng, documented)):
        requests.append(cli_request(doc, work / f"scenario-{i}-{name}.yaml",
                                    work / f"out-{i}"))
    return requests


def warmups(requests):
    """The first request of each type: run once, untimed, during set-up."""
    seen, out = set(), []
    for request in requests:
        if request.rtype not in seen:
            seen.add(request.rtype)
            out.append(request)
    return out
