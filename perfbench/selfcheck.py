"""Check the benchmark itself, at tiny sizes (a few minutes).

    python3 perfbench/selfcheck.py

1. Every workload, untraced and traced, prints every metric that
   BENCHMARK.json names, with the unit it names, and reports correct.
2. The output checker accepts the real payload of one request of each type
   and rejects the same payload with one checked number corrupted.

Not part of the test suite: it runs the benchmark, which takes time.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got.items())}"
                                f" differ from BENCHMARK.json {sorted(want.items())}")
            if not last["correct"]:
                problems.append(f"{workload} trace={trace}: not correct")
            print(f"{workload} trace={trace}: {len(got)} metrics printed", flush=True)
    return problems


def _bump(value):
    return float(value) + 1e-3 + 1e-6 * abs(float(value))


def _bump_csv(data, column):
    rows = list(csv.reader(io.StringIO(data.decode())))
    row = rows[(len(rows) + 1) // 2]
    index = rows[0].index(column)
    row[index] = repr(_bump(row[index]))
    return ("\n".join(",".join(r) for r in rows) + "\n").encode()


def _bump_json(data, path):
    doc = json.loads(data)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = _bump(target[last])
    return json.dumps(doc).encode()


# request type -> (payload file key in expect, how to corrupt it)
CORRUPT = {
    "gate": ("file", lambda d: _bump_json(d, ["matrix", 1, 1, 0])),
    "gate-sweep": ("file", lambda d: _bump_csv(d, "deviation")),
    "transmission": ("file", lambda d: _bump_csv(d, "survival")),
    "schedule-run": ("file", lambda d: _bump_csv(d, "norm")),
    "five-pulse": ("table", lambda d: _bump_csv(d, "p_return")),
    "perturb": ("file", lambda d: _bump_json(d, ["cross_coefficient", 1])),
    "perturb-sweep": ("file", lambda d: _bump_csv(d, "cross_im")),
    "rates": ("table", lambda d: _bump_csv(d, "dominant_rate")),
}


def corrupted(request, outputs):
    if request.rtype == "rabi":
        return [outputs[0], _bump(outputs[1])]
    if request.rtype == "phase-vs-loss":
        return [(phase, _bump(loss)) for phase, loss in outputs]
    key, bump = CORRUPT[request.rtype]
    name = request.expect[key]
    return dict(outputs, **{name: bump(outputs[name])})


def checker_rejects_corruption():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import checks
    import workloads
    from worker import Client

    work = ROOT / ".perfbench-out" / "selfcheck"
    for sub in ("dynamics", "perturb", "cold"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(1)
    pools = (workloads.dynamics_mix(rng, work / "dynamics", tiny=True)
             + workloads.perturb_sweep(rng, work / "perturb", 2, tiny=True)
             + workloads.cli_cold(rng, work / "cold", ROOT / "scenarios"))
    seen, problems = set(), []
    client = Client(cold=False, cpus=sorted(os.sched_getaffinity(0)))
    for request in pools:
        if request.rtype in seen or request.expect.get("exceptional"):
            continue
        seen.add(request.rtype)
        _seconds, result = client.execute(request, None)
        outputs = client.outputs(request, result)
        checks.CHECKS[request.rtype](outputs, request.expect)  # real payload passes
        try:
            checks.CHECKS[request.rtype](corrupted(request, outputs), request.expect)
        except checks.CheckFailure as exc:
            print(f"{request.rtype}: corrupted payload rejected ({exc})")
        else:
            problems.append(f"{request.rtype}: corrupted payload accepted")
    missing = set(checks.CHECKS) - seen
    if missing:
        problems.append(f"no request exercised the checks for {sorted(missing)}")
    return problems


def main():
    problems = checker_rejects_corruption() + metric_names()
    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
