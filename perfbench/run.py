"""exchangelab benchmark: one command per workload, from the repository root.

    python3 perfbench/run.py --workload dynamics-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around every public function of the package and
prints the per-layer metrics instead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Set-up is timed from the start of a fresh worker interpreter to the moment
it has imported ``exchangelab.cli`` and run one warm-up request of each
type; it is sampled ``SETUP_SAMPLES`` times and the median reported.  The
last worker then runs the timed closed loop (see ``worker.py``).  Outputs
and spans go to ``.perfbench-out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREADS:  # before numpy loads; --parallel must not oversubscribe
    os.environ[_name] = "1"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import speed  # noqa: E402
WORKLOADS = ("cli-cold", "dynamics-mix", "perturb-sweep")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed, nproc):
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        **versions,
        "blas": [blas.get("name"), blas.get("version")],
        "blas_threads": {name: os.environ[name] for name in BLAS_THREADS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def start_worker(args, mode, work, deadline):
    """Start a worker; returns (process, (wall, reference-speed) seconds until
    it printed READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--work", str(work),
           "--cpus", ",".join(map(str, args.cpus))]
    if args.tiny:
        cmd.append("--tiny")
    pinned = sorted(os.sched_getaffinity(0))
    before = speed.reference_loop(pinned)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    ready = (ready, speed.at_reference_speed(ready, before,
                                             speed.reference_loop(pinned)))
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        fail(f"worker did not become ready (mode {mode})")
    if mode == "setup":
        try:
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("set-up worker did not exit")
    return proc, ready


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    # Workers inherit this pin: set-up, single-threaded requests and cold
    # children run on the CPU where the reference loop measures the speed.
    args.cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {args.cpus[0]})
    out_dir = ROOT / ".perfbench-out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(start_worker(args, "setup", out_dir / "setup", deadline)[1])
    proc, ready = start_worker(args, "run", out_dir / "run", deadline)
    setups.append(ready)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed run did not finish in time")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(s for _, s in setups)
    result["raw_wall"]["setup_s"] = statistics.median(w for w, _ in setups)
    result["environment"] = environment(args.seed, len(args.cpus))
    (out_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def report(args, result):
    m, t = result["metrics"], result["tail"]
    failed, attempted = result["failed"], result["attempted"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} requests in {result['passes']} passes of {result['pool']}, "
          "closed loop, one client; times at reference speed (perfbench/speed.py)")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    if not args.trace:
        metrics = {
            "setup_s": result["setup_s"],
            "latency_p50_ms": m["latency_p50_ms"],
            "latency_tail_ms": m["latency_tail_ms"],
            "throughput_rps": m["throughput_rps"],
            "ok_ratio": 1.0 - m["fail_ratio"],
            "peak_rss_mb": m["peak_rss_mb"],
        }
        raw = result["raw_wall"]
        notes = {
            "setup_s": f"median of {SETUP_SAMPLES} fresh workers; "
                       f"raw wall {raw['setup_s']:.4g} s",
            "latency_p50_ms": f"raw wall {raw['latency_p50_ms']:.4g} ms",
            "latency_tail_ms": f"p{t['percentile']:.2f}, {t['beyond']} of "
                               f"{t['samples']} samples beyond; raw wall "
                               f"{raw['latency_tail_ms']:.4g} ms",
            "ok_ratio": f"fail_ratio = {failed}/{attempted} = {m['fail_ratio']:.4g}",
            "peak_rss_mb": ("max over the cold child processes"
                            if args.workload == "cli-cold" else "client process"),
        }
        units = metric_units("end_to_end")
    else:
        metrics = result["layers"]
        notes = {"trace.overhead_ms": "traced minus untraced latency_p50_ms"}
        units = metric_units("per_layer")
    for name, unit in units.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} = {metrics[name]:.6g} {unit}{note}")
    if args.workload == "dynamics-mix":
        print("  phase_vs_loss at the exceptional point (detuning 0, width 2g): "
              f"largest deviation from the reference propagator {result['ep_error']:.3g}"
              " (recorded, not counted as a failure)")
    if args.trace:
        for title, points in result["curves"].items():
            if points:
                shown = ", ".join(f"{size}: {ms:.3g} ({n})"
                                  for size, (ms, n) in points.items())
                print(f"  scaling {title} (mean ms, calls): {shown}")
        print("  spans come from this client interpreter"
              + (" and each traced cold child" if args.workload == "cli-cold" else "")
              + "; spans of worker processes the package may start are out of reach")
    print("environment: " + json.dumps(result["environment"]))
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}}
    print(json.dumps(final))


def metric_units(kind):
    """Names and units of the metrics BENCHMARK.json lists under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small request pool, for perfbench/selfcheck.py")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "exchangelab" / "cli.py").is_file():
        fail(f"no exchangelab sources under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "scenarios").is_dir():
        fail(f"no documented scenarios under {ROOT / 'scenarios'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no {ROOT / 'BENCHMARK.json'} naming the metrics")
    report(args, run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
