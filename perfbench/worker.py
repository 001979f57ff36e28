"""The benchmark's single client process.

Started fresh by ``run.py``, which puts ``src`` on ``PYTHONPATH`` and pins
BLAS to one thread for it and its children.  It imports
``exchangelab.cli``, builds the seeded request pool, runs one untimed
warm-up request of each type, then prints ``READY`` (``run.py`` times
set-up up to that line).  With ``--mode setup`` it stops there.  With
``--mode run`` it sends requests in a closed loop, one at a time, in whole
passes over the pool, stopping at the pass boundary nearest to
``--seconds`` of timed wall time; checks every output outside the timed
window; and prints one JSON line of results.

With ``--trace 1`` passes alternate between untraced and traced, so the
tracing overhead is the difference of their median latencies, and the
traced passes give the per-layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class Client:
    """Runs requests of one workload and checks their outputs."""

    def __init__(self, cold, cpus):
        import exchangelab.cli as cli
        from exchangelab import dynamics, hilbert

        self.cli, self.dynamics, self.hilbert = cli, dynamics, hilbert
        self.cold = cold
        self.cpus = cpus  # where timed work runs, for the reference loop
        self.traced_spans_dir = None
        self.digests = {}
        self.failures = []
        self.ep_error = 0.0

    # -- executing ---------------------------------------------------------

    def _probe(self, request):
        args = request.args
        if request.probe == "rabi":
            hilbert, dynamics = self.hilbert, self.dynamics
            modes = [hilbert.photon_mode("photon"), hilbert.collective_mode("atoms")]
            out = []
            for sector, initial in ((1, (1, 0)), (2, (1, 1))):
                basis = hilbert.enumerate_basis(modes, sector)
                coupling = hilbert.exchange_coupling(basis, "photon", "atoms",
                                                     args["rate"])
                out.append(dynamics.rabi_frequency(coupling, initial))
            return out
        return [self.dynamics.phase_vs_loss(args["rate"], args["detuning"],
                                            args["width"], t)
                for t in args["durations"]]

    def _cold(self, request, index):
        if self.traced_spans_dir is None:
            cmd = [sys.executable, "-m", "exchangelab.cli", *request.argv]
        else:
            spans = self.traced_spans_dir / f"cold-{index}.json"
            cmd = [sys.executable, str(HERE / "cold_traced.py"), str(spans),
                   *request.argv]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-300:]}")

    def execute(self, request, index):
        """Run one request; returns (seconds, result).  Raises on failure."""
        if request.out is not None and request.out.exists():
            shutil.rmtree(request.out)
        start = time.perf_counter()
        if request.probe is not None:
            result = self._probe(request)
        elif self.cold:
            result = self._cold(request, index)
        else:
            code = self.cli.main(request.argv)
            if code != 0:
                raise RuntimeError(f"exit {code}")
            result = None
        return time.perf_counter() - start, result

    # -- checking ------------------------------------------------------------

    @staticmethod
    def outputs(request, result):
        """What the checker reads: payload files by name, or the probe result."""
        if request.out is None:
            return result
        return {p.name: p.read_bytes() for p in sorted(request.out.iterdir())
                if p.name != "run.meta.json"}

    def check(self, key, request, result):
        """Check outputs; a repeat must match the first run byte for byte."""
        outputs = self.outputs(request, result)
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        first = self.digests.get(key)
        if first is not None:
            if first != digest:
                raise checks.CheckFailure("repeated request wrote different bytes")
            return
        value = checks.CHECKS[request.rtype](outputs, request.expect)
        self.digests[key] = digest
        if request.rtype == "phase-vs-loss" and request.expect["exceptional"]:
            self.ep_error = max(self.ep_error, value)

    def attempt(self, key, request, index):
        """Execute and check.

        Returns (wall seconds, seconds at reference speed), or None if the
        request failed.  `key` names the request for the repeat comparison;
        `index` names a traced cold child's span file.
        """
        try:
            before = speed.reference_loop(self.cpus)
            seconds, result = self.execute(request, index)
            after = speed.reference_loop(self.cpus)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed request
            self.failures.append(f"{request.rtype}: {type(exc).__name__}: {exc}")
            return None
        try:
            self.check(key, request, result)
        except (checks.CheckFailure, KeyError, ValueError, OSError) as exc:
            self.failures.append(f"{request.rtype}: check: {exc}")
            return None
        return seconds, speed.at_reference_speed(seconds, before, after)


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def run_python(code):
    """Wall time and stdout of a fresh `python -c code`."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return time.perf_counter() - start, proc.stdout


IMPORT_PROBE = ("import sys, time\n"
                "start = time.perf_counter()\n"
                "import exchangelab.cli\n"
                "print(time.perf_counter() - start, int('scipy.linalg' in sys.modules))")


def layer_metrics(spans, requests_traced, ep_error, repeats=5):
    """Per-layer figures of the traced passes, per request where counted."""
    table = tracer.summarize(spans)
    per = max(1, requests_traced)
    out = {}

    def row(name):
        return table.get(name, {})

    for name in ("cli.parse_scenario", "cli.run_scenario", "hilbert.enumerate_basis",
                 "hilbert.exchange_coupling", "dynamics.segment_hamiltonian",
                 "dynamics.evolve_segment", "dynamics.run_schedule",
                 "dynamics.final_state", "dynamics.transmission_scan",
                 "dynamics.rabi_frequency", "dynamics.phase_vs_loss",
                 "gates.extract_gate", "gates.five_pulse_leakage",
                 "perturbation.cross_fit", "perturbation.build_problem",
                 "perturbation.rspt_energy", "serialize.write_csv",
                 "serialize.write_json", "estimates.regime_classify"):
        out[f"{name}.self_ms"] = 1e3 * row(name).get("self_s", 0.0) / per
    for name in ("hilbert.enumerate_basis", "hilbert.exchange_coupling",
                 "dynamics.evolve_segment", "perturbation.rspt_energy"):
        out[f"{name}.calls"] = row(name).get("calls", 0.0) / per
    for name in ("hilbert.exchange_coupling", "perturbation.rspt_energy"):
        out[f"{name}.dim_sum"] = row(name).get("dim_sum", 0.0) / per
    out["dynamics.evolve_segment.lossy_calls"] = (
        row("dynamics.evolve_segment").get("lossy_sum", 0.0) / per)
    segments = row("dynamics.segment_hamiltonian").get("calls", 0.0)
    out["dynamics.evolve_per_segment"] = (
        row("dynamics.evolve_segment").get("calls", 0.0) / segments if segments else 0.0)
    out["serialize.bytes"] = (row("serialize.write_csv").get("bytes_sum", 0.0)
                              + row("serialize.write_json").get("bytes_sum", 0.0)) / per
    wall, cpu = tracer.sweep_concurrency(spans)
    out["cli.sweep.concurrency"] = wall
    out["cli.sweep.cpu_concurrency"] = cpu
    out["dynamics.phase_vs_loss.ep_error"] = ep_error

    imports = [run_python(IMPORT_PROBE)[1].split() for _ in range(repeats)]
    out["import.cli_ms"] = 1e3 * statistics.median(float(s) for s, _ in imports)
    out["import.scipy_linalg_loaded"] = float(imports[-1][1])
    out["process.interpreter_ms"] = 1e3 * statistics.median(
        run_python("pass")[0] for _ in range(repeats))
    curves = {
        "perturbation.cross_fit ms by atoms": tracer.curve(
            spans, "perturbation.cross_fit", "atoms"),
        "hilbert.exchange_coupling ms by dim": tracer.curve(
            spans, "hilbert.exchange_coupling", "dim"),
    }
    return out, curves


def cold_spans(directory):
    """Spans written by traced cold CLI children, ids made unique per child."""
    spans = []
    for offset, path in enumerate(sorted(directory.glob("cold-*.json"))):
        for sid, parent, *rest in json.loads(path.read_text()):
            spans.append((f"{offset}:{sid}",
                          None if parent is None else f"{offset}:{parent}",
                          *rest))
    return spans


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--cpus", type=lambda s: [int(c) for c in s.split(",")],
                        required=True, help="CPUs the timed loop may use")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    cold = args.workload == "cli-cold"
    # Set-up, cold children and single-threaded requests stay on the one
    # CPU run.py pinned, where the reference loop also runs; the sweep pool
    # of perturb-sweep gets every CPU.
    sweeps = args.workload == "perturb-sweep"
    timed_cpus = args.cpus if sweeps else sorted(os.sched_getaffinity(0))
    client = Client(cold, timed_cpus)  # imports exchangelab.cli

    rng = np.random.default_rng(args.seed)
    work = args.work
    work.mkdir(parents=True, exist_ok=True)
    if args.workload == "dynamics-mix":
        pool = workloads.dynamics_mix(rng, work, tiny=args.tiny)
    elif args.workload == "perturb-sweep":
        pool = workloads.perturb_sweep(rng, work, len(args.cpus), tiny=args.tiny)
    else:
        pool = workloads.cli_cold(rng, work, ROOT / "scenarios", tiny=args.tiny)

    # warm-ups run in process, also for cli-cold: set-up is the same
    # import and first calls whichever way requests are later sent
    client.cold = False
    for index, request in enumerate(workloads.warmups(pool)):
        client.attempt(("warm-up", index), request, None)
    client.cold = cold
    client.failures.clear()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if sweeps:
        os.sched_setaffinity(0, set(args.cpus))

    trace = tracer.Tracer() if args.trace else None
    spans_dir = work / "cold-spans"
    if trace and cold:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
    latencies = {False: [], True: []}
    wall, samples = [], []
    attempted = traced_requests = passes = 0
    timed = 0.0
    # a program whose requests all fail never fills the timed window
    deadline = time.monotonic() + 2 * args.seconds + 30
    # Whole passes only, so every request appears equally often and the
    # median cannot slide between request sizes; stop at the pass boundary
    # nearest to --seconds of timed wall time.
    while ((passes == 0 or timed + 0.5 * timed / passes < args.seconds
            or (trace and passes < 2))
           and time.monotonic() < deadline):
        traced = bool(trace) and passes % 2 == 1
        patches = tracer.install(trace) if traced and not cold else []
        client.traced_spans_dir = spans_dir if traced and cold else None
        for index in rng.permutation(len(pool)):
            if trace is not None:
                trace.request = f"{passes}:{index}"
            attempted += 1
            traced_requests += traced
            outcome = client.attempt(index, pool[index], f"{passes}-{index}")
            if outcome is not None:
                latencies[traced].append(outcome[1])
                timed += outcome[0]
                if not traced:
                    wall.append(outcome[0])
                    samples.append((int(index), pool[index].rtype, *outcome))
        tracer.uninstall(patches)
        passes += 1

    plain = latencies[False] or [0.0]
    failed = attempted - len(latencies[False]) - len(latencies[True])
    value, pct, beyond = tail(plain)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": client.failures[:5],
        "passes": passes,
        "pool": len(pool),
        "metrics": {
            "latency_p50_ms": 1e3 * statistics.median(plain),
            "latency_tail_ms": 1e3 * value,
            "throughput_rps": len(latencies[False]) / max(sum(plain), 1e-9),
            "fail_ratio": failed / attempted,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        },
        "tail": {"percentile": pct, "beyond": beyond, "samples": len(plain)},
        "raw_wall": {"latency_p50_ms": 1e3 * statistics.median(wall or [0.0]),
                     "latency_tail_ms": 1e3 * tail(wall or [0.0])[0]},
        "ep_error": client.ep_error,
        "samples": samples,  # (pool index, type, wall s, reference-speed s)
    }
    if trace:
        spans = cold_spans(spans_dir) if cold else trace.spans
        layers, curves = layer_metrics(spans, traced_requests, client.ep_error)
        traced_p50 = statistics.median(latencies[True] or [0.0])
        layers["trace.overhead_ms"] = 1e3 * (traced_p50 - statistics.median(plain))
        result["layers"] = layers
        result["curves"] = curves
        with open(work / "spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
