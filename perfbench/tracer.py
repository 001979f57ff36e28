"""In-memory spans around the public functions of each exchangelab module.

``install`` replaces every public function of each layer module with a
timing wrapper, in every package module that binds it by name (``cli``
imports ``write_csv`` and ``write_json`` directly, ``gates`` imports
``final_state``, ``dynamics`` imports ``exchange_coupling`` and so on), so
calls are caught whichever name they go through.  Spans stay in memory
until the run ends.

Each thread keeps its own stack of open spans.  A span opened on a thread
with an empty stack (a ``--parallel`` sweep worker) takes as parent the
innermost open span of the thread that installed the tracer, which is the
thread that issues requests.  Spans of worker *processes* are out of reach:
only this interpreter is instrumented.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

LAYERS = ("hilbert", "dynamics", "gates", "perturbation", "estimates",
          "serialize", "cli")

# serialize.format_float runs once per written number; a span around it
# would cost more than the call and swamp serialize.write_csv.
_SKIP = {"serialize.format_float"}


def _size_attrs(name, args, result):
    """Problem size carried by a span: basis dim, sector, atoms, lossiness."""
    if name == "hilbert.enumerate_basis":
        return {"dim": result.dim, "sector": result.sector}
    if name == "hilbert.exchange_coupling":
        return {"dim": args[0].dim, "sector": args[0].sector}
    if name == "dynamics.segment_hamiltonian":
        return {"dim": args[0].dim}
    if name == "dynamics.evolve_segment":
        return {"dim": args[0].basis.dim, "lossy": int(not args[0].hermitian)}
    if name in ("dynamics.run_schedule", "dynamics.final_state"):
        return {"dim": args[1].dim, "sector": args[1].sector}
    if name in ("perturbation.cross_fit", "perturbation.build_problem"):
        return {"atoms": args[0].atoms}
    if name == "perturbation.rspt_energy":
        return {"dim": args[0].dim}
    if name in ("serialize.write_csv", "serialize.write_json"):
        return {"bytes": os.path.getsize(args[0])}
    if name == "cli.run_scenario":
        return {"kind": args[0].kind}
    return None


class Tracer:
    """Collects (id, parent, name, start, end, cpu, request, attrs) spans."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        clock, cpu_clock = time.perf_counter, time.thread_time

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root[-1] if self._root else None
            sid = next(self._ids)
            stack.append(sid)
            result = done = None
            c0, t0 = cpu_clock(), clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1, c1 = clock(), cpu_clock()
                stack.pop()
                attrs = None
                if done:
                    try:
                        attrs = _size_attrs(name, args, result)
                    except (IndexError, AttributeError, OSError):
                        pass  # called in an unexpected form: keep the time
                self.spans.append((sid, parent, name, t0, t1, c1 - c0,
                                   self.request, attrs))

        traced.__wrapped__ = fn
        return traced


def install(tracer):
    """Wrap every public function of every layer, in every module binding it.

    Returns the patches, for ``uninstall``.
    """
    modules = {layer: importlib.import_module(f"exchangelab.{layer}")
               for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            name = f"{layer}.{attr}"
            if (callable(fn) and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == module.__name__
                    and name not in _SKIP):
                wrappers[id(fn)] = (fn, tracer.wrap(name, fn))
    patches = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, hit[1])
    return patches


def uninstall(patches):
    """Put the original functions back."""
    for module, attr, original in patches:
        setattr(module, attr, original)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans):
    """Map span id -> duration minus the part its children cover (seconds)."""
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            for sid, _parent, _name, t0, t1, *_ in spans}


def summarize(spans):
    """Per-name totals: calls, seconds of self time, sums of numeric attrs."""
    own = self_times(spans)
    table = defaultdict(lambda: defaultdict(float))
    for sid, _parent, name, _t0, _t1, _cpu, _req, attrs in spans:
        row = table[name]
        row["calls"] += 1
        row["self_s"] += own[sid]
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)):
                row[f"{key}_sum"] += value
    return table


def sweep_concurrency(spans):
    """Child perturbation time over the wall time of sweep run_scenario spans.

    Returns (wall ratio, cpu ratio).  The wall ratio counts time a sweep
    point spent waiting for the interpreter lock; the cpu ratio does not,
    so it shows how much of the pool actually ran at once.
    """
    by_id = {span[0]: span for span in spans}
    sweep_ids = {span[0] for span in spans
                 if span[2] == "cli.run_scenario"
                 and (span[7] or {}).get("kind") == "sweep"}
    if not sweep_ids:
        return 0.0, 0.0
    wall = sum(by_id[sid][4] - by_id[sid][3] for sid in sweep_ids)
    point_wall = point_cpu = 0.0
    for sid, parent, name, t0, t1, cpu, _req, _attrs in spans:
        if not name.startswith("perturbation.") or parent is None:
            continue
        # only the outermost perturbation span of each sweep point counts
        if parent in sweep_ids:
            point_wall += t1 - t0
            point_cpu += cpu
    return point_wall / wall, point_cpu / wall


def curve(spans, name, key):
    """Mean wall time (ms) of spans called `name`, grouped by attrs[key]."""
    groups = defaultdict(list)
    for _sid, _parent, span_name, t0, t1, _cpu, _req, attrs in spans:
        if span_name == name and attrs and key in attrs:
            groups[attrs[key]].append(t1 - t0)
    return {size: (1e3 * sum(times) / len(times), len(times))
            for size, times in sorted(groups.items())}
