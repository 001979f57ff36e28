"""Momentary machine speed, from a fixed reference loop.

Shared cores make wall time drift: on the 2-core VM (2.1 GHz Xeon) the
benchmark was built on, a fixed loop takes between 1x and 1.7x its fastest
time, with slow and fast stretches lasting from a second to about a minute,
and the median latency of one fixed request pool moved by a third between
30-second runs.  So every timed interval is bracketed by this loop, run just before
and just after it, outside the interval, and reported at reference speed:

    reported = wall * REFERENCE_S / mean(loop before, loop after)

that is, the wall time the interval would have taken on a machine that
runs the loop in exactly ``REFERENCE_S``.  Raw wall times are kept beside
the reported ones in the result file.
"""

from __future__ import annotations

import os
import time

import numpy as np
import yaml

REFERENCE_S = 1e-3

# The loop mixes the kinds of work requests do: Python bytecode, a YAML
# parse and small LAPACK calls.  Against a pool of dynamics-mix requests it
# tracked their slowdowns better than plain integer arithmetic did (per
# request spread 11% against 13%), and it uses nothing of exchangelab, so a
# change to the package cannot move it.
_DOC = yaml.safe_dump({"segments": [{"duration": 1.0, "rate": 0.5,
                                     "detunings": {"a": 0.1, "b": 0.2}}] * 2})
_MATRIX = np.add.outer(np.arange(16.0), np.arange(16.0)) % 7.0


def _loop():
    start = time.perf_counter()
    total = 0
    for k in range(3000):
        total += k * k
    yaml.safe_load(_DOC)
    for _ in range(2):
        np.linalg.eigh(_MATRIX)
    return time.perf_counter() - start


def reference_loop(cpus):
    """Seconds a fixed integer loop takes now, averaged over `cpus`.

    The two cores of that VM slow down independently, so the loop runs
    on each core the timed work may use: the calling thread visits each
    in turn and gets its affinity back afterwards.
    """
    if len(cpus) == 1:
        return _loop()
    saved = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_loop())
    finally:
        os.sched_setaffinity(0, saved)
    return sum(times) / len(times)


def at_reference_speed(wall_s, before_s, after_s):
    """Wall time rescaled to the reference speed (see the module docstring)."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
