"""Operation timing at a reference machine speed.

A shared machine's speed drifts. The one this benchmark was built on
changed speed by up to 1.6x within a minute, and phases of a second or
less alternate with phases of minutes. CPU time slows as much as wall
time, because a busy sibling hyperthread slows every instruction. Unscaled,
medians of 20 s runs on ten seeds spread by 28%.

``timed`` runs an operation while a fixed probe, which calls no library
code, is timed before it, after it, and on every SIGPROF tick of
PROBE_INTERVAL_S of CPU time during it. Each probe time gives the machine's
speed relative to the probe's time on that machine in its fast state. The
operation's time at reference speed is its own wall time times the mean of
those speeds. A change in the machine's speed slows the probe as much as the
operation, so it cancels to first order. A change in the library's speed
moves the scaled time as much as the wall time.

The drift does not slow all work alike: interpreter-bound code slows more
than numpy kernels. So there are two probes, and each workload uses the one
that matches its own work (``Workload.probe``). In a side-by-side trial of
single operations, the quartile spread was, unscaled / interpreter probe /
numpy probe: atlas 22% / 8% / 19%, entropy 8% / 15% / 4%, raster
12% / 17% / 10%, verify 7% / 12% / 4% (the numpy probe then had no
untimed first pass).
"""

from __future__ import annotations

import functools
import signal
import statistics
import time
from typing import NamedTuple

PROBE_INTERVAL_S = 0.01  # CPU time between probes; each takes about 0.2 ms


def interpreter_probe() -> float:
    """Time of a fixed pure-Python loop, in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(5000):
        total += i & 7
    return time.perf_counter() - start


@functools.cache
def _kernel_arrays():
    import numpy  # the library imports it before any operation runs

    return numpy, numpy.linspace(0.0, 1.0, 1 << 15), numpy.empty(1 << 15)


def _kernel_pass(np, a, b) -> None:
    np.multiply(a, 1.0000001, out=b)
    np.sqrt(b, out=b)
    float(b.sum())


def numpy_probe() -> float:
    """Time of fixed numpy kernels over L2-sized arrays, in seconds.

    One untimed pass first brings the arrays back into cache, so the time
    does not depend on how much memory the operation being timed has swept
    through since the last probe.
    """
    np, a, b = _kernel_arrays()
    _kernel_pass(np, a, b)
    start = time.perf_counter()
    for _ in range(4):
        _kernel_pass(np, a, b)
    return time.perf_counter() - start


# probe -> its time on a 2-CPU Intel Xeon in its fast state
PROBES = {"interpreter": (interpreter_probe, 0.0002), "numpy": (numpy_probe, 0.00026)}


class Timing(NamedTuple):
    elapsed: float  # wall time from start to end, probes included
    wall: float  # wall time of the operation itself, probes excluded
    scaled: float  # ``wall`` at the reference speed


def timed(fn, *args, probe: str = "interpreter"):
    """Call ``fn(*args)`` and return (its result, Timing). Main thread only."""
    measure, ref_s = PROBES[probe]
    speeds = [ref_s / measure()]
    probing = 0.0

    def on_tick(signum, frame):
        nonlocal probing
        start = time.perf_counter()
        speeds.append(ref_s / measure())
        probing += time.perf_counter() - start

    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)
    speeds.append(ref_s / measure())
    wall = elapsed - probing
    return result, Timing(elapsed, wall, wall * statistics.fmean(speeds))
