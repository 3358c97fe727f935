"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants, the speed of the
Python interpreter changes by up to about 1.8x within seconds, so the
median of per-update latencies jumps between runs of the same code. Thread
CPU time does not remove this: the thread runs all the time, only slower.
Just before and just after every timed unit of work the benchmark
therefore times a fixed kernel that does the kind of work the engine's
inner loops do (index rows scattered over a few megabytes, test a column,
add into a dict), so that it slows with the engine whether a neighbour
competes for the core or for the caches. Each unit's time is scaled by
REFERENCE_S / (kernel time around it): reported times are seconds or
milliseconds at the reference speed, at which one kernel run takes
REFERENCE_S.
"""

from __future__ import annotations

import random
import statistics
import time

# about one kernel run in the fastest state seen on the shared 2-core
# 2.1 GHz Xeon virtual machine the baseline was measured on; a fixed
# constant, so scaled times compare across runs and commits
REFERENCE_S = 0.000065

WINDOW = 2  # updates on each side whose kernel times enter the rolling median

_ROWS = [(i % 53, i % 7, i % 251) for i in range(100_000)]  # about 7 MB
_PROBES = random.Random(0).sample(range(len(_ROWS)), 600)


def _kernel() -> dict:
    acc: dict = {}
    for rid in _PROBES:
        row = _ROWS[rid]
        if row[1] != 3:
            acc[row[0]] = acc.get(row[0], 0) + row[2]
    return acc


def sample(repeats: int = 1) -> float:
    """Median thread CPU seconds of `repeats` kernel runs, after one
    untimed run that brings the kernel's rows into cache, so that what the
    engine did just before does not change the result."""
    _kernel()
    times = []
    for _ in range(repeats):
        t0 = time.thread_time()
        _kernel()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def scale_series(times: list[float], kernel_times: list[float]) -> list[float]:
    """Each time scaled by the rolling median kernel time around it."""
    out = []
    n = len(times)
    for i, t in enumerate(times):
        around = kernel_times[max(0, i - WINDOW) : min(n, i + WINDOW + 1)]
        out.append(t * REFERENCE_S / statistics.median(around))
    return out
