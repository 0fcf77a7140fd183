"""Core-speed calibration for timings on a shared, noisy host.

On a virtual machine whose physical cores are shared, the speed of one
core can change by a factor of two within seconds, for every program
alike. Each timed region is therefore bracketed by two probes that run a
fixed kernel for ``PROBE_S`` seconds each (back-to-back regions share the
probe between them): interpreter-bound work on tiny
numpy arrays, lists, dicts and small records, the same kind of work as a
solver tick, that does not touch the library under test. A timing is
reported in reference-core seconds,

    wall seconds * REFERENCE_S / (mean kernel pass time around the region),

the time the region would have taken at the core speed where one kernel
pass takes ``REFERENCE_S``. The raw wall time is printed next to it.
Changes to the library cannot move the probe, so a speed-up or a
slow-down of the library shows in full.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Mean kernel pass time, rounded, on a 2-vCPU Intel Xeon guest at 2.1 GHz
# with Python 3.11.7 and numpy 2.4.6.
REFERENCE_S = 0.0025
PROBE_S = 0.4


@dataclass(frozen=True)
class _Record:
    n: int
    value: float
    lags: dict


def kernel(ticks: int = 20, blocks: int = 12) -> float:
    """One pass of solver-like work: lagged snapshots, block updates, records."""
    xs = [np.full(1, 0.1 * i) for i in range(blocks)]
    history, records, acc = {}, [], 0.0
    for n in range(ticks):
        history[n] = tuple(np.array(x) for x in xs)
        for old in [j for j in history if j < n - 3]:
            del history[old]
        stacked = np.concatenate(history[max(0, n - 2)])
        mean = float(stacked.mean())
        for i in range(blocks):
            xs[i] = np.clip(xs[i] - 0.1 * (stacked[i] - mean), -1.0, 1.0)
            acc += float(np.dot(xs[i], xs[i]))
        records.append(_Record(n, acc, {i: n for i in range(0, blocks, 3)}))
    return acc


def probe() -> float:
    """Mean wall time of one kernel pass over ``PROBE_S`` seconds of passes."""
    passes = 0
    start = time.perf_counter()
    while True:
        kernel()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= PROBE_S:
            return elapsed / passes


class Clock:
    """Times regions between probes; a region reuses the probe that ended the previous one."""

    def __init__(self):
        self._last = None

    def time(self, fn):
        """Run ``fn()``; return ``(result, wall seconds, reference-core seconds)``."""
        before = self._last if self._last is not None else probe()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self._last = probe()
        return result, wall, wall * REFERENCE_S / (0.5 * (before + self._last))
