"""Time ``Schedule.next_tick`` in one process on the benchmark schedule shapes.

Each shape is the schedule and block count of a ``perfbench`` workload:
lasso (8 players, ``randomized(p=0.1, max_lag=3, window=20)``), shared
(2 players and 1 coupling, ``randomized(p=0.5, max_lag=5, window=8)``)
and consensus (10 players, synchronous); lasso100 is the lasso schedule
over 100 players, where drawing every block dominates. A rep queries
ticks ``0..CALLS-1`` in order from a cold activation cache; the script
prints the median over ``REPS`` reps of the microseconds per call, one
line per shape::

    python tools/time_next_tick.py   # about 3 s on 2 vCPUs

The draws are the same for every version, so two versions compare by
running this script in each checkout, interleaved, on the same machine.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nashsplit import schedules  # noqa: E402

CALLS = 6000
REPS = 7
SEED = 20211


def shapes(seed: int) -> dict:
    """Shape name -> ``(schedule, num_players, num_couplings)``."""
    return {
        "lasso": (schedules.randomized(seed, 0.1, max_lag=3, window=20), 8, 0),
        "shared": (schedules.randomized(seed, 0.5, max_lag=5, window=8), 2, 1),
        "lasso100": (schedules.randomized(seed, 0.1, max_lag=3, window=20), 100, 0),
        "consensus": (schedules.synchronous(), 10, 0),
    }


def time_shape(schedule, num_players: int, num_couplings: int) -> float:
    """Median microseconds per ``next_tick`` call over ``REPS`` cold reps."""
    per_call = []
    for _ in range(REPS):
        schedules._raw_active.cache_clear()
        start = time.perf_counter()
        for n in range(CALLS):
            schedule.next_tick(n, num_players, num_couplings)
        per_call.append((time.perf_counter() - start) / CALLS * 1e6)
    return statistics.median(per_call)


def main() -> int:
    for name, (schedule, num_players, num_couplings) in shapes(SEED).items():
        print(f"{name}: {time_shape(schedule, num_players, num_couplings):.1f} us/call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
