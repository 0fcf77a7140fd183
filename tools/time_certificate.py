"""Time the per-tick certificate ``check_equilibrium(..., coerce=False)`` on the benchmark games.

Each shape is the game of a ``perfbench`` workload at workload seed
``SEED``: consensus (10 players with boxes, synchronous), lasso (8 l1
players) and shared (2 boxed players and one shared constraint). The
certificate is evaluated as ``solver.tick`` evaluates it: at the
per-block views of an ``IterState``, here filled with standard normal
entries. A rep makes ``CALLS`` calls; the script prints the median over
``REPS`` reps of the microseconds per call, one line per shape::

    python tools/time_certificate.py   # about 5 s on 2 vCPUs

The games and points are the same for every version, so two versions
compare by running this script in each checkout, interleaved, on the
same machine.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from nashsplit import oracle  # noqa: E402
from nashsplit.solver import IterState  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CALLS = 2000
REPS = 7
SEED = 1
SHAPES = {"consensus": "consensus-sync", "lasso": "lasso-sparse", "shared": "shared-async"}


def time_shape(workload) -> float:
    """Median microseconds per certificate call over ``REPS`` reps."""
    game, _ = workload.build(workload.draw(SEED))
    state = IterState(game)
    state.flat[:] = np.random.default_rng(SEED).standard_normal(game.state_size)
    per_call = []
    for _ in range(REPS):
        start = time.perf_counter()
        for _ in range(CALLS):
            oracle.check_equilibrium(game, state.x, state.u_star, state.v_star, coerce=False)
        per_call.append((time.perf_counter() - start) / CALLS * 1e6)
    return statistics.median(per_call)


def main() -> int:
    for name, workload in SHAPES.items():
        print(f"{name}: {time_shape(WORKLOADS[workload]):.1f} us/call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
