"""Fingerprint every benchmark solve, so two versions can be compared with ``cmp``.

Solves each schedule of each ``perfbench`` workload at workload seeds 1
and 9 (34 solves), and the kitchen-sink game of
``tests/test_integration.py`` (mixed players, strategy widths other than
the interaction widths, a hand-made smooth term and two couplings) under
``synchronous()`` and ``randomized(1, 0.5, max_lag=3, window=8)`` (2
solves), each from a cold activation cache, and prints one JSON object:
per solve the tick count, ``workloads.digest`` of the final tuple, the
SHA-256 of the per-tick report stream ``(n, pi, theta, step_norm,
kkt_residual, active sets, lags)`` and the closing certificate's
``max_residual`` as ``float.hex``. A change that keeps
trajectories bitwise prints the same bytes::

    python tools/solve_digests.py > after.json   # about 25-45 s on 2 vCPUs
    cmp before.json after.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from nashsplit import SolverParams, schedules, solver  # noqa: E402
from test_integration import kitchen_sink_game  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SEEDS = (1, 9)


def _hex(value) -> str:
    return "" if value is None else float(value).hex()


def stream_hash(reports) -> str:
    """SHA-256 of the per-tick reports, floats written exactly."""
    h = hashlib.sha256()
    for rep in reports:
        row = (rep.n, _hex(rep.pi), _hex(rep.theta), _hex(rep.step_norm), _hex(rep.kkt_residual),
               rep.active_players, rep.active_couplings,
               sorted(rep.player_lags.items()), sorted(rep.coupling_lags.items()))
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def fingerprint(game, params, schedule) -> dict:
    schedules._raw_active.cache_clear()
    result = solver.solve(game, params, schedule, validate=False)
    return {
        "ticks": result.ticks,
        "digest": digest(result),
        "stream": stream_hash(result.reports),
        "max_residual": result.certificate.max_residual.hex(),
    }


def main() -> int:
    out = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            inst = workload.setup(workload.draw(seed))
            for index, schedule in enumerate(inst.schedules):
                out[f"{name}/seed{seed}/schedule{index}"] = fingerprint(inst.game, inst.params,
                                                                        schedule)
    game = kitchen_sink_game()
    out["kitchen-sink/synchronous"] = fingerprint(game, SolverParams.for_game(game),
                                                  schedules.synchronous())
    out["kitchen-sink/randomized"] = fingerprint(
        game, SolverParams.for_game(game, max_lag=3, window=8),
        schedules.randomized(1, 0.5, max_lag=3, window=8))
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
