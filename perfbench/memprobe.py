"""One solve of a workload in a fresh process, for the peak-memory pass.

Usage: python3 perfbench/memprobe.py --workload NAME --seed N

Builds the workload instance, solves it once with its first schedule and
prints a JSON line with the tick count and the digest of the final tuple.
The parent reads this process's peak resident set size after it exits and
checks the digest against its own timed solves.
"""

import argparse
import json

import bootstrap

bootstrap.prepare()

from nashsplit import solver  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    inst = WORKLOADS[args.workload].setup(WORKLOADS[args.workload].draw(args.seed))
    result = solver.solve(inst.game, inst.params, inst.schedules[0], validate=False)
    print(json.dumps({"ticks": result.ticks, "digest": digest(result)}))


if __name__ == "__main__":
    main()
