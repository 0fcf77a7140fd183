"""Time solver ticks on the benchmark games and on a 100-player lasso, in reference-core units.

Shapes:

- ``consensus``, ``lasso`` and ``shared``: the game of each ``perfbench``
  workload at workload seed ``SEED`` with its first schedule, solved to
  tolerance;
- ``lasso100 sync``, ``lasso100 p=0.5`` and ``lasso100 p=0.1``: l1 least
  squares with a 40x100 Gaussian design from ``default_rng(0)`` scaled by
  1/sqrt(40) and weight 0.5, run for ``TICKS`` ticks under a synchronous
  schedule and under ``randomized(0, p, max_lag=3, window=20)``.

Each solve is one region of ``perfbench/calibration.Clock``, so its time
is in reference-core seconds and core-speed swings of the host cancel. The
script prints, per shape, the median over ``--reps`` reps of the
reference-core microseconds per tick::

    python tools/time_tick.py --reps 3          # about 1 min on 2 vCPUs

``--against DIR`` loads the ``nashsplit`` package of a second checkout
into the same process, under another module name, and times the two in
interleaved pairs: per shape the two medians, the change, and in how many
pairs this checkout was faster. Both must give the same ticks and the
same final iterate bytes, or the script stops::

    python tools/time_tick.py --against ../parent --reps 8
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import nashsplit  # noqa: E402
import nashsplit.problems  # noqa: E402,F401
import workloads  # noqa: E402
from calibration import Clock  # noqa: E402

SEED = 1
TICKS = 1500
WORKLOAD_SHAPES = {"consensus": "consensus-sync", "lasso": "lasso-sparse", "shared": "shared-async"}
LASSO100 = {"sync": None, "p=0.5": 0.5, "p=0.1": 0.1}


def load(root: Path, name: str):
    """Import the ``nashsplit`` package under ``root/src``, and its ``problems``, as ``name``."""
    package = root / "src" / "nashsplit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.problems")
    return module


def workload_run(pkg, name: str):
    """A solve to tolerance of the workload's game, built with ``pkg``'s problems and schedules."""
    workload = workloads.WORKLOADS[name]
    data = workload.draw(SEED)
    # the workload's builder reads these module globals: point them at pkg
    saved = workloads.problems, workloads.schedules
    workloads.problems, workloads.schedules = pkg.problems, pkg.schedules
    try:
        game, scheds = workload.build(data)
    finally:
        workloads.problems, workloads.schedules = saved
    schedule = scheds[0]
    params = pkg.SolverParams.for_game(game, max_lag=schedule.max_lag, window=schedule.window)
    return lambda: pkg.solve(game, params, schedule, validate=False)


def lasso100_run(pkg, prob):
    """``TICKS`` ticks of the 100-player lasso under the named schedule."""
    rng = np.random.default_rng(0)
    design = rng.standard_normal((40, 100)) / np.sqrt(40)
    game, _ = pkg.problems.lasso_instance(design, rng.standard_normal(40), 0.5)
    schedule = pkg.synchronous() if prob is None else pkg.randomized(0, prob, max_lag=3, window=20)
    params = pkg.SolverParams.for_game(game, max_lag=3, window=20, max_iters=TICKS)
    return lambda: pkg.solve(game, params, schedule, validate=False)


def shapes(pkg) -> dict:
    """One solve per shape, each from a cold activation cache as in the benchmark."""
    runs = {shape: workload_run(pkg, name) for shape, name in WORKLOAD_SHAPES.items()}
    runs.update({f"lasso100 {label}": lasso100_run(pkg, p) for label, p in LASSO100.items()})

    def cold(run):
        pkg.schedules._raw_active.cache_clear()
        return run()

    return {shape: (lambda run=run: cold(run)) for shape, run in runs.items()}


def fingerprint(result) -> tuple:
    return result.ticks, b"".join(np.ascontiguousarray(b).tobytes() for b in result.x)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", type=Path, help="a second checkout to time in interleaved pairs")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)

    versions = {"this": shapes(nashsplit)}
    if args.against is not None:
        versions["against"] = shapes(load(args.against.resolve(), "nashsplit_against"))
    clock = Clock()
    us = {label: {shape: [] for shape in versions["this"]} for label in versions}
    for _ in range(args.reps):
        for shape in versions["this"]:
            seen = set()
            for label, runs in versions.items():
                result, _, ref_s = clock.time(runs[shape])
                seen.add(fingerprint(result))
                us[label][shape].append(ref_s / result.ticks * 1e6)
            if len(seen) != 1:
                raise SystemExit(f"{shape}: the two checkouts give different runs")
    for shape, mine in us["this"].items():
        line = f"{shape:16s} {statistics.median(mine):8.1f} us/tick"
        if "against" in us:
            theirs = us["against"][shape]
            before, after = statistics.median(theirs), statistics.median(mine)
            lower = sum(a < b for a, b in zip(mine, theirs))
            line = (f"{shape:16s} {before:8.1f} -> {after:8.1f} us/tick "
                    f"({after / before - 1.0:+.1%}, lower in {lower}/{len(mine)} pairs)")
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
