"""Time solver ticks, schedule draws and certificates, in reference-core units.

Shapes, one row each:

- ``consensus``, ``lasso`` and ``shared``: the game of each ``perfbench``
  workload at workload seed ``SEED`` with its first schedule, solved to
  tolerance, per tick;
- ``lasso100 sync``, ``lasso100 p=0.5`` and ``lasso100 p=0.1``: l1 least
  squares with a 40x100 Gaussian design from ``default_rng(0)`` scaled by
  1/sqrt(40) and weight 0.5, run for ``TICKS`` ticks under a synchronous
  schedule and under ``randomized(0, p, max_lag=3, window=20)``, per tick;
- ``kitchen sync`` and ``kitchen p=0.5``: the kitchen-sink game of
  ``tests/test_integration.py`` (``Dense`` and ``ScaledIdentity`` mixes,
  strategy widths 2 and 1 against interaction width 1, a hand-made smooth
  term, two couplings) for ``TICKS`` ticks under a synchronous schedule
  and under ``randomized(0, 0.5, max_lag=3, window=8)``, per tick;
- ``step <shape>``, for each shape above: ``player_local_step`` alone,
  per call, once for each of the shape's first ``TICKS`` ticks in order,
  with that tick's active players and its lags read back from tick
  ``max_lag`` (tick ``n`` reading tick ``t`` becomes tick ``max_lag``
  reading ``max_lag - (n - t)``), on a state that ``max_lag`` ticks from
  zero filled, built anew for each run. The whole-tick rows swing more
  than a change to the step can move them, and these rows isolate it. A
  run meets every active set first as new, so ``step lasso100 p=0.1``,
  whose 1500 sets are all distinct, times sets that were never seen;
- ``coupling shared`` and ``coupling kitchen``: the coupling layer alone,
  per tick, for each of the first ``TICKS`` ticks of ``shared`` and of
  ``kitchen p=0.5`` in order: ``coupling_local_step`` with the tick's
  active couplings (when it has any) and their lags, read back as in the
  ``step`` rows, then ``refresh_e`` and ``assemble_duals``, on a state
  built and filled as for the ``step`` rows;
- ``next_tick <shape>``: ``Schedule.next_tick`` for ticks
  ``0..DRAWS - 1`` in order from a cold activation cache, per call, with
  the schedule and block count of a workload (seed ``DRAW_SEED``), and
  ``lasso100``, the lasso schedule over 100 players;
- ``certificate <shape>``: ``CALLS`` per-tick certificates
  ``check_equilibrium(..., coerce=False)`` of a workload's game, or of the
  kitchen-sink game (``certificate kitchen``, the one row with a smooth
  coupling and a two-entry player), at an
  ``IterState`` filled with standard normal entries, per call, given as
  the checkout's tick gives them: the stacked views
  ``state.flat[game.x_span]`` (``u_span``, ``v_span``), or the per-block
  views ``state.x`` (``u_star``, ``v_star``) where ``Game`` has no
  ``v_span``;
- ``setup <shape>``: ``SETUPS`` calls of a workload's ``setup`` at
  workload seed ``SEED``, the work that ``perfbench`` times as
  ``setup_s`` (build the game from the drawn data,
  ``SolverParams.for_game``, the solve gate ``validate_game_and_params``,
  which raises on any violation and so stops the script), per call.

Each row's rep is one region of ``perfbench/calibration.Clock``, so its
time is in reference-core seconds and core-speed swings of the host
cancel. A region runs its shape's solve or loop as many times over as
make it last at least ``PROBE_S``, the length of the probes around it;
that count is measured once per shape, before the timed reps, and both
checkouts use it. The script prints, per shape, the median over
``--reps`` reps of the reference-core microseconds per tick or per call::

    python tools/time_tick.py --reps 3

``--against DIR`` loads the ``nashsplit`` package of a second checkout
into the same process, under another module name, and times the two in
interleaved pairs, each checkout first in every other pair: per shape the
two medians, the change, and in how many pairs this checkout was faster.
Both must give the same ticks and final iterate bytes, draws,
certificates and set-up parameters, or the script stops; draws compare
by value, each lag map as its sorted items, so a checkout whose maps are
not plain dicts still compares::

    python tools/time_tick.py --against ../parent --reps 8

The cases pass the schedule's ``max_lag`` and ``window`` to
``SolverParams.for_game`` although this checkout's ``solve`` reads
neither (it sizes its history from the schedule): an older checkout
sized its history from ``SolverParams.max_lag``, and ``--against`` must
still drive it.

``--rows PATTERN`` (repeatable) keeps only the rows whose name matches one
of the ``fnmatch`` patterns, so that a few rows can be timed in pairs
without the whole sweep, which takes minutes per rep::

    python tools/time_tick.py --against ../parent --reps 16 \
        --rows consensus --rows lasso --rows shared
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import nashsplit  # noqa: E402
import nashsplit.problems  # noqa: E402,F401
import test_integration  # noqa: E402
import workloads  # noqa: E402
from calibration import PROBE_S, Clock  # noqa: E402

SEED = 1
TICKS = 1500
CALLS = 2000
SETUPS = 20
DRAWS = 6000
DRAW_SEED = 20211
WORKLOAD_SHAPES = {"consensus": "consensus-sync", "lasso": "lasso-sparse", "shared": "shared-async"}
LASSO100 = {"sync": None, "p=0.5": 0.5, "p=0.1": 0.1}
KITCHEN = {"sync": None, "p=0.5": 0.5}
COUPLING_SHAPES = {"shared": "shared", "kitchen": "kitchen p=0.5"}
# shape -> (activation probability or None for synchronous, max_lag, window, players, couplings)
DRAW_SHAPES = {
    "lasso": (0.1, 3, 20, 8, 0),
    "shared": (0.5, 5, 8, 2, 1),
    "lasso100": (0.1, 3, 20, 100, 0),
    "consensus": (None, 0, 0, 10, 0),
}


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


@contextlib.contextmanager
def using(pkg):
    """Point the module globals that ``workloads`` builds and sets up with at ``pkg``."""
    names = ("problems", "schedules", "solver", "SolverParams")
    saved = [getattr(workloads, name) for name in names]
    for name in names:
        setattr(workloads, name, getattr(pkg, name))
    try:
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(workloads, name, value)


def workload_game(pkg, name: str):
    """The workload's game and schedules, built with ``pkg``'s problems and schedules."""
    workload = workloads.WORKLOADS[name]
    with using(pkg):
        return workload.build(workload.draw(SEED))


def workload_case(pkg, name: str):
    """The workload's game, parameters and first schedule."""
    game, scheds = workload_game(pkg, name)
    schedule = scheds[0]
    return game, pkg.SolverParams.for_game(game, max_lag=schedule.max_lag,
                                           window=schedule.window), schedule


def lasso100_case(pkg, prob):
    """The 100-player lasso for ``TICKS`` ticks under the named schedule."""
    rng = np.random.default_rng(0)
    design = rng.standard_normal((40, 100)) / np.sqrt(40)
    game, _ = pkg.problems.lasso_instance(design, rng.standard_normal(40), 0.5)
    schedule = pkg.synchronous() if prob is None else pkg.randomized(0, prob, max_lag=3, window=20)
    return game, pkg.SolverParams.for_game(game, max_lag=3, window=20, max_iters=TICKS), schedule


def kitchen_case(pkg, prob):
    """The kitchen-sink game for ``TICKS`` ticks under the named schedule."""
    game = test_integration.kitchen_sink_game(pkg)
    schedule = pkg.synchronous() if prob is None else pkg.randomized(0, prob, max_lag=3, window=8)
    return game, pkg.SolverParams.for_game(game, max_lag=3, window=8, max_iters=TICKS), schedule


def solve_run(pkg, case):
    """A solve of the case's game, to tolerance or ``max_iters``."""
    game, params, schedule = case
    return lambda: solved(pkg.solve(game, params, schedule, validate=False))


def step_run(pkg, case):
    """``player_local_step`` alone, once per tick of the case's first ``TICKS`` ticks, with
    that tick's players and lags, on a state that ``max_lag`` ticks from zero filled; each
    run starts from a new such state."""
    game, params, schedule = case
    top = schedule.max_lag
    calls = []
    for n in range(TICKS):      # a lag read at tick n is read back from tick top
        info = schedule.next_tick(n, game.num_players, game.num_couplings)
        calls.append((info.active_players, {i: top - (n - t) for i, t in info.player_lags.items()}))

    def run():
        state = pkg.IterState(game, max_lag=top)
        for _ in range(top):
            pkg.tick(game, params, schedule, state)
        for players, lags in calls:
            pkg.solver.player_local_step(game, params, state, players, lags)
        return len(calls), (state.point.tobytes(), state.direction.tobytes(),
                            state.s_star.tobytes())

    return run


def coupling_run(pkg, case):
    """``coupling_local_step``, ``refresh_e`` and ``assemble_duals``, once per tick of the
    case's first ``TICKS`` ticks, with that tick's couplings and lags, on a state that
    ``max_lag`` ticks from zero filled; each run starts from a new such state."""
    game, params, schedule = case
    top = schedule.max_lag
    calls = []
    for n in range(TICKS):      # a lag read at tick n is read back from tick top
        info = schedule.next_tick(n, game.num_players, game.num_couplings)
        calls.append((info.active_couplings,
                      {k: top - (n - t) for k, t in info.coupling_lags.items()}))
    solver = pkg.solver

    def run():
        state = pkg.IterState(game, max_lag=top)
        for _ in range(top):
            pkg.tick(game, params, schedule, state)
        for couplings, lags in calls:
            if couplings:
                solver.coupling_local_step(game, params, state, couplings, lags)
            solver.refresh_e(game, state)
            solver.assemble_duals(game, state)
        return len(calls), (state.point.tobytes(), state.direction.tobytes())

    return run


def solved(result):
    return result.ticks, (result.ticks, b"".join(np.ascontiguousarray(b).tobytes() for b in result.x))


def draw_run(pkg, prob, max_lag, window, num_players, num_couplings):
    """``DRAWS`` queries of ``next_tick`` in tick order."""
    schedule = (pkg.synchronous() if prob is None
                else pkg.randomized(DRAW_SEED, prob, max_lag=max_lag, window=window))

    def run():
        ticks = [schedule.next_tick(n, num_players, num_couplings) for n in range(DRAWS)]
        return DRAWS, ticks

    return run


def comparable(output):
    """A rep's output as two checkouts compare it: ``next_tick`` records field by field,
    each lag map as its sorted items, and anything else by ``repr``."""
    if isinstance(output, list):    # the ticks of a draw_run
        return [(t.active_players, t.active_couplings, sorted(t.player_lags.items()),
                 sorted(t.coupling_lags.items())) for t in output]
    return repr(output)


def certificate_run(pkg, game):
    """``CALLS`` per-tick certificates of ``game`` at one point."""
    state = pkg.IterState(game)
    flat = state.flat
    flat[:] = np.random.default_rng(SEED).standard_normal(game.state_size)
    args = ((flat[game.x_span], flat[game.u_span], flat[game.v_span]) if hasattr(game, "v_span")
            else (state.x, state.u_star, state.v_star))

    def run():
        for _ in range(CALLS):
            cert = pkg.check_equilibrium(game, *args, coerce=False)
        return CALLS, cert

    return run


def setup_run(pkg, name: str):
    """``SETUPS`` calls of the workload's ``setup`` with ``pkg``; the last one's parameters."""
    workload = workloads.WORKLOADS[name]
    data = workload.draw(SEED)

    def run():
        with using(pkg):
            for _ in range(SETUPS):
                instance = workload.setup(data)
        return SETUPS, instance.params

    return run


def shapes(pkg, patterns=("*",)) -> dict:
    """Shape name -> (one rep, its unit) of the shapes that match one of ``patterns``,
    each rep from a cold activation cache as in the benchmark."""
    cases = {shape: lambda name=name: workload_case(pkg, name)
             for shape, name in WORKLOAD_SHAPES.items()}
    cases.update({f"lasso100 {label}": lambda p=p: lasso100_case(pkg, p) for label, p in LASSO100.items()})
    cases.update({f"kitchen {label}": lambda p=p: kitchen_case(pkg, p) for label, p in KITCHEN.items()})
    # shape -> (what builds its rep, the rep's unit); only the shapes that match are built
    makers = {shape: (lambda case=case: solve_run(pkg, case()), "tick") for shape, case in cases.items()}
    makers.update({f"step {shape}": (lambda case=case: step_run(pkg, case()), "call")
                   for shape, case in cases.items()})
    makers.update({f"coupling {shape}": (lambda case=cases[name]: coupling_run(pkg, case()), "tick")
                   for shape, name in COUPLING_SHAPES.items()})
    makers.update({f"next_tick {shape}": (lambda args=args: draw_run(pkg, *args), "call")
                   for shape, args in DRAW_SHAPES.items()})
    games = {shape: lambda name=name: workload_game(pkg, name)[0]
             for shape, name in WORKLOAD_SHAPES.items()}
    games["kitchen"] = lambda: test_integration.kitchen_sink_game(pkg)
    makers.update({f"certificate {shape}": (lambda game=game: certificate_run(pkg, game()), "call")
                   for shape, game in games.items()})
    makers.update({f"setup {shape}": (lambda name=name: setup_run(pkg, name), "call")
                   for shape, name in WORKLOAD_SHAPES.items()})

    def cold(run):
        pkg.schedules._raw_active.cache_clear()
        return run()

    return {shape: (lambda run=make(): cold(run), unit) for shape, (make, unit) in makers.items()
            if any(fnmatch.fnmatchcase(shape, pattern) for pattern in patterns)}


def repeated(run, times: int):
    """A region that runs ``run`` ``times`` times: the sum of its counts, and its last output."""
    def region():
        total = 0
        for _ in range(times):
            count, output = run()
            total += count
        return total, output

    return region


def region_times(runs) -> dict:
    """Per shape, how many runs make a region at least ``PROBE_S`` long, from one timed run."""
    times = {}
    for shape, (run, _) in runs.items():
        start = time.perf_counter()
        run()
        times[shape] = max(1, math.ceil(PROBE_S / (time.perf_counter() - start)))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", type=Path, help="a second checkout to time in interleaved pairs")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--rows", action="append", metavar="PATTERN",
                        help="time only the rows whose name matches this fnmatch pattern; repeatable")
    args = parser.parse_args(argv)

    patterns = args.rows or ["*"]
    versions = {"this": shapes(nashsplit, patterns)}
    if not versions["this"]:
        raise SystemExit(f"no row matches {patterns}")
    if args.against is not None:
        versions["against"] = shapes(load(args.against.resolve(), "nashsplit_against"), patterns)
    times = region_times(versions["this"])
    clock = Clock()
    us = {label: {shape: [] for shape in versions["this"]} for label in versions}
    for rep in range(args.reps):
        for shape in versions["this"]:
            seen = []
            # the checkouts take turns to go first, so that an order effect cancels
            for label, runs in list(versions.items())[::-1 if rep % 2 else 1]:
                (count, output), _, ref_s = clock.time(repeated(runs[shape][0], times[shape]))
                seen.append(output if runs[shape][1] == "tick" else comparable(output))
                us[label][shape].append(ref_s / count * 1e6)
            if any(output != seen[0] for output in seen):
                raise SystemExit(f"{shape}: the two checkouts give different results")
    for shape, mine in us["this"].items():
        unit = f"us/{versions['this'][shape][1]}"
        line = f"{shape:21s} {statistics.median(mine):8.1f} {unit}"
        if "against" in us:
            theirs = us["against"][shape]
            before, after = statistics.median(theirs), statistics.median(mine)
            lower = sum(a < b for a, b in zip(mine, theirs))
            line = (f"{shape:21s} {before:8.1f} -> {after:8.1f} {unit} "
                    f"({after / before - 1.0:+.1%}, lower in {lower}/{len(mine)} pairs)")
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
