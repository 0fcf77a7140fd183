"""nashsplit benchmark: time to a certified equilibrium, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the traced pass and reports
the per-layer metrics. Both check every solve against an independent
reference and against each other bitwise. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The metric map is
in perfbench/README.md.

Load model: one client, closed loop. A single process and thread runs one
``solve`` at a time and starts the next when the previous one returns.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

import nashsplit  # noqa: E402
from nashsplit import schedules, solver  # noqa: E402
import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import AGREE_TOL, WORKLOADS, agreement_error, digest  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 51
MIN_SOLVES = 3
PROBE_TIMEOUT_S = 150


@dataclass
class Run:
    """One attempted solve: its time, outcome and correctness problems.

    ``seconds`` is in reference-core seconds (see calibration.py), ``wall``
    is the raw wall time.
    """

    seconds: float
    wall: float
    schedule: int = 0           # index into the instance's schedules
    ticks: Optional[int] = None
    digest: Optional[str] = None
    problems: list = field(default_factory=list)
    stats: Optional[dict] = None


def tick_stats(reports) -> dict:
    """Schedule and projection context summed over a solve's tick reports."""
    return {
        "ticks": len(reports),
        "updates": sum(r.theta is not None for r in reports),
        "active": sum(len(r.active_players) + len(r.active_couplings) for r in reports),
        "lag": sum(r.n - lag for r in reports
                   for lag in (*r.player_lags.values(), *r.coupling_lags.values())),
    }


def gate(result, inst, reference) -> list:
    """Correctness problems of one solve result (empty means it passed)."""
    problems = []
    if result.status != "converged":
        problems.append(f"status {result.status!r} after {result.ticks} ticks")
    residual = result.certificate.max_residual
    if not residual <= inst.params.tol:
        problems.append(f"final certificate {residual:.3e} > tol {inst.params.tol:g}")
    err = agreement_error(result, reference)
    if not err <= AGREE_TOL:
        problems.append(f"reference disagreement {err:.3e} > {AGREE_TOL:g}")
    return problems


def clear_activation_cache() -> None:
    """Give every timed solve the cold activation cache that a process's first solve sees."""
    cache = getattr(schedules, "_raw_active", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()


def timed_solve(clock, game, inst, index: int, reference, *, parallel=False) -> Run:
    """Solve with the instance's schedule ``index`` and check the result."""

    def attempt():
        clear_activation_cache()
        try:
            return solver.solve(game, inst.params, inst.schedules[index], validate=False,
                                parallel=parallel)
        except Exception as exc:  # a failing solve is counted, never dropped
            return exc

    gc.collect()
    result, wall, seconds = clock.time(attempt)
    if isinstance(result, Exception):
        return Run(seconds, wall, index, problems=[f"solve raised {result!r}"])
    return Run(seconds, wall, index, result.ticks, digest(result), gate(result, inst, reference),
               tick_stats(result.reports))


def next_fits(start: float, seconds: float, walls) -> bool:
    """Whether one more solve of the median length still ends within ``seconds`` of ``start``."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def require_identical(runs, what: str) -> None:
    """Flag every run whose final tuple or tick count differs from the first with its schedule."""
    expected = {}
    for r in runs:
        if r.digest is not None:
            expected.setdefault(r.schedule, r.digest)
    for r in runs:
        if r.digest is not None and r.digest != expected[r.schedule]:
            r.problems.append(f"{what}: final tuple or ticks differ bitwise from the first solve")


def timed_setups(workload, data):
    """Set up ``SETUP_REPEATS`` times; the instance, and wall and reference-core times."""

    def batch():
        walls = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            inst = workload.setup(data)
            walls.append(time.perf_counter() - start)
        return inst, walls

    (inst, walls), batch_wall, batch_seconds = calibration.Clock().time(batch)
    return inst, walls, [w * batch_seconds / batch_wall for w in walls]


def memory_probe(name: str, seed: int):
    """Peak RSS in MiB of a fresh process that sets up and solves once, and its outcome."""
    cmd = [sys.executable, str(HERE / "memprobe.py"), "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=bootstrap.ROOT)
    except subprocess.TimeoutExpired:
        wall = time.perf_counter() - start
        return 0.0, Run(wall, wall, problems=["memory probe timed out"])
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    wall = time.perf_counter() - start
    run = Run(wall, wall)
    if proc.returncode != 0:
        run.problems.append(f"memory probe exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    else:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        run.ticks, run.digest = out["ticks"], out["digest"]
    return peak_mb, run


def machine_info(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nashsplit": nashsplit.__version__,
        "workload_seed": seed,
        "blas_threads": {v: os.environ[v] for v in bootstrap.BLAS_THREAD_VARS},
    }


def tail_note(samples) -> str:
    """The highest percentile with at least ten samples beyond it, if the run has one."""
    n = len(samples)
    if n < 20:
        return f"max {max(samples):.4f} s; no percentile above the median has ten samples beyond it"
    q = int(100 * (n - 10) / n)
    return f"p{q} {float(np.percentile(samples, q)):.4f} s"


def measure(workload, seed: int, seconds: float):
    """Untraced pass: the end-to-end metrics."""
    data = workload.draw(seed)
    inst, setup_walls, setup_times = timed_setups(workload, data)
    reference = workload.reference(inst, data)
    k = len(inst.schedules)
    clock = calibration.Clock()
    runs = []
    start = time.perf_counter()
    while len(runs) < max(MIN_SOLVES, k) or next_fits(start, seconds, [r.wall for r in runs]):
        runs.append(timed_solve(clock, inst.game, inst, len(runs) % k, reference))
    peak_mb, probe = memory_probe(workload.name, seed)
    require_identical(runs + [probe], "determinism")

    ticked = [r for r in runs if r.ticks]
    first_ticks = {r.schedule: r.ticks for r in reversed(ticked)}
    metrics = {
        "solve_s": (statistics.median(r.seconds for r in runs), "s"),
        "ticks": (statistics.fmean(first_ticks.values()) if first_ticks else 0, "count"),
        "us_per_tick": (statistics.median(1e6 * r.seconds / r.ticks for r in ticked) if ticked else 0,
                        "us"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_mem_mb": (peak_mb, "MiB"),
    }
    notes = [
        f"solve_s: median of {len(runs)} solves over {k} schedule(s); "
        f"{tail_note([r.seconds for r in runs])}",
        f"ticks: mean over the {k} schedule(s) of {sorted(first_ticks.values())}",
        f"solve_s as raw wall time: median {statistics.median(r.wall for r in runs):.4f} s",
        f"setup_s: median of {SETUP_REPEATS} set-ups; raw wall median "
        f"{statistics.median(setup_walls):.4f} s",
        "times are reference-core seconds (see perfbench/calibration.py)",
        "peak_mem_mb: peak RSS of a separate process that sets up and solves once",
    ]
    return runs + [probe], metrics, notes


def trace(workload, seed: int, seconds: float):
    """Traced pass: the per-layer metrics, next to untraced and thread-mode solves."""
    data = workload.draw(seed)
    setup_tracer = tracing.Tracer()
    with setup_tracer.patched(tracing.SETUP_TARGETS):
        inst, setup_walls, setup_times = timed_setups(workload, data)
    setup_speed = sum(setup_times) / sum(setup_walls)
    reference = workload.reference(inst, data)

    tracer = tracing.Tracer()
    traced_game = tracer.traced_game(inst.game)
    clock = calibration.Clock()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or next_fits(start, seconds, [p.wall + t.wall for p, t in zip(plain, traced)]):
        index = len(plain) % len(inst.schedules)
        plain.append(timed_solve(clock, inst.game, inst, index, reference))
        with tracer.patched(tracing.SOLVE_TARGETS):
            traced.append(timed_solve(clock, traced_game, inst, index, reference))
    thread = timed_solve(clock, inst.game, inst, 0, reference, parallel=True)
    thread_equal = thread.digest is not None and thread.digest == plain[0].digest
    require_identical(plain + traced, "traced vs untraced")

    # Counts are totals over all traced solves, divided by their total ticks.
    totals = {key: sum(r.stats[key] for r in traced if r.stats)
              for key in ("ticks", "updates", "active", "lag")}
    ticks = max(totals["ticks"], 1)
    active = max(totals["active"], 1)
    num_blocks = inst.game.num_players + inst.game.num_couplings
    n = len(traced)
    plain_s = statistics.median(r.seconds for r in plain)
    traced_s = statistics.median(r.seconds for r in traced)
    # Span times are wall times; convert them at the traced solves' mean core speed.
    speed = sum(r.seconds for r in traced) / sum(r.wall for r in traced)

    def self_s(*names):
        return speed * sum(tracer.self_s[name] for name in names) / n

    def per_tick(*names):
        return sum(tracer.calls[name] for name in names) / ticks

    step_per_active = tracer.calls["proximal.prox.step"] / active
    if step_per_active != 1.0:
        traced[0].problems.append(
            f"step prox calls per active block is {step_per_active!r}, not 1.0: "
            "inactive blocks evaluated prox or active blocks skipped it"
        )
    linop_names = ("linops.apply", "linops.adjoint_apply")
    prox_names = ("proximal.prox.step", "proximal.prox.cert")
    next_tick_calls = max(tracer.calls["schedules.next_tick"], 1)
    metrics = {
        "problems.interaction_eval.self_s": (self_s("problems.interaction_eval"), "s"),
        "problems.interaction_eval.calls_per_tick": (per_tick("problems.interaction_eval"), "calls/tick"),
        "oracle.check_equilibrium.self_s": (self_s("oracle.check_equilibrium"), "s"),
        "oracle.check_equilibrium.share": (
            tracer.total_s["oracle.check_equilibrium"] / tracer.total_s["solver.solve_other"], "ratio"),
        "solver.player_local_step.self_s": (self_s("solver.player_local_step"), "s"),
        "solver.player_local_step.calls_per_tick": (per_tick("solver.player_local_step"), "calls/tick"),
        "solver.coupling_local_step.self_s": (self_s("solver.coupling_local_step"), "s"),
        "solver.coupling_local_step.calls_per_tick": (per_tick("solver.coupling_local_step"), "calls/tick"),
        "solver.refresh_e.self_s": (self_s("solver.refresh_e"), "s"),
        "solver.assemble_duals.self_s": (self_s("solver.assemble_duals"), "s"),
        "solver.compute_pi.self_s": (self_s("solver.compute_pi"), "s"),
        "solver.apply_update.self_s": (self_s("solver.apply_update"), "s"),
        "solver.push_history.self_s": (self_s("solver.push_history"), "s"),
        "solver.solve_other.self_s": (self_s("solver.solve_other"), "s"),
        "schedules.next_tick.self_s": (self_s("schedules.next_tick"), "s"),
        "schedules.next_tick.us_per_call": (
            1e6 * speed * tracer.self_s["schedules.next_tick"] / next_tick_calls, "us"),
        "proximal.prox.self_s": (self_s(*prox_names), "s"),
        "proximal.prox.step_calls_per_tick": (per_tick("proximal.prox.step"), "calls/tick"),
        "proximal.prox.cert_calls_per_tick": (per_tick("proximal.prox.cert"), "calls/tick"),
        "proximal.prox.step_calls_per_active_block": (step_per_active, "calls/block"),
        "model.smooth_grad.self_s": (self_s("model.smooth_grad"), "s"),
        "model.smooth_grad.calls_per_tick": (per_tick("model.smooth_grad"), "calls/tick"),
        "linops.self_s": (self_s(*linop_names), "s"),
        "linops.apply.calls_per_tick": (per_tick("linops.apply"), "calls/tick"),
        "linops.adjoint_apply.calls_per_tick": (per_tick("linops.adjoint_apply"), "calls/tick"),
        "model.validate_problem.self_s": (
            setup_speed * setup_tracer.self_s["model.validate_problem"] / SETUP_REPEATS, "s"),
        "model.validate_params.self_s": (
            setup_speed * setup_tracer.self_s["model.validate_params"] / SETUP_REPEATS, "s"),
        "solver.update_ratio": (totals["updates"] / ticks, "ratio"),
        "solver.active_fraction": (totals["active"] / (ticks * num_blocks), "ratio"),
        "solver.mean_read_lag": (totals["lag"] / active, "ticks"),
        "solver.thread_mode_ratio": (thread.seconds / plain_s, "ratio"),
        "solver.thread_mode_bitwise_equal": (1.0 if thread_equal else 0.0, "bool"),
        "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
        "trace.accounted_share": (
            sum(tracer.self_s.values()) / sum(r.wall for r in traced), "ratio"),
    }
    notes = [
        f"{n} traced and {len(plain)} untraced solves, {ticks} traced ticks in all; "
        "self times are per traced solve",
        f"untraced solve_s {plain_s:.4f} s, traced {traced_s:.4f} s, thread mode {thread.seconds:.4f} s",
        f"thread-mode final tuple bitwise equal: {thread_equal}",
    ]
    return plain + traced + [thread], metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="nashsplit time-to-certificate benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    print(json.dumps({"workload": workload.name, "trace": args.trace, **machine_info(args.seed)}))
    runs, metrics, notes = (trace if args.trace else measure)(workload, args.seed, args.seconds)

    failed = [r for r in runs if r.problems]
    for r in failed:
        print("FAILED: " + "; ".join(r.problems))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(f"{'failed_share':45s} {len(failed) / len(runs):.6g} ({len(failed)} of {len(runs)} solves)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
