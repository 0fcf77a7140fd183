"""Experiment runner: config in, trace CSV and summary out.

Configs are JSON with four sections (``problem``, ``schedule``,
``params``, ``output``); every field beyond the problem family has a
default, and command-line flags override the file. The trace has one row
per tick with columns ``n, pi, theta, step_norm, kkt_residual,
activated_players, activated_couplings`` (theta empty when the scalar
test was nonnegative), RFC-4180 quoting, LF line endings, and numbers at
17 significant digits so repeated runs with one seed are byte-identical
in simulated-async mode.

Exit statuses: 0 tolerance reached, 2 tick limit (or stagnation), 3
validation refusal, 4 numerical abort, 1 config errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

from . import problems, schedules
from .model import Game, SolverParams, validate_params, validate_problem
from .solver import NumericalAbortError, SolveResult, solve

__all__ = ["RunConfig", "ConfigError", "parse_config", "build_instance", "run", "main"]

_PARAM_DEFAULTS = {
    "epsilon": 0.01,
    "eta": 0.1,
    "lambda": 1.8,
    "sigma": 1.0,
    "rho": 1.0,
    "tol": 1e-8,
    "max_iters": 100_000,
}

_SCHEDULE_DEFAULTS = {
    "kind": "synchronous",
    "seed": 0,
    "max_lag": 0,
    "window": 0,
    "activation_prob": 0.5,
    "block_size": 1,
}


class ConfigError(ValueError):
    """A config failed to parse or failed semantic validation."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed experiment description with defaults applied."""

    problem: Mapping[str, Any]
    schedule: Mapping[str, Any]
    params: Mapping[str, Any]
    trace_path: Optional[str] = None
    summary_path: Optional[str] = None
    parallel: bool = False

    def canonical(self) -> str:
        """Canonical JSON form; parse(canonical()) reproduces the config."""
        payload = {
            "problem": dict(self.problem),
            "schedule": dict(self.schedule),
            "params": dict(self.params),
            "output": {"trace": self.trace_path, "summary": self.summary_path},
            "parallel": self.parallel,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


_KIND_ALIASES = {"sync": "synchronous", "synchronous": "synchronous",
                 "cyclic": "cyclic", "random": "random"}


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config, applying defaults.

    Raises :class:`ConfigError` with the line and column of a syntax
    error, or with a description of the first semantic problem (unknown
    family, unknown keys, bad dimensions).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"problem", "schedule", "params", "output", "parallel"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")

    problem = raw.get("problem")
    if not isinstance(problem, dict) or "family" not in problem:
        raise ConfigError("config needs a 'problem' object with a 'family'")

    sched = dict(_SCHEDULE_DEFAULTS)
    sched_in = raw.get("schedule", {})
    if not isinstance(sched_in, dict):
        raise ConfigError("'schedule' must be an object")
    bad = set(sched_in) - set(_SCHEDULE_DEFAULTS)
    if bad:
        raise ConfigError(f"unknown schedule keys: {sorted(bad)}")
    sched.update(sched_in)
    kind = _KIND_ALIASES.get(str(sched["kind"]))
    if kind is None:
        raise ConfigError(f"unknown schedule kind {sched['kind']!r}")
    sched["kind"] = kind
    for key in ("seed", "max_lag", "window", "block_size"):
        sched[key] = int(sched[key])
        if sched[key] < 0:
            raise ConfigError(f"schedule {key} must be nonnegative")

    params = dict(_PARAM_DEFAULTS)
    params_in = raw.get("params", {})
    if not isinstance(params_in, dict):
        raise ConfigError("'params' must be an object")
    bad = set(params_in) - (set(_PARAM_DEFAULTS) | {"gamma", "mu", "nu"})
    if bad:
        raise ConfigError(f"unknown params keys: {sorted(bad)}")
    params.update(params_in)
    params["max_iters"] = int(params["max_iters"])

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("'output' must be an object")
    bad = set(output) - {"trace", "summary"}
    if bad:
        raise ConfigError(f"unknown output keys: {sorted(bad)}")

    return RunConfig(
        problem=problem,
        schedule=sched,
        params=params,
        trace_path=output.get("trace"),
        summary_path=output.get("summary"),
        parallel=bool(raw.get("parallel", False)),
    )


def build_instance(problem: Mapping[str, Any]):
    """Build the game named by a config problem section.

    Families: ``consensus`` (boxes), ``matching_pennies`` (payoff),
    ``shared_constraint`` (targets, rhs, box), ``lasso`` (design, rhs,
    l1_weight). Matrices are given as row-major lists of rows.
    """
    family = problem.get("family")
    options = {k: v for k, v in problem.items() if k != "family"}
    try:
        if family == "consensus":
            bounds = options.pop("boxes")
            if not isinstance(bounds, list) or not bounds:
                raise ConfigError("consensus needs a nonempty 'boxes' list")
            return problems.consensus_instance(
                [None if b is None else tuple(b) for b in bounds], **options
            )
        if family == "matching_pennies":
            payoff = options.pop("payoff", ((1.0, -1.0), (-1.0, 1.0)))
            if options:
                raise ConfigError(f"unknown matching_pennies keys: {sorted(options)}")
            return problems.matching_pennies_instance(payoff)
        if family == "shared_constraint":
            targets = options.pop("targets", (1.0, 2.0))
            rhs = options.pop("rhs", 5.0)
            box = options.pop("box", (0.0, 10.0))
            if options:
                raise ConfigError(f"unknown shared_constraint keys: {sorted(options)}")
            return problems.shared_constraint_instance(tuple(targets), float(rhs), tuple(box))
        if family == "lasso":
            design = options.pop("design")
            rhs = options.pop("rhs")
            weight = float(options.pop("l1_weight", 1.0))
            if options:
                raise ConfigError(f"unknown lasso keys: {sorted(options)}")
            return problems.lasso_instance(design, rhs, weight)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem parameters for family {family!r}: {exc}") from exc
    raise ConfigError(f"unknown problem family {family!r}")


def build_solver_inputs(config: RunConfig, game: Game):
    """Schedule and solver parameters from a parsed config."""
    sc = config.schedule
    schedule = schedules.Schedule(
        kind=sc["kind"],
        max_lag=sc["max_lag"],
        window=sc["window"],
        block_size=sc["block_size"],
        seed=sc["seed"],
        activation_prob=float(sc["activation_prob"]),
    )
    pr = dict(config.params)
    overrides = {}
    for key, name in (("gamma", "strategy_steps"), ("mu", "interaction_steps"), ("nu", "coupling_steps")):
        if key in pr:
            val = pr.pop(key)
            overrides[name] = tuple(val) if isinstance(val, list) else float(val)
    params = SolverParams.for_game(
        game,
        epsilon=float(pr["epsilon"]),
        eta=float(pr["eta"]),
        max_lag=sc["max_lag"],
        window=sc["window"],
        relaxation=float(pr["lambda"]),
        player_dual_steps=float(pr["sigma"]),
        coupling_dual_steps=float(pr["rho"]),
        max_iters=int(pr["max_iters"]),
        tol=float(pr["tol"]),
        **overrides,
    )
    return schedule, params


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_trace(path: str, reports) -> None:
    """Trace CSV: one row per tick, LF endings, 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["n", "pi", "theta", "step_norm", "kkt_residual",
             "activated_players", "activated_couplings"]
        )
        for rep in reports:
            writer.writerow([
                rep.n,
                _fmt(rep.pi),
                "" if rep.theta is None else _fmt(rep.theta),
                _fmt(rep.step_norm),
                _fmt(rep.kkt_residual),
                " ".join(str(i) for i in rep.active_players),
                " ".join(str(k) for k in rep.active_couplings),
            ])


def write_summary(path: str, config: RunConfig, result: SolveResult, elapsed: float) -> None:
    cert = result.certificate
    lines = [
        f"status: {result.status}",
        f"ticks: {result.ticks}",
        f"wall_time_s: {elapsed:.6f}",
    ]
    for i, block in enumerate(result.x):
        lines.append(f"x[{i}]: [{', '.join(_fmt(v) for v in block)}]")
    for k, block in enumerate(result.v_star):
        lines.append(f"v_star[{k}]: [{', '.join(_fmt(v) for v in block)}]")
        lines.append(f"multiplier[{k}]: [{', '.join(_fmt(-v) for v in block)}]")
    lines.append(f"max_residual: {_fmt(cert.max_residual)}")
    lines.append(f"player_residuals: [{', '.join(_fmt(v) for v in cert.player_residuals)}]")
    lines.append(f"interaction_residuals: [{', '.join(_fmt(v) for v in cert.interaction_residuals)}]")
    lines.append(f"coupling_residuals: [{', '.join(_fmt(v) for v in cert.coupling_residuals)}]")
    lines.append(f"feasibility_gaps: [{', '.join(_fmt(v) for v in cert.feasibility_gaps)}]")
    lines.append("config:")
    lines.extend("  " + ln for ln in config.canonical().splitlines())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(config: RunConfig, out=None, err=None) -> int:
    """Validate, solve, and write artifacts. Returns the process exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        game, _meta = build_instance(config.problem)
        schedule, params = build_solver_inputs(config, game)
    except ConfigError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except (TypeError, ValueError) as exc:
        print(f"error: bad configuration values: {exc}", file=err)
        return 1

    audit_horizon = min(4 * (schedule.window + 1) + 64, params.max_iters)
    issues = (
        validate_problem(game)
        + validate_params(game, params, horizon=1000)
        + schedules.audit(schedule, audit_horizon, game.num_players, game.num_couplings)
    )
    if issues:
        print("validation refused the run:", file=err)
        for line in issues[:12]:
            print(f"  - {line}", file=err)
        if len(issues) > 12:
            print(f"  ... and {len(issues) - 12} more", file=err)
        return 3

    started = time.perf_counter()
    try:
        result = solve(
            game, params, schedule, parallel=config.parallel, validate=False
        )
    except NumericalAbortError as exc:
        print(f"numerical abort: {exc}", file=err)
        return 4
    elapsed = time.perf_counter() - started

    if config.trace_path:
        write_trace(config.trace_path, result.reports)
    if config.summary_path:
        write_summary(config.summary_path, config, result, elapsed)
    final = ", ".join(_fmt(v) for block in result.x for v in block)
    print(
        f"{result.status} after {result.ticks} ticks "
        f"(residual {_fmt(result.certificate.max_residual)}); x = [{final}]",
        file=out,
    )
    return 0 if result.status == "converged" else 2


def _apply_flag_overrides(config: RunConfig, args) -> RunConfig:
    sched = dict(config.schedule)
    params = dict(config.params)
    if args.schedule is not None:
        sched["kind"] = _KIND_ALIASES.get(args.schedule, args.schedule)
    if args.seed is not None:
        sched["seed"] = args.seed
    if args.max_lag is not None:
        sched["max_lag"] = args.max_lag
    if args.window is not None:
        sched["window"] = args.window
    if args.max_iters is not None:
        params["max_iters"] = args.max_iters
    if args.tol is not None:
        params["tol"] = args.tol
    return RunConfig(
        problem=config.problem,
        schedule=sched,
        params=params,
        trace_path=args.trace if args.trace is not None else config.trace_path,
        summary_path=args.summary if args.summary is not None else config.summary_path,
        parallel=config.parallel or args.parallel,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nashsplit", description="Block-iterative Nash equilibrium solver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("solve", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--schedule", choices=["sync", "cyclic", "random"], default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--max-lag", dest="max_lag", type=int, default=None)
    run_p.add_argument("--window", type=int, default=None)
    run_p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    run_p.add_argument("--tol", type=float, default=None)
    run_p.add_argument("--trace", default=None)
    run_p.add_argument("--summary", default=None)
    run_p.add_argument("--parallel", action="store_true")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(_apply_flag_overrides(config, args))


if __name__ == "__main__":
    sys.exit(main())
