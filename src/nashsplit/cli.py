"""Experiment runner: config in, trace CSV and summary out.

Configs are JSON with four sections (``problem``, ``schedule``, ``params``,
``output``) and no other top-level key; every field but the problem family
defaults to its ``Schedule`` or ``SolverParams`` field default, and every
problem key but the required ones to its builder's default. Flags are
written into their config keys before the one parse, so they get its checks:
whole-number keys must be whole, the other numeric keys JSON numbers.
The trace has one row per tick with columns ``n, pi, theta, step_norm,
kkt_residual, activated_players, activated_couplings`` (theta empty when
the scalar test was nonnegative), RFC-4180 quoting, LF line endings, and
numbers at 17 significant digits so repeated runs with one seed are
byte-identical.

Exit statuses: 0 tolerance reached, 2 tick limit (or stagnation), 3
validation refusal, 4 numerical abort, 1 config errors.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Optional

from . import problems, schedules
from .model import Game, SolverParams
from .solver import NumericalAbortError, SolveResult, solve, validate_game_and_params

__all__ = ["RunConfig", "ConfigError", "parse_config", "build_instance", "run", "main"]


def _steps(value):
    return tuple(value) if isinstance(value, list) else float(value)


_NUMBER = (int, float)   # type(True) is bool, so a JSON boolean is no number


def _numbers(value) -> bool:
    return type(value) is list and all(type(e) in _NUMBER for e in value)


def _boxes(value):
    if not value:
        raise ConfigError("consensus needs a nonempty 'boxes' list")
    return [None if b is None else tuple(b) for b in value]


def _matrix(value):
    return value


# conversion of a config value -> (the check its raw value must pass, what it must be);
# whole numbers are stored as ints, the rest as given and converted for the solve
_CHECKS = {
    int: (lambda v: type(v) is int or type(v) is float and v.is_integer(), "a whole number"),
    float: (lambda v: type(v) in _NUMBER, "a number"),
    _steps: (lambda v: type(v) in _NUMBER or _numbers(v), "a number or a list of numbers"),
    tuple: (_numbers, "a list of numbers"),
    _matrix: (lambda v: type(v) is list and all(map(_numbers, v)), "a list of lists of numbers"),
    _boxes: (lambda v: type(v) is list and all(b is None or _numbers(b) for b in v),
             "a list of nulls and lists of numbers"),
}
_SCHEDULE_TYPES = {"seed": int, "max_lag": int, "window": int, "block_size": int,
                   "activation_prob": float}
# config name -> (SolverParams field, conversion); gamma, mu and nu have no
# config default, because SolverParams.for_game derives them from the game
_PARAM_FIELDS = {
    "epsilon": ("epsilon", float), "eta": ("eta", float), "lambda": ("relaxation", float),
    "sigma": ("player_dual_steps", float), "rho": ("coupling_dual_steps", float),
    "tol": ("tol", float), "max_iters": ("max_iters", int),
    "gamma": ("strategy_steps", _steps), "mu": ("interaction_steps", _steps),
    "nu": ("coupling_steps", _steps),
}
_FROM_GAME = ("gamma", "mu", "nu")


# family -> (builder, {config key: (builder keyword, conversion)})
_FAMILIES = {
    "consensus": (problems.consensus_instance, {"boxes": ("bounds", _boxes)}),
    "matching_pennies": (problems.matching_pennies_instance, {"payoff": ("payoff", _matrix)}),
    "shared_constraint": (problems.shared_constraint_instance, {
        "targets": ("targets", tuple), "rhs": ("rhs", float), "box": ("box", tuple)}),
    "lasso": (problems.lasso_instance, {
        "design": ("design", _matrix), "rhs": ("rhs", tuple), "l1_weight": ("weight", float)}),
}
_KIND_ALIASES = {"sync": "synchronous", **{kind: kind for kind in ("synchronous", "cyclic", "random")}}
# flag -> (config section, key, argparse options)
_FLAGS = {
    "--schedule": ("schedule", "kind", {"choices": ["sync", "cyclic", "random"]}),
    "--seed": ("schedule", "seed", {"type": int}),
    "--max-lag": ("schedule", "max_lag", {"type": int}),
    "--window": ("schedule", "window", {"type": int}),
    "--max-iters": ("params", "max_iters", {"type": int}),
    "--tol": ("params", "tol", {"type": float}),
    "--trace": ("output", "trace", {}),
    "--summary": ("output", "summary", {}),
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

    def canonical(self) -> str:
        """Canonical JSON form; parse(canonical()) reproduces the config."""
        payload = {
            "problem": dict(self.problem),
            "schedule": dict(self.schedule),
            "params": dict(self.params),
            "output": {"trace": self.trace_path, "summary": self.summary_path},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config, applying defaults.

    Raises :class:`ConfigError` with the line and column of a syntax
    error, or with a description of the first semantic problem (unknown
    family, unknown keys, badly typed values, bad dimensions).
    """
    return _parse(_load(text))


def _load(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _section(raw: dict, name: str, defaults: Mapping[str, Any], types: Mapping[str, Any],
             optional=()) -> dict:
    """A config section over its defaults, each value of ``types`` checked for its conversion."""
    given = raw.get(name, {})
    if not isinstance(given, dict):
        raise ConfigError(f"'{name}' must be an object")
    unknown = set(given) - set(defaults) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    section = {**defaults, **given}
    for key, convert in types.items():
        if key in section:
            _check(name, key, section[key], convert)
            if convert is int:
                section[key] = int(section[key])
    return section


def _check(name: str, key: str, value, convert) -> None:
    """Refuse a value of section ``name`` that fails the check of its conversion."""
    test, what = _CHECKS[convert]
    if not test(value):
        raise ConfigError(f"bad configuration values: {name} {key} must be {what}, got {value!r}")


def _parse(raw: dict) -> RunConfig:
    unknown = set(raw) - {"problem", "schedule", "params", "output"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")

    problem = raw.get("problem")
    if not isinstance(problem, dict) or "family" not in problem:
        raise ConfigError("config needs a 'problem' object with a 'family'")

    sched = _section(raw, "schedule", {f.name: f.default for f in fields(schedules.Schedule)},
                     _SCHEDULE_TYPES)
    kind = _KIND_ALIASES.get(str(sched["kind"]))
    if kind is None:
        raise ConfigError(f"unknown schedule kind {sched['kind']!r}")
    sched["kind"] = kind
    for key, convert in _SCHEDULE_TYPES.items():
        if convert is int and sched[key] < 0:
            raise ConfigError(f"schedule {key} must be nonnegative")

    solver = {f.name: f.default for f in fields(SolverParams)}
    defaults = {key: solver[field] for key, (field, _) in _PARAM_FIELDS.items() if key not in _FROM_GAME}
    types = {key: convert for key, (_, convert) in _PARAM_FIELDS.items()}
    params = _section(raw, "params", defaults, types, optional=_FROM_GAME)

    output = _section(raw, "output", dict.fromkeys(("trace", "summary")), {})
    return RunConfig(problem, sched, params, output["trace"], output["summary"])


def build_instance(problem: Mapping[str, Any]):
    """Build the game named by a config problem section.

    Each key of the section goes to its ``_FAMILIES`` builder keyword
    through its conversion; a key the section leaves out takes the
    builder's default, and one without a default must be given. Values
    must be as JSON decodes them: numbers, list entries and matrix entries
    are plain ``int``/``float`` (no ``bool``, string or numpy scalar), and
    vectors and matrices are lists (matrices row-major lists of rows), not
    tuples or arrays. Call the ``problems`` builders directly for those.
    """
    family = problem.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"unknown problem family {family!r}")
    builder, keys = _FAMILIES[family]
    options = {k: v for k, v in problem.items() if k != "family"}
    unknown = set(options) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {family} keys: {sorted(unknown)}")
    required = {name for name, p in inspect.signature(builder).parameters.items()
                if p.default is inspect.Parameter.empty}
    missing = [k for k, (kw, _) in keys.items() if kw in required and k not in options]
    if missing:
        raise ConfigError(f"bad problem parameters for family {family!r}: missing keys {missing}")
    for key, value in options.items():
        _check("problem", key, value, keys[key][1])
    try:
        return builder(**{keys[k][0]: keys[k][1](v) for k, v in options.items()})
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem parameters for family {family!r}: {exc}") from exc


def build_solver_inputs(config: RunConfig, game: Game):
    """Schedule and solver parameters from a parsed config; the schedule alone holds the lags."""
    schedule = schedules.Schedule(**config.schedule)
    overrides = {field: convert(config.params[key])
                 for key, (field, convert) in _PARAM_FIELDS.items() if key in config.params}
    return schedule, SolverParams.for_game(game, **overrides)


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
    issues = validate_game_and_params(game, params) + schedules.audit(
        schedule, audit_horizon, game.num_players, game.num_couplings)
    if issues:
        print("validation refused the run:", file=err)
        for line in issues[:12]:
            print(f"  - {line}", file=err)
        if len(issues) > 12:
            print(f"  ... and {len(issues) - 12} more", file=err)
        return 3

    started = time.perf_counter()
    try:
        result = solve(game, params, schedule, validate=False)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nashsplit", description="Block-iterative Nash equilibrium solver")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("solve", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    for flag, (_, key, options) in _FLAGS.items():
        run_p.add_argument(flag, dest=key, **options)
    args = vars(parser.parse_args(argv))

    try:
        text = Path(args["config"]).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        raw = _load(text)
        for section, key, _ in _FLAGS.values():   # a flag is parsed as its file key
            target = raw.setdefault(section, {})
            if args[key] is not None and isinstance(target, dict):
                target[key] = args[key]
        config = _parse(raw)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
