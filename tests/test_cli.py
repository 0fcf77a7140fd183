"""Config parsing, trace/summary writing, exit statuses."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nashsplit import problems
from nashsplit.cli import (
    ConfigError, build_instance, build_solver_inputs, main, parse_config, write_trace,
)
from nashsplit.model import SolverParams
from nashsplit.schedules import Schedule
from nashsplit.solver import solve


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


def consensus_payload(tmp_path, **extra):
    payload = {
        "problem": {"family": "consensus", "boxes": [[2, 3], [0, 1]]},
        "output": {
            "trace": str(tmp_path / "trace.csv"),
            "summary": str(tmp_path / "summary.txt"),
        },
    }
    payload.update(extra)
    return payload


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        config = parse_config('{"problem": {"family": "consensus", "boxes": [[2,3],[0,1]]}}')
        assert config.params["epsilon"] == 0.01
        assert config.params["eta"] == 0.1
        assert config.params["sigma"] == 1.0
        assert config.params["rho"] == 1.0
        assert config.params["lambda"] == 1.8
        assert config.params["tol"] == 1e-8
        assert config.params["max_iters"] == 100_000
        assert config.schedule["kind"] == "synchronous"

    def test_round_trip_canonical_form(self):
        text = json.dumps({
            "problem": {"family": "consensus", "boxes": [[2, 3], [0, 1]]},
            "schedule": {"kind": "random", "seed": 42, "max_lag": 3, "window": 2},
            "params": {"tol": 1e-6},
        })
        config = parse_config(text)
        again = parse_config(config.canonical())
        assert again == config

    def test_schedule_echoed_in_canonical(self):
        config = parse_config(json.dumps({
            "problem": {"family": "consensus", "boxes": [[2, 3], [0, 1]]},
            "schedule": {"kind": "random", "seed": 42, "max_lag": 3, "window": 2},
        }))
        canon = json.loads(config.canonical())
        assert canon["schedule"]["seed"] == 42
        assert canon["schedule"]["max_lag"] == 3
        assert canon["schedule"]["window"] == 2

    def test_malformed_literal_reports_location(self):
        bad = '{\n  "problem": {"family": "consensus", "boxes": [[2, 3], [0, 1e+]]}\n}'
        with pytest.raises(ConfigError, match=r"line 2, column"):
            parse_config(bad)

    def test_unknown_family_rejected(self, tmp_path):
        from nashsplit.cli import build_instance

        with pytest.raises(ConfigError, match="unknown problem family"):
            build_instance({"family": "tic_tac_toe"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown schedule keys"):
            parse_config(json.dumps({
                "problem": {"family": "consensus", "boxes": [[0, 1]]},
                "schedule": {"knid": "sync"},
            }))


class TestRun:
    def test_consensus_sync_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, consensus_payload(tmp_path))
        code = main(["solve", "--config", str(path)])
        assert code == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "status: converged" in summary
        x0 = float(summary.split("x[0]: [")[1].split("]")[0])
        x1 = float(summary.split("x[1]: [")[1].split("]")[0])
        assert abs(x0 - 2.0) <= 1e-5 and abs(x1 - 1.0) <= 1e-5

    def test_random_schedule_deterministic_trace(self, tmp_path):
        payload = consensus_payload(
            tmp_path,
            schedule={"kind": "random", "seed": 7, "max_lag": 5, "window": 4},
        )
        path = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 0
        first = (tmp_path / "trace.csv").read_bytes()
        summary = (tmp_path / "summary.txt").read_text()
        x0 = float(summary.split("x[0]: [")[1].split("]")[0])
        x1 = float(summary.split("x[1]: [")[1].split("]")[0])
        assert abs(x0 - 2.0) <= 1e-4 and abs(x1 - 1.0) <= 1e-4
        assert main(["solve", "--config", str(path)]) == 0
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_epsilon_violation_exits_3(self, tmp_path, capsys):
        payload = consensus_payload(tmp_path, params={"epsilon": 0.6})
        path = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 3
        assert "validation refused" in capsys.readouterr().err

    def test_zero_eta_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path, consensus_payload(tmp_path, params={"eta": 0}))
        assert main(["solve", "--config", str(path)]) == 3
        assert "eta must be positive, got 0.0" in capsys.readouterr().err

    def test_uncovering_cyclic_schedule_exits_3(self, tmp_path, capsys):
        # cyclic singles with window 0 cannot cover two players per window
        payload = consensus_payload(
            tmp_path, schedule={"kind": "cyclic", "window": 0, "block_size": 1}
        )
        path = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 3
        assert "never activated" in capsys.readouterr().err
        payload["schedule"]["window"] = 1
        path = write_config(tmp_path, payload, name="ok.json")
        assert main(["solve", "--config", str(path)]) == 0

    def test_tick_limit_exits_2(self, tmp_path):
        payload = consensus_payload(tmp_path, params={"max_iters": 3, "tol": 1e-14})
        path = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 2

    def test_parse_error_exits_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"problem": {"family": }', encoding="utf-8")
        assert main(["solve", "--config", str(path)]) == 1

    def test_badly_typed_params_exit_1(self, tmp_path, capsys):
        payload = consensus_payload(tmp_path, params={"tol": "tiny"})
        path = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 1
        assert "bad configuration values" in capsys.readouterr().err

    def test_bad_schedule_value_exits_1(self, tmp_path, capsys):
        payload = consensus_payload(tmp_path, schedule={"kind": "random", "activation_prob": 0})
        path = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 1
        assert "activation_prob" in capsys.readouterr().err

    def test_wrong_length_step_list_exits_3(self, tmp_path, capsys):
        payload = consensus_payload(tmp_path, params={"gamma": [0.5]})
        path = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 3
        assert "schedule evaluation failed" in capsys.readouterr().err

    def test_trace_schema(self, tmp_path):
        path = write_config(tmp_path, consensus_payload(tmp_path))
        assert main(["solve", "--config", str(path)]) == 0
        raw = (tmp_path / "trace.csv").read_bytes()
        assert b"\r" not in raw
        with open(tmp_path / "trace.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "n", "pi", "theta", "step_norm", "kkt_residual",
            "activated_players", "activated_couplings",
        ]
        assert len(rows) >= 2
        body = rows[1]
        assert body[0] == "0"
        assert body[5] == "0 1"
        assert body[6] == ""
        float(body[1]), float(body[3]), float(body[4])

    def test_theta_blank_when_scalar_test_nonnegative(self, tmp_path):
        # zeros is already an equilibrium of this instance: one frozen tick
        payload = {
            "problem": {"family": "consensus", "boxes": [[0, 1], [0, 1]]},
            "output": {"trace": str(tmp_path / "t.csv"), "summary": str(tmp_path / "s.txt")},
        }
        path = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 0
        with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][1] == "0"          # pi == 0.0 formats as "0"
        assert rows[1][2] == ""           # theta column empty

    def test_flag_overrides(self, tmp_path):
        payload = consensus_payload(tmp_path)
        path = write_config(tmp_path, payload)
        code = main([
            "solve", "--config", str(path), "--schedule", "random", "--seed", "3",
            "--max-lag", "4", "--window", "3", "--max-iters", "50000", "--tol", "1e-7",
        ])
        assert code == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert '"seed": 3' in summary
        assert '"kind": "random"' in summary

    def test_shared_constraint_family_runs(self, tmp_path):
        payload = {
            "problem": {"family": "shared_constraint", "targets": [1, 2], "rhs": 5,
                         "box": [0, 10]},
            "output": {"summary": str(tmp_path / "s.txt")},
        }
        path = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 0
        summary = (tmp_path / "s.txt").read_text()
        mult = float(summary.split("multiplier[0]: [")[1].split("]")[0])
        assert abs(mult - 1.0) <= 1e-4

    def test_numerical_abort_exits_4(self, tmp_path, monkeypatch, capsys):
        import nashsplit.cli as cli_mod
        from nashsplit.solver import NumericalAbortError

        def explode(*args, **kwargs):
            raise NumericalAbortError("synthetic corruption")

        monkeypatch.setattr(cli_mod, "solve", explode)
        path = write_config(tmp_path, consensus_payload(tmp_path))
        assert main(["solve", "--config", str(path)]) == 4
        assert "numerical abort" in capsys.readouterr().err

    def test_lasso_and_pennies_families_run(self, tmp_path):
        for payload in (
            {"problem": {"family": "matching_pennies"}},
            {"problem": {"family": "lasso",
                          "design": [[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]],
                          "rhs": [1.0, -2.0, 0.5], "l1_weight": 0.5}},
        ):
            path = write_config(tmp_path, payload, name=f"{payload['problem']['family']}.json")
            assert main(["solve", "--config", str(path)]) == 0


@pytest.mark.parametrize("extra", [
    {"schedule": {"seed": "abc"}},
    {"params": {"max_iters": None}},
    {"schedule": {"max_lag": 2.7}},
], ids=["seed-string", "max_iters-null", "max_lag-fraction"])
def test_badly_typed_values_exit_1(tmp_path, capsys, extra):
    payload = consensus_payload(tmp_path, **extra)
    path = write_config(tmp_path, payload)
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad configuration values: ") and err.count("\n") == 1
    assert not (tmp_path / "trace.csv").exists()


MINIMAL = {"problem": {"family": "consensus", "boxes": [[2, 3], [0, 1]]}}
EVERY_KEY = {
    "problem": {"family": "consensus", "boxes": [[2, 3], [0, 1]]},
    "schedule": {"kind": "random", "seed": 42, "max_lag": 3, "window": 4.0,
                 "activation_prob": 0.25, "block_size": 2},
    "params": {"epsilon": 0.02, "eta": 0.2, "lambda": 1.5, "sigma": 0.5, "rho": 2,
               "tol": 1e-7, "max_iters": 5000, "gamma": [0.5, 0.4], "mu": 0.3, "nu": 0.5},
    "output": {"trace": "trace.csv", "summary": "summary.txt"},
}


@pytest.mark.parametrize("payload, canonical, schedule, params", [
    (MINIMAL,
     {"output": {"summary": None, "trace": None},
      "params": {"epsilon": 0.01, "eta": 0.1, "lambda": 1.8, "max_iters": 100000,
                 "rho": 1.0, "sigma": 1.0, "tol": 1e-08},
      "problem": MINIMAL["problem"],
      "schedule": {"activation_prob": 0.5, "block_size": 1, "kind": "synchronous",
                   "max_lag": 0, "seed": 0, "window": 0}},
     "Schedule(kind='synchronous', max_lag=0, window=0, block_size=1, seed=0, activation_prob=0.5)",
     "SolverParams(epsilon=0.01, eta=0.1, max_lag=0, window=0, relaxation=1.8, "
     "strategy_steps=(10.0, 10.0), interaction_steps=(0.47619047619047616, 0.47619047619047616), "
     "player_dual_steps=1.0, coupling_steps=1.0, coupling_dual_steps=1.0, max_iters=100000, "
     "tol=1e-08)"),
    (EVERY_KEY,
     {"output": {"summary": "summary.txt", "trace": "trace.csv"},
      "params": {"epsilon": 0.02, "eta": 0.2, "gamma": [0.5, 0.4], "lambda": 1.5,
                 "max_iters": 5000, "mu": 0.3, "nu": 0.5, "rho": 2, "sigma": 0.5, "tol": 1e-07},
      "problem": EVERY_KEY["problem"],
      "schedule": {"activation_prob": 0.25, "block_size": 2, "kind": "random", "max_lag": 3,
                   "seed": 42, "window": 4}},
     "Schedule(kind='random', max_lag=3, window=4, block_size=2, seed=42, activation_prob=0.25)",
     "SolverParams(epsilon=0.02, eta=0.2, max_lag=0, window=0, relaxation=1.5, "
     "strategy_steps=(0.5, 0.4), interaction_steps=0.3, player_dual_steps=0.5, coupling_steps=0.5, "
     "coupling_dual_steps=2.0, max_iters=5000, tol=1e-07)"),
], ids=["minimal", "every-key"])
def test_config_round_trip_is_pinned(payload, canonical, schedule, params):
    # the dumps of a literal fixes every byte, ints and floats included:
    # "window": 4.0 is stored as 4, "rho": 2 is echoed as 2 and solved as 2.0
    config = parse_config(json.dumps(payload))
    assert config.canonical() == json.dumps(canonical, indent=2, sort_keys=True)
    assert parse_config(config.canonical()) == config
    game, _ = build_instance(config.problem)
    built = build_solver_inputs(config, game)
    assert (repr(built[0]), repr(built[1])) == (schedule, params)


def test_flags_and_file_keys_give_the_same_run(tmp_path, capsys):
    trace, summary = tmp_path / "trace.csv", tmp_path / "summary.txt"
    as_keys = write_config(tmp_path, {
        "problem": MINIMAL["problem"],
        "schedule": {"kind": "random", "seed": 3, "max_lag": 4, "window": 3},
        "params": {"max_iters": 300, "tol": 1e-7},
        "output": {"trace": str(trace), "summary": str(summary)},
    }, name="keys.json")
    as_flags = write_config(tmp_path, MINIMAL, name="flags.json")
    runs = []
    for argv in (
        ["--config", str(as_keys)],
        ["--config", str(as_flags), "--schedule", "random", "--seed", "3", "--max-lag", "4",
         "--window", "3", "--max-iters", "300", "--tol", "1e-7", "--trace", str(trace),
         "--summary", str(summary)],
    ):
        assert main(["solve", *argv]) == 2           # stops at the tick limit
        runs.append((trace.read_bytes(), summary.read_text().split("config:")[1],
                     capsys.readouterr().out))
    assert runs[0] == runs[1]


def test_entry_point_runs_as_a_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for payload, code in ((consensus_payload(tmp_path), 0),
                          (consensus_payload(tmp_path, schedule={"seed": "abc"}), 1)):
        path = write_config(tmp_path, payload)
        done = subprocess.run([sys.executable, "-m", "nashsplit", "solve", "--config", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("extra", [
    {"params": {"lambda": True}},
    {"params": {"tol": "1e-6"}},
    {"params": {"epsilon": None}},
    {"params": {"eta": [0.1]}},
    {"params": {"sigma": False}},
    {"params": {"rho": "2"}},
    {"schedule": {"activation_prob": True}},
    {"params": {"gamma": True}},
    {"params": {"mu": [0.5, "0.4"]}},
    {"params": {"nu": {"k": 0.5}}},
], ids=["lambda-true", "tol-string", "epsilon-null", "eta-list", "sigma-false", "rho-string",
        "activation_prob-true", "gamma-true", "mu-string-entry", "nu-object"])
def test_numeric_keys_refuse_booleans_and_strings(tmp_path, capsys, extra):
    path = write_config(tmp_path, consensus_payload(tmp_path, **extra))
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad configuration values: ") and err.count("\n") == 1
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("problem", [
    {"family": "shared_constraint", "rhs": True, "targets": [1, 2]},
    {"family": "shared_constraint", "targets": [True, 2]},
    {"family": "shared_constraint", "box": ["0", 10]},
    {"family": "consensus", "boxes": [[0, True], [0, 1]]},
    {"family": "matching_pennies", "payoff": [[1, -1], [-1, False]]},
    {"family": "lasso", "design": [[1, 0], [0, "1"]], "rhs": [1, 2]},
    {"family": "lasso", "design": [[1, 0], [0, 1]], "rhs": [1, None]},
    {"family": "lasso", "design": [[1, 0], [0, 1]], "rhs": [1, 2], "l1_weight": True},
], ids=["rhs-true", "targets-true-entry", "box-string-entry", "boxes-true-entry",
        "payoff-false-entry", "design-string-entry", "lasso-rhs-null-entry", "l1_weight-true"])
def test_numeric_problem_keys_refuse_booleans_and_strings(tmp_path, capsys, problem):
    path = write_config(tmp_path, consensus_payload(tmp_path, problem=problem))
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad configuration values: problem ") and err.count("\n") == 1
    assert not (tmp_path / "trace.csv").exists()


LASSO_DESIGN = [[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]]


@pytest.mark.parametrize("problem, builder, args", [
    ({"family": "consensus", "boxes": [[2, 3], [0, 1]]},
     problems.consensus_instance, ([(2, 3), (0, 1)],)),
    ({"family": "matching_pennies"}, problems.matching_pennies_instance, ()),
    ({"family": "shared_constraint"}, problems.shared_constraint_instance, ()),
    ({"family": "lasso", "design": LASSO_DESIGN, "rhs": [1.0, -2.0, 0.5]},
     problems.lasso_instance, (LASSO_DESIGN, [1.0, -2.0, 0.5])),
], ids=["consensus", "matching_pennies", "shared_constraint", "lasso"])
def test_required_keys_solve_with_the_builder_defaults(tmp_path, problem, builder, args):
    trace, direct = tmp_path / "trace.csv", tmp_path / "direct.csv"
    path = write_config(tmp_path, {"problem": problem, "output": {"trace": str(trace)}})
    assert main(["solve", "--config", str(path)]) == 0
    game, _ = builder(*args)
    write_trace(str(direct), solve(game, SolverParams.for_game(game), Schedule()).reports)
    assert trace.read_bytes() == direct.read_bytes()


def test_unknown_consensus_key_is_refused(tmp_path, capsys):
    problem = {"family": "consensus", "boxes": [[2, 3], [0, 1]], "radius": 1}
    with pytest.raises(ConfigError, match=r"^unknown consensus keys: \['radius'\]$"):
        build_instance(problem)
    assert main(["solve", "--config", str(write_config(tmp_path, {"problem": problem}))]) == 1
    assert capsys.readouterr().err == "error: unknown consensus keys: ['radius']\n"


def test_a_parallel_key_is_an_unknown_top_level_key(tmp_path, capsys):
    path = write_config(tmp_path, consensus_payload(tmp_path, parallel=True))
    assert main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: unknown top-level config keys: ['parallel']\n"
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("problem, missing", [
    ({"family": "consensus"}, ["boxes"]),
    ({"family": "lasso", "rhs": [1.0]}, ["design"]),
], ids=["consensus", "lasso"])
def test_missing_problem_keys_are_named_by_their_config_keys(problem, missing):
    with pytest.raises(ConfigError, match=r"bad problem parameters for family .*: missing keys "
                       + re.escape(str(missing))):
        build_instance(problem)
