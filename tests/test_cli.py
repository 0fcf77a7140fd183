"""Config parsing, trace/summary writing, exit statuses."""

import csv
import json

import pytest

from nashsplit.cli import ConfigError, main, parse_config


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

    def test_parallel_flag_runs(self, tmp_path):
        path = write_config(tmp_path, consensus_payload(tmp_path))
        assert main(["solve", "--config", str(path), "--parallel"]) == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "status: converged" in summary

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
