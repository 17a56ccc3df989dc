import json

import numpy as np
import pytest
from click.testing import CliRunner

from renewal_lab.acceptance import CRITERIA, DEFAULT_SEED
from renewal_lab.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def runner():
    return CliRunner()


BASE = {
    "distribution": {"kind": "exponential", "rate": 1.0},
    "grid": {"h": 0.01, "horizon": 30.0},
    "seed": 7,
}


class TestSolve:
    def test_linear_forcing_passes(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**BASE, "forcing": {"type": "linear"}})
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["passed"] is True
        assert (tmp_path / "o" / "Z.csv").exists()
        assert report["config"]["seed"] == 7

    def test_unknown_forcing_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**BASE, "forcing": {"type": "sine"}})
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_missing_seed_is_config_error(self, runner, tmp_path):
        payload = {k: v for k, v in BASE.items() if k != "seed"}
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_env_seed_override(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("RENEWAL_LAB_SEED", "123")
        payload = {k: v for k, v in BASE.items() if k != "seed"}
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["seed"] == 123

    def test_bad_json_is_config_error(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        res = runner.invoke(main, ["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_missing_file_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "seed, env, field",
        [(-7, None, "seed"), (True, None, "seed"), (None, "-3", "RENEWAL_LAB_SEED")],
        ids=["negative", "boolean", "negative-env"],
    )
    def test_bad_seed_is_config_error(self, runner, tmp_path, monkeypatch, seed, env, field):
        payload = {
            "distribution": {"kind": "gamma", "shape": 2.0, "rate": 1.0},
            "T_list": [20.0, 120.0],
            "n_paths": 50,
        }
        if seed is not None:
            payload["seed"] = seed
        if env is not None:
            monkeypatch.setenv("RENEWAL_LAB_SEED", env)
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["rootzen", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert f"config error: {field}:" in res.stderr


_BAD_NUMBERS = {
    "grid-h-nan": ("phi", {"grid": {"h": float("nan"), "horizon": 30.0}}, "grid.h"),
    "grid-horizon-inf": ("phi", {"grid": {"h": 0.01, "horizon": float("inf")}}, "grid.horizon"),
    "rate-inf": ("phi", {"distribution": {"kind": "exponential", "rate": float("inf")}}, "distribution.rate"),
    "rate-boolean": ("phi", {"distribution": {"kind": "exponential", "rate": True}}, "distribution.rate"),
    "uniform-hi-inf": ("phi", {"distribution": {"kind": "uniform", "lo": 0.0, "hi": float("inf")}}, "distribution.hi"),
    "n-traces-string": ("couple", {"n_traces": "abc"}, "n_traces"),
    "t-means-empty": ("compensator", {"t_means": []}, "t_means"),
    "t-means-negative": ("compensator", {"t_means": [-1.0, 5.0]}, "t_means"),
    "n-paths-negative": ("compensator", {"n_paths": -5}, "n_paths"),
    "t-list-one-horizon": ("rootzen", {"T_list": [20.0]}, "T_list"),
    "t-list-negative": ("rootzen", {"T_list": [-5.0, 20.0]}, "T_list"),
}


@pytest.mark.parametrize("case", sorted(_BAD_NUMBERS))
def test_bad_config_numbers_name_their_field(runner, tmp_path, case):
    subcommand, override, field = _BAD_NUMBERS[case]
    cfg = write_config(tmp_path, "c.json", {**BASE, **override})
    res = runner.invoke(main, [subcommand, "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert f"config error: {field}:" in res.stderr


class TestDeterminism:
    def test_same_seed_gives_byte_identical_artifacts(self, runner, tmp_path):
        payload = {
            "distribution": {"kind": "gamma", "shape": 2.0, "rate": 1.0},
            "grid": {"h": 0.02, "horizon": 60.0},
            "seed": 11,
            "n_traces": 200,
            "t_checks": [],
        }
        cfg = write_config(tmp_path, "c.json", payload)
        for out in ("a", "b"):
            res = runner.invoke(main, ["couple", "--config", cfg, "--out", str(tmp_path / out)])
            assert res.exit_code == 0, res.output
        assert (tmp_path / "a" / "traces.csv").read_bytes() == (tmp_path / "b" / "traces.csv").read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()

    def test_task_streams_do_not_collide_across_seeds(self):
        # seed ^ index would give seed 6, task 1 the stream of seed 7, task 0
        from renewal_lab.cli import _task_rng

        a = _task_rng(6, 1).random(8)
        b = _task_rng(7, 0).random(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, _task_rng(6, 1).random(8))

    def test_config_echo_round_trips(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**BASE, "forcing": {"type": "linear"}})
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0
        echoed = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
        cfg2 = write_config(tmp_path, "echo.json", echoed)
        res2 = runner.invoke(main, ["solve", "--config", cfg2, "--out", str(tmp_path / "o2")])
        assert res2.exit_code == 0
        assert (tmp_path / "o" / "Z.csv").read_bytes() == (tmp_path / "o2" / "Z.csv").read_bytes()


class TestSubcommands:
    def test_phi_artifacts_and_checks(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**BASE, "grid": {"h": 0.01, "horizon": 60.0}})
        res = runner.invoke(main, ["phi", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "o" / "phi.csv").read_text().splitlines()
        assert text[0].startswith("# atom0=1.0")

    def test_bt_outputs_cdfs_and_tv(self, runner, tmp_path):
        payload = {**BASE, "grid": {"h": 0.01, "horizon": 40.0}, "ts": [0.0, 4.0]}
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["bt", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "o" / "bt_cdf_0.csv").exists()
        assert (tmp_path / "o" / "bt_cdf_1.csv").exists()
        tv_rows = (tmp_path / "o" / "tv.csv").read_text().splitlines()
        assert tv_rows[0] == "t,tv_to_stationary"
        assert len(tv_rows) == 3

    def test_stone_reports_component(self, runner, tmp_path):
        payload = {
            "distribution": {"kind": "gamma", "shape": 2.0, "rate": 1.0},
            "grid": {"h": 0.01, "horizon": 150.0},
            "seed": 5,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["stone", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        comp = json.loads((tmp_path / "o" / "component.json").read_text())
        assert comp["n0"] == 1 and 0.0 < comp["mass"] < 1.0

    def test_krt_fit_written(self, runner, tmp_path):
        payload = {
            "distribution": {"kind": "exponential", "rate": 1.0},
            "grid": {"h": 0.0025, "horizon": 86.0},
            "seed": 5,
            "z_exponent": 2.0,
            "floor": 1e-5,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["krt", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        fit = json.loads((tmp_path / "o" / "krt_fit.json").read_text())
        assert fit["slope"] <= -0.7

    def test_krt_window_must_fit_horizon(self, runner, tmp_path):
        payload = {**BASE, "z_exponent": 2.0}  # horizon 30 < default window end
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["krt", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_rootzen_decreasing(self, runner, tmp_path):
        payload = {
            "distribution": {"kind": "gamma", "shape": 2.0, "rate": 1.0},
            "seed": 5,
            "statistic": "max-xi",
            "T_list": [20.0, 120.0],
            "n_paths": 600,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["rootzen", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output

    def test_compensator_checks(self, runner, tmp_path):
        payload = {
            "distribution": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
            "seed": 5,
            "n_paths": 800,
            "t_means": [5.0, 10.0],
        }
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["compensator", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        (hazards,) = [c for c in checks if c["name"].startswith("10. cycle hazards")]
        assert f"over {hazards['measured']['n_cycles']} pooled cycles" in hazards["tolerance"]

    def test_phi_shares_criterion_1_check(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**BASE, "grid": {"h": 0.005, "horizon": 100.0}})
        res = runner.invoke(main, ["phi", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        (closed_form,) = [c for c in checks if c["name"].startswith("1. ")]
        (expected,) = CRITERIA[1](DEFAULT_SEED)
        assert closed_form["measured"]["max_abs_err"] == expected.measured["max_abs_err"]

    def test_stone_shares_criterion_4_check(self, runner, tmp_path):
        payload = {"distribution": {"kind": "gamma", "shape": 2.0, "rate": 1.0}, "seed": 5}
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["stone", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        (split,) = [c for c in checks if c["name"].startswith("4. ")]
        (expected,) = CRITERIA[4](DEFAULT_SEED)
        assert split["measured"] == expected.measured
        assert split["tolerance"] == expected.tolerance

    def test_all_subset_runs_and_reports(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"seed": 20260809})
        res = runner.invoke(
            main, ["all", "--config", cfg, "--out", str(tmp_path / "o"), "--criteria", "1,5"]
        )
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert {c["name"].split(".")[0] for c in report["checks"]} == {"1", "5"}
        assert report["passed"] is True

    def test_all_rejects_unknown_criteria(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"seed": 1})
        res = runner.invoke(main, ["all", "--config", cfg, "--out", str(tmp_path / "o"), "--criteria", "42"])
        assert res.exit_code == 2

    def test_strict_fails_on_failed_check(self, runner, tmp_path):
        # an impossible tolerance setup: krt floor above every point
        payload = {
            "distribution": {"kind": "exponential", "rate": 1.0},
            "grid": {"h": 0.005, "horizon": 86.0},
            "seed": 5,
            "z_exponent": 2.0,
            "floor": 1e9,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["krt", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 1
        # without --strict the same run exits 0 but records the failure
        res2 = runner.invoke(main, ["krt", "--config", cfg, "--out", str(tmp_path / "o2")])
        assert res2.exit_code == 0
        report = json.loads((tmp_path / "o2" / "report.json").read_text())
        assert report["passed"] is False
