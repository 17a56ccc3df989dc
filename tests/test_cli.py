import json

import numpy as np
import pytest
from click.testing import CliRunner

from renewal_lab import (
    Exponential,
    Gamma,
    Grid,
    GridFunction,
    GridMeasure,
    RenewalPath,
    compensator,
    compensator_at,
    find_common_component,
    renewal_measure,
    simulate_coupling,
    simulate_paths,
)
from renewal_lab.acceptance import CRITERIA, DEFAULT_SEED, _stream
from renewal_lab.cli import Runner, _measure_header, main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def criterion_8():
    """Criterion 8's checks by label."""
    return {r.label: r for r in CRITERIA[8](DEFAULT_SEED)}


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

    def test_residual_is_relative_to_the_solution(self, runner, tmp_path):
        # (1 + x)^100 on [0, 30] reaches 1.4e149: the absolute residual is
        # about 1e133, yet 1e-16 of max|Z|
        cfg = write_config(tmp_path, "c.json", {**BASE, "forcing": {"type": "power", "exponent": -100}})
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        (check,) = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        assert check["name"] == "solver residual" and check["passed"] is True
        assert check["measured"]["residual"] > 1e100
        assert check["measured"]["relative_residual"] <= 1e-8

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
        [
            (-7, None, "seed"),
            (True, None, "seed"),
            (2**32, None, "seed"),
            (None, "-3", "RENEWAL_LAB_SEED"),
            (None, str(2**32), "RENEWAL_LAB_SEED"),
        ],
        ids=["negative", "boolean", "past-32-bits", "negative-env", "past-32-bits-env"],
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
    # the check reads the error as shrinking along the list, so the horizons must grow
    "t-list-reversed": ("rootzen", {"T_list": [200.0, 20.0]}, "T_list"),
    "statistic-unknown": ("rootzen", {"statistic": "max-foo"}, "statistic"),
    "statistic-number": ("rootzen", {"statistic": 5}, "statistic"),
    "forcing-string": ("solve", {"forcing": "linear"}, "forcing"),
    # (1 + x)^500 overflows on [0, 30]; (1 + x)^206 stays finite but overflows the solve
    "forcing-exponent-overflows": ("solve", {"forcing": {"type": "power", "exponent": -500}}, "forcing.exponent"),
    "forcing-solve-overflows": ("solve", {"forcing": {"type": "power", "exponent": -206}}, "forcing.exponent"),
    "krt-window-reversed": ("krt", {"window_lo_means": 50, "window_hi_means": 20}, "window_lo_means"),
    "krt-window-lo-zero": ("krt", {"window_lo_means": 0}, "window_lo_means"),
    "z-exponent-one": ("krt", {"z_exponent": 1.0}, "z_exponent"),
    # a q <= 0 is no moment order, and its slope bound would pass a growing error
    "krt-q-negative": ("krt", {"q": -5}, "q"),
    "krt-q-zero": ("krt", {"q": 0}, "q"),
    # the limit error is read at h and h/2, and every point needs a positive node of its own on both grids
    "krt-points-share-a-node": (
        "krt",
        {"distribution": {"kind": "gamma", "shape": 2.0, "rate": 1.0}, "grid": {"h": 0.05, "horizon": 200.0},
         "n_points": 5000},
        "n_points",
    ),
    # 1.3 and 1.6 snap to nodes 1 and 2 at h = 1, and both to node 3 at h/2
    "krt-points-share-a-node-at-half-step": (
        "krt",
        {"grid": {"h": 1.0, "horizon": 10.0}, "window_lo_means": 1.3, "window_hi_means": 1.6, "n_points": 2},
        "n_points",
    ),
    "krt-point-at-node-zero": (
        "krt",
        {"window_lo_means": 0.001, "window_hi_means": 20.0, "n_points": 2},
        "window_lo_means",
    ),
    # the cycle-max law of a bounded interarrival law has no max-tau approximation
    "max-tau-bounded-law": (
        "rootzen",
        {"distribution": {"kind": "uniform", "lo": 0.0, "hi": 2.0}, "statistic": "max-tau"},
        "statistic",
    ),
    "dump-paths-string": ("compensator", {"dump_paths": "no"}, "dump_paths"),
    # probe times are checked against the grid horizon (30) before any solve
    "ts-past-horizon": ("bt", {"ts": [50.0]}, "ts"),
    "ts-negative": ("bt", {"ts": [-1.0, 4.0]}, "ts"),
    "t-checks-past-horizon": ("couple", {"t_checks": [100.0]}, "t_checks"),
    "t-checks-negative": ("couple", {"t_checks": [-2.0]}, "t_checks"),
    # the coupling-inequality tail estimate needs 1000 traces
    "t-checks-few-traces": ("couple", {"n_traces": 50, "t_checks": [10.0]}, "t_checks"),
    # a config that is not an object replaces BASE whole
    "config-list": ("phi", [1, 2], "config"),
}


@pytest.mark.parametrize("case", sorted(_BAD_NUMBERS))
def test_bad_config_numbers_name_their_field(runner, tmp_path, case):
    subcommand, override, field = _BAD_NUMBERS[case]
    payload = {**BASE, **override} if isinstance(override, dict) else override
    cfg = write_config(tmp_path, "c.json", payload)
    res = runner.invoke(main, [subcommand, "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert f"config error: {field}:" in res.stderr
    # the config is checked before any artifact is written
    assert not any((tmp_path / "o").glob("*"))


def test_non_object_config_with_env_seed_is_config_error(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("RENEWAL_LAB_SEED", "3")
    cfg = write_config(tmp_path, "c.json", [1, 2])
    res = runner.invoke(main, ["phi", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error: config:" in res.stderr


# one cheap run per subcommand; a failed check is fine, only the plumbing is under test
SMALL_RUNS = {
    "solve": ({**BASE, "forcing": {"type": "linear"}}, []),
    "phi": (BASE, []),
    "stone": ({"distribution": {"kind": "gamma", "shape": 2.0, "rate": 1.0}, "seed": 5}, []),
    "bt": ({**BASE, "ts": [4.0]}, []),
    "couple": (
        {
            "distribution": {"kind": "gamma", "shape": 2.0, "rate": 1.0},
            "grid": {"h": 0.02, "horizon": 60.0},
            "seed": 11,
            "n_traces": 50,
            "t_checks": [],
        },
        [],
    ),
    "compensator": ({**BASE, "n_paths": 50, "t_means": [5.0, 10.0]}, []),
    "krt": ({**BASE, "grid": {"h": 0.01, "horizon": 100.0}}, []),
    "rootzen": ({**BASE, "T_list": [20.0, 40.0], "n_paths": 50}, []),
    "all": ({"seed": 20260809}, ["--criteria", "5"]),
}


class TestSubcommandWrapper:
    @pytest.mark.parametrize("name", sorted(SMALL_RUNS))
    def test_help_lists_shared_options(self, runner, name):
        res = runner.invoke(main, [name, "--help"])
        assert res.exit_code == 0, res.output
        for option in ("--config", "--out", "--strict"):
            assert option in res.output
        assert ("--criteria" in res.output) == (name == "all")

    @pytest.mark.parametrize("name", sorted(SMALL_RUNS))
    def test_report_names_invoked_subcommand(self, runner, tmp_path, name):
        payload, extra = SMALL_RUNS[name]
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, [name, "--config", cfg, "--out", str(tmp_path / "o"), *extra])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["subcommand"] == name

    def test_every_subcommand_is_covered(self):
        assert set(main.commands) == set(SMALL_RUNS)


PARETO = {"kind": "shifted-pareto", "tail": 3.5, "scale": 1.0}
DETERMINISM_RUNS = {
    "couple-gamma": (
        "couple",
        {
            "distribution": {"kind": "gamma", "shape": 2.0, "rate": 1.0},
            "grid": {"h": 0.02, "horizon": 60.0},
            "seed": 11,
            "n_traces": 200,
            "t_checks": [],
        },
        ("traces.csv", "summary.json"),
    ),
    "compensator-pareto": (
        "compensator",
        {"distribution": PARETO, "seed": 11, "n_paths": 300, "t_means": [5.0, 20.0], "dump_paths": True},
        ("paths.csv", "martingale.csv"),
    ),
    "rootzen-pareto": (
        "rootzen",
        {"distribution": PARETO, "seed": 11, "T_list": [20.0, 200.0], "n_paths": 300},
        ("rootzen.csv",),
    ),
}


def _checks_without_timings(out_dir):
    checks = json.loads((out_dir / "report.json").read_text())["checks"]
    return [{k: v for k, v in c.items() if k != "seconds"} for c in checks]


class TestDeterminism:
    @pytest.mark.parametrize("run", DETERMINISM_RUNS.values(), ids=DETERMINISM_RUNS.keys())
    def test_same_seed_gives_byte_identical_artifacts(self, runner, tmp_path, run):
        subcommand, payload, artifacts = run
        cfg = write_config(tmp_path, "c.json", payload)
        for out in ("a", "b"):
            res = runner.invoke(main, [subcommand, "--config", cfg, "--out", str(tmp_path / out)])
            assert res.exit_code == 0, res.output
        for name in artifacts:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # report.json also carries wall times; its checks must agree apart from those
        assert _checks_without_timings(tmp_path / "a") == _checks_without_timings(tmp_path / "b")

    def test_task_streams_do_not_collide_across_seeds(self):
        # seed ^ index would give seed 6, task 1 the stream of seed 7, task 0
        a = _stream(6, 0, 1).random(8)
        b = _stream(7, 0, 0).random(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, _stream(6, 0, 1).random(8))

    def test_task_streams_are_not_criterion_streams(self, runner, tmp_path):
        # SeedSequence pads a key [s, i] to [s, i, 0]: CLI task i keyed that
        # way draws criterion i's index-0 stream, so couple's trace 6 would be
        # criterion 6's trace 0
        dist = Gamma(2.0, 1.0)
        payload = {
            "distribution": dist.to_config(),
            "grid": {"h": 0.01, "horizon": 100.0},
            "seed": DEFAULT_SEED,
            "n_traces": 7,
            "t_checks": [],
        }
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["couple", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        phi = renewal_measure(dist, Grid.from_horizon(100.0, 0.01))
        params = find_common_component(dist, phi=phi)
        criterion_6 = simulate_coupling(dist, params, _stream(DEFAULT_SEED, 6, 0), phi=phi)
        assert summary["traces"][6]["coupling_time"] != criterion_6.coupling_time
        for i in range(1, 13):
            assert not np.array_equal(_stream(DEFAULT_SEED, 0, i).random(8), _stream(DEFAULT_SEED, i, 0).random(8))

    def test_couple_reports_the_largest_thinning_ratio(self, runner, tmp_path):
        # the coupling-inequality check carries the maximum over the traces of
        # each trace's largest thinning ratio
        dist = Gamma(2.0, 1.0)
        payload = {
            "distribution": dist.to_config(),
            "grid": {"h": 0.02, "horizon": 60.0},
            "seed": 11,
            "n_traces": 1000,
            "t_checks": [10.0],
        }
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["couple", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        (inequality,) = [c for c in checks if c["name"] == "6. coupling inequality dominates the TV distance"]
        phi = renewal_measure(dist, Grid.from_horizon(60.0, 0.02))
        params = find_common_component(dist, phi=phi)
        traces = [simulate_coupling(dist, params, _stream(11, 0, i), phi=phi) for i in range(1000)]
        assert inequality["measured"]["max_thinning_ratio"] == max(tr.max_thinning_ratio for tr in traces)
        assert 0.0 < inequality["measured"]["max_thinning_ratio"] <= 1.0 + 1e-9

    def test_config_echo_round_trips(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**BASE, "forcing": {"type": "linear"}})
        res = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0
        echoed = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
        cfg2 = write_config(tmp_path, "echo.json", echoed)
        res2 = runner.invoke(main, ["solve", "--config", cfg2, "--out", str(tmp_path / "o2")])
        assert res2.exit_code == 0
        assert (tmp_path / "o" / "Z.csv").read_bytes() == (tmp_path / "o2" / "Z.csv").read_bytes()


class TestArtifactWriters:
    """The artifact bytes, pinned on literal inputs (solver output can move
    by an ulp across numpy releases)."""

    @staticmethod
    def _runner(tmp_path):
        return Runner("solve", {"seed": 1}, str(tmp_path))

    def test_function_rows(self, tmp_path):
        fn = GridFunction(Grid(0.5, 2), [1.0, 0.1, 1e-20])
        self._runner(tmp_path).write_rows("fn.csv", "x,value", zip(fn.grid.nodes(), fn.values))
        assert (tmp_path / "fn.csv").read_text() == "x,value\n0.0,1.0\n0.5,0.1\n1.0,1e-20\n"

    def test_measure_header_carries_atom(self, tmp_path):
        m = GridMeasure(Grid(0.5, 2), np.float64(0.375), [0.25, 2.0 / 3.0, 0.0])
        self._runner(tmp_path).write_rows("m.csv", _measure_header(m), zip(m.grid.nodes(), m.density))
        assert (tmp_path / "m.csv").read_text() == (
            "# atom0=0.375\nx,density\n0.0,0.25\n0.5,0.6666666666666666\n1.0,0.0\n"
        )

    def test_ints_stay_ints_and_floats_round_trip(self, tmp_path):
        rows = [(0, 0, 0.0, 1.5, np.float64(0.1), 3, 0), (0, 1, 2.0, 1e300, -2.5, np.int64(3), 1)]
        self._runner(tmp_path).write_rows("t.csv", "trace,k,eta,eta_hat,beta,beta_hat,indicator", rows)
        assert (tmp_path / "t.csv").read_text() == (
            "trace,k,eta,eta_hat,beta,beta_hat,indicator\n0,0,0.0,1.5,0.1,3,0\n0,1,2.0,1e+300,-2.5,3.0,1\n"
        )

    def test_function_round_trip(self, tmp_path):
        fn = GridFunction.from_callable(Grid(0.1, 20), np.cos)
        self._runner(tmp_path).write_rows("fn.csv", "x,value", zip(fn.grid.nodes(), fn.values))
        lines = (tmp_path / "fn.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(data[:, 0], fn.grid.nodes())
        assert np.array_equal(data[:, 1], fn.values)

    def test_json(self, tmp_path):
        obj = {"b": {"z": 1, "a": [1.5, 2, None]}, "a": True, "c": 0.1}
        self._runner(tmp_path).write_json("o.json", obj)
        assert (tmp_path / "o.json").read_text() == (
            '{\n  "a": true,\n  "b": {\n    "a": [\n      1.5,\n      2,\n      null\n    ],\n'
            '    "z": 1\n  },\n  "c": 0.1\n}'
        )


class TestSubcommands:
    def test_phi_artifacts_and_checks(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**BASE, "grid": {"h": 0.01, "horizon": 60.0}})
        res = runner.invoke(main, ["phi", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "o" / "phi.csv").read_text().splitlines()
        assert text[0].startswith("# atom0=1.0")

    def test_phi_renewal_ratio_leaves_out_the_atom(self, runner, tmp_path):
        # exponential(1): Phi((0, 15]) = 15; with the atom the ratio read 16/15 and failed
        cfg = write_config(tmp_path, "c.json", BASE)
        res = runner.invoke(main, ["phi", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        (ratio,) = [c for c in checks if c["name"] == "elementary renewal ratio at half horizon"]
        assert ratio["passed"] is True
        assert ratio["measured"]["ratio"] == pytest.approx(1.0, abs=BASE["grid"]["h"] ** 2)

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
        checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        assert [c["name"] for c in checks] == [
            f"recurrence CDF at t={t:g} needs no clip correction beyond h^2" for t in (0.0, 4.0)
        ]
        assert all(0.0 <= c["measured"]["clip_correction"] <= 0.01**2 for c in checks)

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
        }
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["krt", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        fit = json.loads((tmp_path / "o" / "krt_fit.json").read_text())
        assert fit["slope"] <= -0.7

    @pytest.mark.parametrize(
        "dist, h, horizon",
        [
            ({"kind": "exponential", "rate": 1.0}, 0.0025, 86.0),
            ({"kind": "gamma", "shape": 2.0, "rate": 1.0}, 0.00125, 172.0),
        ],
        ids=["exponential", "gamma"],
    )
    def test_krt_shares_criterion_8_check(self, runner, tmp_path, criterion_8, dist, h, horizon):
        # on a criterion-8 cell's grid and z exponent the CLI reads that cell's two slopes, bit for bit
        payload = {"distribution": dist, "grid": {"h": h, "horizon": horizon}, "seed": 5, "z_exponent": 4.0}
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["krt", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 0, res.output
        (check,) = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        expected = criterion_8[check["name"]]
        assert check["measured"] == expected.measured
        assert check["tolerance"] == expected.tolerance

    def test_krt_fails_on_the_bias_floor(self, runner, tmp_path):
        # on exponential's default grid the z^-4 error reaches the O(h^2) floor inside the window:
        # fewer than 5 points clear it at h, so there is no slope at h and the check fails
        payload = {"distribution": {"kind": "exponential", "rate": 1.0}, "seed": 5, "z_exponent": 4.0}
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["krt", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        (check,) = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        assert check["passed"] is False
        assert np.isnan(check["measured"]["slope_h"])
        assert check["tolerance"].startswith("both slopes <= -1.7")
        assert not (tmp_path / "o" / "krt_fit.json").exists()

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
        (check,) = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        # the error, stragglers and ties of each horizon, as criterion 12 reports them
        assert set(check["measured"]) == {"err_T20", "err_T120", "stragglers", "ties"}
        assert check["measured"]["stragglers"] == check["measured"]["ties"] == [0, 0]

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

    @pytest.mark.parametrize("n_paths, block_floats", [(60, None), (60, 150), (5, None), (5, 150)],
                             ids=["one-block", "blocks-of-two-rows", "fewer-than-8-paths",
                                  "fewer-than-8-paths-in-blocks-of-two-rows"])
    def test_compensator_artifacts_are_the_first_shared_paths(self, runner, tmp_path, monkeypatch, n_paths,
                                                              block_floats):
        # paths.csv and martingale.csv show the first rows of the one
        # simulate_paths call on stream (seed, 0, 0), read back path by path;
        # at 150 floats a block holds 2 rows, so those rows span blocks
        if block_floats:
            monkeypatch.setattr(compensator, "_PATH_BLOCK_FLOATS", block_floats)
        dist, T = Exponential(1.0), 10.0
        payload = {**BASE, "n_paths": n_paths, "t_means": [5.0, 10.0], "dump_paths": True}
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["compensator", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        blocks = list(simulate_paths(dist, T, n_paths, _stream(BASE["seed"], 0, 0)))
        assert len(blocks[0].events) == (2 if block_floats else n_paths)
        paths = [RenewalPath(0.0, row[: k + 1], T) for b in blocks for row, k in zip(b.events, b.counts)]
        dumped = [line.split(",") for line in (tmp_path / "o" / "paths.csv").read_text().splitlines()[1:]]
        assert [(int(i), float(t)) for i, t in dumped] == [
            (i, t) for i, path in enumerate(paths[:50]) for t in path.events.tolist()
        ]
        header, *lines = (tmp_path / "o" / "martingale.csv").read_text().splitlines()
        assert header == "t," + ",".join(f"path{i}" for i in range(min(n_paths, 8)))
        table = [[float(v) for v in line.split(",")] for line in lines]
        assert table == [[t, *(path.count(t) - 1 - compensator_at(path, dist, t) for path in paths[:8])]
                         for t in (5.0, 10.0)]

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
        # every check carries the seconds of its criterion; criterion 1 keeps its budget time
        for c in report["checks"]:
            assert isinstance(c["seconds"], float) and c["seconds"] > 0.0
        (c1,) = [c for c in report["checks"] if c["name"].startswith("1. ")]
        assert 0.0 <= c1["measured"]["seconds"] <= c1["seconds"]

    def test_all_rejects_unknown_criteria(self, runner, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"seed": 1})
        res = runner.invoke(main, ["all", "--config", cfg, "--out", str(tmp_path / "o"), "--criteria", "42"])
        assert res.exit_code == 2

    def test_strict_fails_on_failed_check(self, runner, tmp_path):
        # the z^-4 limit error meets the bias floor at h = 0.005 before enough points clear it
        payload = {
            "distribution": {"kind": "exponential", "rate": 1.0},
            "grid": {"h": 0.005, "horizon": 86.0},
            "seed": 5,
            "z_exponent": 4.0,
        }
        cfg = write_config(tmp_path, "c.json", payload)
        res = runner.invoke(main, ["krt", "--config", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert res.exit_code == 1
        # without --strict the same run exits 0 but records the failure
        res2 = runner.invoke(main, ["krt", "--config", cfg, "--out", str(tmp_path / "o2")])
        assert res2.exit_code == 0
        report = json.loads((tmp_path / "o2" / "report.json").read_text())
        assert report["passed"] is False
