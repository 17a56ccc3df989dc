"""Experiment runner: every verification is a subcommand with a JSON config,
CSV/JSON artifacts, and a machine-readable report.

One flat JSON config describes a run; the resolved config (seed included) is
embedded in every report so any output can be reproduced exactly.  Exit codes:
0 when everything passed, 1 when a check failed in --strict mode, 2 for
configuration errors.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from .acceptance import (
    CRITERIA,
    CheckResult,
    check_compensator,
    check_coupling_inequality,
    check_exponential_closed_form,
    check_krt_slopes,
    check_linear_solution,
    check_rootzen_shrinks,
    check_stone_split,
    krt_fit,
    martingale_residuals,
    run_acceptance,
)
from .asymptotics import krt_error_curve
from .compensator import rootzen_uniform_error, simulate_path
from .coupling import find_common_component, simulate_coupling
from .distributions import _config_number, distribution_from_config
from .errors import ConfigError, RenewalLabError
from .grids import Grid, GridFunction
from .renewal import (
    default_grid,
    default_recurrence_grid,
    forward_recurrence_cdf,
    linear_forcing,
    renewal_measure,
    solve_renewal_equation,
    tv_to_stationary,
)

SEED_ENV_VAR = "RENEWAL_LAB_SEED"


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None


def _resolve_seed(cfg: dict) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        field = SEED_ENV_VAR
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(field, f"expected an integer, got {env!r}") from None
    else:
        field = "seed"
        if "seed" not in cfg:
            raise ConfigError(field, "mandatory (or set " + SEED_ENV_VAR + ")")
        seed = cfg["seed"]
        # bool is a subclass of int, but true/false is not a seed
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(field, f"expected an integer, got {seed!r}")
    # the keyed task streams (SeedSequence entropy) take only non-negative integers
    if seed < 0:
        raise ConfigError(field, f"expected a non-negative integer, got {seed}")
    return seed


def _resolve_grid(cfg: dict, dist) -> Grid:
    spec = cfg.get("grid")
    if spec is None:
        return default_grid(dist)
    if not isinstance(spec, dict) or not {"h", "horizon"} <= set(spec):
        raise ConfigError("grid", 'expected {"h": step, "horizon": T}')
    h = _config_number("grid.h", spec["h"])
    horizon = _config_number("grid.horizon", spec["horizon"])
    if h <= 0 or horizon <= h:
        raise ConfigError("grid", f"need 0 < h < horizon, got h={h}, horizon={horizon}")
    return Grid.from_horizon(horizon, h)


def _read(cfg: dict, field: str, default):
    """Config field ``field`` (``default`` when absent), of the default's
    kind: an integer >= 1 for an int default, a list of finite numbers for a
    list default, and otherwise a finite number.  Anything else raises
    ``ConfigError`` naming the field."""
    value = cfg.get(field, default)
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(field, f"expected a list of finite numbers, got {value!r}")
        return [_config_number(field, v) for v in value]
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(field, f"expected an integer >= 1, got {value!r}")
        return value
    return _config_number(field, value)


def _task_rng(seed: int, index: int) -> np.random.Generator:
    # keyed per-task streams, independent across both seeds and task indices
    return np.random.default_rng([seed, index])


class Runner:
    """Shared plumbing: artifact directory, checks, report emission."""

    def __init__(self, subcommand: str, cfg: dict, out_dir: str):
        self.subcommand = subcommand
        self.cfg = cfg
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = _resolve_seed(cfg)
        self.checks: list[dict] = []
        self.t0 = time.time()

    def check(self, result: CheckResult) -> None:
        self.checks.append(
            {
                "name": result.label,
                "passed": bool(result.passed),
                "measured": result.measured,
                "tolerance": result.tolerance,
            }
        )
        click.echo(result.line())

    def artifact(self, name: str) -> Path:
        return self.out / name

    def finish(self) -> bool:
        resolved = dict(self.cfg)
        resolved["seed"] = self.seed
        report = {
            "subcommand": self.subcommand,
            "config": resolved,
            "checks": self.checks,
            "passed": all(c["passed"] for c in self.checks),
            "wall_time_s": time.time() - self.t0,
        }
        with open(self.out / "report.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        click.echo(f"report: {self.out / 'report.json'}")
        return report["passed"]


def _write_rows(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------


@click.group()
def main():
    """Numerical renewal-theory experiments with deterministic seeds."""


def _common(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path())(fn)
    fn = click.option("--out", "out_dir", default="runs", show_default=True)(fn)
    fn = click.option("--strict", is_flag=True, help="exit 1 if any check fails")(fn)
    return fn


def _run_guarded(subcommand, config_path, out_dir, strict, body):
    try:
        cfg = _load_config(config_path)
        runner = Runner(subcommand, cfg, out_dir)
        body(runner, cfg)
        passed = runner.finish()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except RenewalLabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if strict and not passed:
        sys.exit(1)
    sys.exit(0)


@main.command()
@_common
def solve(config_path, out_dir, strict):
    """Solve the renewal equation for a configured forcing."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        grid = _resolve_grid(cfg, dist)
        forcing_cfg = cfg.get("forcing", {"type": "linear"})
        kind = forcing_cfg.get("type")
        if kind == "linear":
            forcing = linear_forcing(dist, grid)
        elif kind == "power":
            r = _config_number("forcing.exponent", forcing_cfg.get("exponent", 2.0))
            forcing = GridFunction.from_callable(grid, lambda x: (1.0 + x) ** (-r))
        elif kind == "indicator":
            lo = _config_number("forcing.lo", forcing_cfg.get("lo", 0.0))
            hi = _config_number("forcing.hi", forcing_cfg.get("hi", 1.0))
            forcing = GridFunction.from_callable(
                grid, lambda x: ((x >= lo) & (x <= hi)).astype(float)
            )
        else:
            raise ConfigError("forcing.type", f"unknown forcing {kind!r}")
        sol = solve_renewal_equation(dist, forcing)
        sol.Z.to_csv(runner.artifact("Z.csv"))
        sol.forcing.to_csv(runner.artifact("forcing.csv"))
        runner.check(
            CheckResult(None, "solver residual", sol.residual <= 1e-8, {"residual": sol.residual}, "<= 1e-8")
        )
        if kind == "linear":
            runner.check(check_linear_solution(dist, sol))

    _run_guarded("solve", config_path, out_dir, strict, body)


@main.command()
@_common
def phi(config_path, out_dir, strict):
    """Compute the renewal measure and its sanity checks."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        grid = _resolve_grid(cfg, dist)
        measure = renewal_measure(dist, grid)
        measure.to_csv(runner.artifact("phi.csv"))
        t_probe = 0.5 * grid.horizon
        ratio = measure.interval_mass(-1.0, t_probe) / t_probe
        rel = abs(ratio - dist.rate()) / dist.rate()
        runner.check(
            CheckResult(
                None,
                "elementary renewal ratio at half horizon",
                rel < 0.05,
                {"ratio": ratio, "rate": dist.rate()},
                "within 5% of the renewal rate",
            )
        )
        if dist.kind == "exponential":
            runner.check(check_exponential_closed_form(dist, measure))

    _run_guarded("phi", config_path, out_dir, strict, body)


@main.command()
@_common
def stone(config_path, out_dir, strict):
    """Decompose the renewal measure into bounded plus absolutely continuous parts."""

    def body(runner: Runner, cfg: dict):
        from .stone import phi2_tail, stone_decompose

        dist = distribution_from_config(cfg.get("distribution", {}))
        grid = _resolve_grid(cfg, dist)
        dec = stone_decompose(dist, grid)
        dec.phi1.to_csv(runner.artifact("phi1.csv"))
        dec.phi2.to_csv(runner.artifact("phi2.csv"))
        tail_xs = np.linspace(0.0, grid.horizon, 101)
        _write_rows(
            runner.artifact("phi2_tail.csv"),
            "x,tail",
            ((x, phi2_tail(dec, x)) for x in tail_xs),
        )
        c = dec.component
        with open(runner.artifact("component.json"), "w") as fh:
            json.dump(
                {"n0": c.n0, "a": c.a, "b": c.b, "mass": c.mass, "level": c.level},
                fh,
                indent=2,
                sort_keys=True,
            )
        runner.check(check_stone_split(dist, dec))
        runner.check(
            CheckResult(
                None,
                "density cross-check",
                dec.phi1_crosscheck_dev <= 1e-4,
                {"rel_sup": dec.phi1_crosscheck_dev},
                "<= 1e-4 relative",
            )
        )

    _run_guarded("stone", config_path, out_dir, strict, body)


@main.command()
@_common
def bt(config_path, out_dir, strict):
    """Forward-recurrence laws at configured probe times plus TV distances."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        grid = _resolve_grid(cfg, dist)
        ts = _read(cfg, "ts", [2.0 * dist.mean(), 10.0 * dist.mean()])
        measure = renewal_measure(dist, grid)
        x_grid = default_recurrence_grid(dist, grid.step)
        rows = []
        for i, t in enumerate(ts):
            cdf = forward_recurrence_cdf(dist, t, x_grid, phi=measure)
            cdf.to_csv(runner.artifact(f"bt_cdf_{i}.csv"))
            tv = tv_to_stationary(dist, t, x_grid, phi=measure)
            rows.append((t, tv))
            runner.check(
                CheckResult(
                    None,
                    f"recurrence CDF at t={t:g} is monotone",
                    bool(np.all(np.diff(cdf.values) >= 0.0)),
                    {"final_value": float(cdf.values[-1])},
                    "nondecreasing, approaching 1",
                )
            )
        _write_rows(runner.artifact("tv.csv"), "t,tv_to_stationary", rows)

    _run_guarded("bt", config_path, out_dir, strict, body)


@main.command()
@_common
def couple(config_path, out_dir, strict):
    """Simulate the pure/stationary coupling and its trial-count law."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        grid = _resolve_grid(cfg, dist)
        n_traces = _read(cfg, "n_traces", 2000)
        measure = renewal_measure(dist, grid)
        params = find_common_component(dist, phi=measure)
        traces = [
            simulate_coupling(dist, params, _task_rng(runner.seed, i), phi=measure) for i in range(n_traces)
        ]

        with open(runner.artifact("traces.csv"), "w") as fh:
            fh.write("trace,k,eta,eta_hat,beta,beta_hat,indicator\n")
            for i, tr in enumerate(traces):
                for k in range(len(tr.indicators)):
                    fh.write(
                        f"{i},{k},{float(tr.eta[k, 0])!r},{float(tr.eta[k, 1])!r},"
                        f"{float(tr.beta[k, 0])!r},{float(tr.beta[k, 1])!r},{int(tr.indicators[k])}\n"
                    )
        with open(runner.artifact("summary.json"), "w") as fh:
            json.dump(
                {
                    "params": {"b": params.b, "d": params.d, "delta": params.delta},
                    "traces": [
                        {"sigma": int(tr.sigma), "coupling_time": tr.coupling_time} for tr in traces
                    ],
                },
                fh,
                indent=2,
                sort_keys=True,
            )

        sig = np.array([tr.sigma for tr in traces])
        d2 = params.delta**2
        p0 = float(np.mean(sig == 0))
        band = 3.0 * math.sqrt(d2 * (1 - d2) / n_traces)
        runner.check(
            CheckResult(
                None,
                "first-trial acceptance frequency",
                abs(p0 - d2) <= band,
                {"p_sigma_0": p0, "delta_sq": d2},
                f"|p - delta^2| <= {band:g}",
            )
        )
        ts = _read(cfg, "t_checks", [5.0 * dist.mean()])
        # the tail estimate behind the inequality needs >= 1000 traces
        if ts and n_traces >= 1000:
            runner.check(check_coupling_inequality(dist, traces, measure, ts))

    _run_guarded("couple", config_path, out_dir, strict, body)


@main.command()
@_common
def compensator(config_path, out_dir, strict):
    """Martingale centering and cycle-hazard law from simulated paths."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        n_paths = _read(cfg, "n_paths", 2000)
        mults = _read(cfg, "t_means", [5.0, 20.0])
        # the paths run to the last time, so there must be one and all be > 0
        if not mults or min(mults) <= 0.0:
            raise ConfigError("t_means", f"expected one or more positive multiples of the mean, got {mults}")
        horizon = max(mults) * dist.mean()
        paths = [simulate_path(dist, horizon, "zero", _task_rng(runner.seed, i)) for i in range(n_paths)]
        if cfg.get("dump_paths", False):
            with open(runner.artifact("paths.csv"), "w") as fh:
                fh.write("path,event_time\n")
                for i, path in enumerate(paths[:50]):
                    for t in path.events:
                        fh.write(f"{i},{float(t)!r}\n")

        shown = [martingale_residuals(path, dist, mults) for path in paths[:8]]
        _write_rows(
            runner.artifact("martingale.csv"),
            "t," + ",".join(f"path{i}" for i in range(len(shown))),
            ((m * dist.mean(), *(r[j] for r in shown)) for j, m in enumerate(mults)),
        )
        for result in check_compensator(dist, paths, mults):
            runner.check(result)

    _run_guarded("compensator", config_path, out_dir, strict, body)


@main.command()
@_common
def krt(config_path, out_dir, strict):
    """Limit-error curve of the renewal convolution and its slope fit."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        grid = _resolve_grid(cfg, dist)
        r_z = _read(cfg, "z_exponent", 2.0)
        q = _read(cfg, "q", 2.0)
        mean = dist.mean()
        lo = _read(cfg, "window_lo_means", 20.0) * mean
        hi = _read(cfg, "window_hi_means", 80.0) * mean
        if hi >= grid.horizon:
            raise ConfigError("grid.horizon", f"must exceed the fit window end {hi:g}")
        xs = np.geomspace(lo, hi, _read(cfg, "n_points", 24))
        measure = renewal_measure(dist, grid)
        z_fn = lambda y: (1.0 + np.asarray(y)) ** (-r_z)
        curve = krt_error_curve(dist, z_fn, r_z, xs, grid=grid, phi=measure)
        _write_rows(runner.artifact("krt_curve.csv"), "x,err", zip(curve.xs, curve.errs))
        fit = krt_fit(curve, (lo, hi), _read(cfg, "floor", 0.0))
        if fit is not None:
            with open(runner.artifact("krt_fit.json"), "w") as fh:
                json.dump(
                    {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2, "n_points": fit.n_points},
                    fh,
                    indent=2,
                    sort_keys=True,
                )
        runner.check(check_krt_slopes(dist, r_z, [fit], q))

    _run_guarded("krt", config_path, out_dir, strict, body)


@main.command()
@_common
def rootzen(config_path, out_dir, strict):
    """Uniform error of the cycle-maximum power approximation across horizons."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        statistic = cfg.get("statistic", "max-xi")
        t_list = _read(cfg, "T_list", [20.0, 200.0])
        # a shrinking error needs two horizons, and paths need a horizon > 0
        if len(t_list) < 2 or min(t_list) <= 0.0:
            raise ConfigError("T_list", f"expected two or more positive horizons, got {t_list}")
        n_paths = _read(cfg, "n_paths", 2000)
        errs = []
        for j, T in enumerate(t_list):
            rng = _task_rng(runner.seed, j)
            errs.append(rootzen_uniform_error(dist, T, n_paths, statistic, rng))
        _write_rows(runner.artifact("rootzen.csv"), "T,sup_error", zip(t_list, errs))
        runner.check(check_rootzen_shrinks(dist, t_list, errs, n_paths))

    _run_guarded("rootzen", config_path, out_dir, strict, body)


@main.command(name="all")
@_common
@click.option("--criteria", default="", help="comma-separated subset, e.g. 1,2,5")
def run_all(config_path, out_dir, strict, criteria):
    """Run the full acceptance suite and write its report."""

    def body(runner: Runner, cfg: dict):
        subset = None
        if criteria:
            try:
                subset = sorted({int(c) for c in criteria.split(",")})
            except ValueError:
                raise ConfigError("criteria", f"expected integers, got {criteria!r}") from None
            unknown = [c for c in subset if c not in CRITERIA]
            if unknown:
                raise ConfigError("criteria", f"unknown criteria {unknown}; valid: 1..12")
        for result in run_acceptance(seed=runner.seed, criteria=subset):
            runner.check(result)

    _run_guarded("all", config_path, out_dir, strict, body)


if __name__ == "__main__":
    main()
