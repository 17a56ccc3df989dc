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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np
from scipy import stats

from .acceptance import CRITERIA, run_acceptance
from .asymptotics import fit_slope, krt_error_curve
from .compensator import compensator_at, cycle_hazards, rootzen_uniform_error, simulate_path
from .coupling import coupling_tail, find_common_component, simulate_coupling
from .distributions import distribution_from_config
from .errors import ConfigError, InsufficientPointsError, RenewalLabError
from .grids import Grid
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
        try:
            return int(env)
        except ValueError:
            raise ConfigError(SEED_ENV_VAR, f"expected an integer, got {env!r}") from None
    if "seed" not in cfg:
        raise ConfigError("seed", "mandatory (or set " + SEED_ENV_VAR + ")")
    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed", f"expected an integer, got {cfg['seed']!r}")
    return cfg["seed"]


def _resolve_grid(cfg: dict, dist) -> Grid:
    spec = cfg.get("grid")
    if spec is None:
        return default_grid(dist)
    if not isinstance(spec, dict) or not {"h", "horizon"} <= set(spec):
        raise ConfigError("grid", 'expected {"h": step, "horizon": T}')
    try:
        h = float(spec["h"])
        horizon = float(spec["horizon"])
    except (TypeError, ValueError):
        raise ConfigError("grid", "h and horizon must be numbers") from None
    if h <= 0 or horizon <= h:
        raise ConfigError("grid", f"need 0 < h < horizon, got h={h}, horizon={horizon}")
    return Grid.from_horizon(horizon, h)


def _task_rng(seed: int, index: int) -> np.random.Generator:
    # keyed per-task streams, independent across both seeds and task indices
    return np.random.default_rng([seed, index])


def _parallel_map(fn, n_tasks: int, threads: int):
    if threads <= 1:
        return [fn(i) for i in range(n_tasks)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_tasks)))


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

    def check(self, name: str, passed: bool, measured: dict, tolerance: str) -> None:
        self.checks.append(
            {"name": name, "passed": bool(passed), "measured": measured, "tolerance": tolerance}
        )
        click.echo(f"[{'PASS' if passed else 'FAIL'}] {name}")

    def artifact(self, name: str) -> Path:
        return self.out / name

    def finish(self, extra: dict | None = None) -> bool:
        resolved = dict(self.cfg)
        resolved["seed"] = self.seed
        report = {
            "subcommand": self.subcommand,
            "config": resolved,
            "checks": self.checks,
            "passed": all(c["passed"] for c in self.checks),
            "wall_time_s": time.time() - self.t0,
        }
        if extra:
            report.update(extra)
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
    fn = click.option("--threads", default=1, show_default=True, type=int)(fn)
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
def solve(config_path, out_dir, strict, threads):
    """Solve the renewal equation for a configured forcing."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        grid = _resolve_grid(cfg, dist)
        forcing_cfg = cfg.get("forcing", {"type": "linear"})
        kind = forcing_cfg.get("type")
        if kind == "linear":
            forcing = linear_forcing(dist, grid)
        elif kind == "power":
            r = float(forcing_cfg.get("exponent", 2.0))
            from .grids import GridFunction

            forcing = GridFunction.from_callable(grid, lambda x: (1.0 + x) ** (-r))
        elif kind == "indicator":
            lo = float(forcing_cfg.get("lo", 0.0))
            hi = float(forcing_cfg.get("hi", 1.0))
            from .grids import GridFunction

            forcing = GridFunction.from_callable(
                grid, lambda x: ((x >= lo) & (x <= hi)).astype(float)
            )
        else:
            raise ConfigError("forcing.type", f"unknown forcing {kind!r}")
        sol = solve_renewal_equation(dist, forcing)
        sol.Z.to_csv(runner.artifact("Z.csv"))
        sol.forcing.to_csv(runner.artifact("forcing.csv"))
        runner.check("solver residual", sol.residual <= 1e-8, {"residual": sol.residual}, "<= 1e-8")
        if kind == "linear":
            err = float(np.max(np.abs(sol.Z.values - dist.rate() * grid.nodes())))
            tol = 1000.0 * grid.step**2
            runner.check("linear solution deviation", err <= tol, {"max_err": err}, f"<= {tol:g}")

    _run_guarded("solve", config_path, out_dir, strict, body)


@main.command()
@_common
def phi(config_path, out_dir, strict, threads):
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
            "elementary renewal ratio at half horizon",
            rel < 0.05,
            {"ratio": ratio, "rate": dist.rate()},
            "within 5% of the renewal rate",
        )
        if dist.kind == "exponential":
            err = float(np.max(np.abs(measure.cumulative() - (1.0 + dist.rate_ * grid.nodes()))))
            runner.check(
                "exponential closed form", err <= 5.0 * grid.step, {"max_err": err}, "<= 5h"
            )

    _run_guarded("phi", config_path, out_dir, strict, body)


@main.command()
@_common
def stone(config_path, out_dir, strict, threads):
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
        scale = float(np.max(np.abs(dec.phi.density)))
        recon = float(np.max(np.abs(dec.phi1.values + dec.phi2.density - dec.phi.density))) / scale
        runner.check("reconstruction", recon <= 1e-6, {"rel_sup": recon}, "<= 1e-6 relative")
        mass_dev = abs(dec.phi2.total_mass() - c.n0 / c.mass) / (c.n0 / c.mass)
        runner.check(
            "bounded-part mass identity", mass_dev <= 1e-4, {"rel_dev": mass_dev}, "<= 1e-4 relative"
        )
        runner.check(
            "density cross-check",
            dec.phi1_crosscheck_dev <= 1e-4,
            {"rel_sup": dec.phi1_crosscheck_dev},
            "<= 1e-4 relative",
        )
        m = dist.rate()
        far = dec.phi1.values[grid.index_of(0.5 * grid.horizon) :]
        dev = float(np.max(np.abs(far - m))) / m
        runner.check(
            "density approaches the renewal rate", dev <= 0.02, {"rel_dev": dev}, "<= 0.02 beyond half horizon"
        )

    _run_guarded("stone", config_path, out_dir, strict, body)


@main.command()
@_common
def bt(config_path, out_dir, strict, threads):
    """Forward-recurrence laws at configured probe times plus TV distances."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        grid = _resolve_grid(cfg, dist)
        ts = [float(t) for t in cfg.get("ts", [2.0 * dist.mean(), 10.0 * dist.mean()])]
        measure = renewal_measure(dist, grid)
        x_grid = default_recurrence_grid(dist, grid.step)
        rows = []
        for i, t in enumerate(ts):
            cdf = forward_recurrence_cdf(dist, t, x_grid, phi=measure)
            cdf.to_csv(runner.artifact(f"bt_cdf_{i}.csv"))
            tv = tv_to_stationary(dist, t, x_grid, phi=measure)
            rows.append((t, tv))
            runner.check(
                f"recurrence CDF at t={t:g} is monotone",
                bool(np.all(np.diff(cdf.values) >= 0.0)),
                {"final_value": float(cdf.values[-1])},
                "nondecreasing, approaching 1",
            )
        _write_rows(runner.artifact("tv.csv"), "t,tv_to_stationary", rows)

    _run_guarded("bt", config_path, out_dir, strict, body)


@main.command()
@_common
def couple(config_path, out_dir, strict, threads):
    """Simulate the pure/stationary coupling and its trial-count law."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        grid = _resolve_grid(cfg, dist)
        n_traces = int(cfg.get("n_traces", 2000))
        measure = renewal_measure(dist, grid)
        params = find_common_component(dist, phi=measure)

        def one(i: int):
            return simulate_coupling(dist, params, _task_rng(runner.seed, i), phi=measure)

        traces = _parallel_map(one, n_traces, threads)

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
            "first-trial acceptance frequency",
            abs(p0 - d2) <= band,
            {"p_sigma_0": p0, "delta_sq": d2},
            f"|p - delta^2| <= {band:g}",
        )
        for t in [float(v) for v in cfg.get("t_checks", [5.0 * dist.mean()])]:
            est = coupling_tail(traces, t) if n_traces >= 1000 else None
            if est is None:
                break
            tv = tv_to_stationary(dist, t, phi=measure)
            runner.check(
                f"coupling inequality at t={t:g}",
                2.0 * est.p + 3.0 * est.stderr >= tv,
                {"2p_plus_3se": 2.0 * est.p + 3.0 * est.stderr, "tv": tv},
                "2 P(T > t) + 3 se >= tv",
            )

    _run_guarded("couple", config_path, out_dir, strict, body)


@main.command()
@_common
def compensator(config_path, out_dir, strict, threads):
    """Martingale centering and cycle-hazard law from simulated paths."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        n_paths = int(cfg.get("n_paths", 2000))
        mults = [float(m) for m in cfg.get("t_means", [5.0, 20.0])]
        horizon = max(mults) * dist.mean()

        def one(i: int):
            rng = _task_rng(runner.seed, i)
            path = simulate_path(dist, horizon, "zero", rng)
            res = [path.count(m * dist.mean()) - 1 - compensator_at(path, dist, m * dist.mean()) for m in mults]
            return res, cycle_hazards(path, dist).xi, path

        results = _parallel_map(one, n_paths, threads)
        residuals = np.array([r[0] for r in results])
        pool = np.concatenate([r[1] for r in results])
        if cfg.get("dump_paths", False):
            with open(runner.artifact("paths.csv"), "w") as fh:
                fh.write("path,event_time\n")
                for i, (_, _, path) in enumerate(results[: min(n_paths, 50)]):
                    for t in path.events:
                        fh.write(f"{i},{float(t)!r}\n")

        _write_rows(
            runner.artifact("martingale.csv"),
            "t," + ",".join(f"path{i}" for i in range(min(n_paths, 8))),
            (
                (m * dist.mean(), *residuals[: min(n_paths, 8), j])
                for j, m in enumerate(mults)
            ),
        )
        ks = stats.kstest(pool, "expon")
        runner.check(
            "cycle hazards standard exponential",
            bool(ks.pvalue >= 0.05),
            {"ks": float(ks.statistic), "pvalue": float(ks.pvalue), "n": len(pool)},
            "KS vs Exp(1) at 5%",
        )
        for j, m in enumerate(mults):
            v = residuals[:, j]
            bound = 3.0 * float(v.std()) / math.sqrt(n_paths)
            runner.check(
                f"martingale centering at t={m:g}*mean",
                abs(float(v.mean())) <= bound,
                {"mean": float(v.mean()), "bound": bound},
                "|mean| <= 3 sd / sqrt(n)",
            )

    _run_guarded("compensator", config_path, out_dir, strict, body)


@main.command()
@_common
def krt(config_path, out_dir, strict, threads):
    """Limit-error curve of the renewal convolution and its slope fit."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        grid = _resolve_grid(cfg, dist)
        r_z = float(cfg.get("z_exponent", 2.0))
        q = float(cfg.get("q", 2.0))
        mean = dist.mean()
        lo = float(cfg.get("window_lo_means", 20.0)) * mean
        hi = float(cfg.get("window_hi_means", 80.0)) * mean
        if hi >= grid.horizon:
            raise ConfigError("grid.horizon", f"must exceed the fit window end {hi:g}")
        xs = np.geomspace(lo, hi, int(cfg.get("n_points", 24)))
        measure = renewal_measure(dist, grid)
        z_fn = lambda y: (1.0 + np.asarray(y)) ** (-r_z)
        curve = krt_error_curve(dist, z_fn, r_z, xs, grid=grid, phi=measure)
        _write_rows(runner.artifact("krt_curve.csv"), "x,err", zip(curve.xs, curve.errs))
        bound = max(1.0 - r_z, -q) + 0.3
        floor = float(cfg.get("floor", 0.0))
        try:
            fit = fit_slope(curve, (lo, hi), floor=floor)
        except InsufficientPointsError as exc:
            runner.check("limit-error slope", False, {"error": str(exc)}, f"slope <= {bound:g}")
            return
        with open(runner.artifact("krt_fit.json"), "w") as fh:
            json.dump(
                {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2, "n_points": fit.n_points},
                fh,
                indent=2,
                sort_keys=True,
            )
        runner.check(
            "limit-error slope", fit.slope <= bound, {"slope": fit.slope, "r2": fit.r2}, f"<= {bound:g}"
        )

    _run_guarded("krt", config_path, out_dir, strict, body)


@main.command()
@_common
def rootzen(config_path, out_dir, strict, threads):
    """Uniform error of the cycle-maximum power approximation across horizons."""

    def body(runner: Runner, cfg: dict):
        dist = distribution_from_config(cfg.get("distribution", {}))
        statistic = cfg.get("statistic", "max-xi")
        t_list = [float(t) for t in cfg.get("T_list", [20.0, 200.0])]
        n_paths = int(cfg.get("n_paths", 2000))
        errs = []
        for j, T in enumerate(t_list):
            rng = _task_rng(runner.seed, j)
            errs.append(rootzen_uniform_error(dist, T, n_paths, statistic, rng))
        _write_rows(runner.artifact("rootzen.csv"), "T,sup_error", zip(t_list, errs))
        runner.check(
            "uniform error shrinks along the horizon list",
            all(b < a for a, b in zip(errs, errs[1:])),
            {"errors": errs},
            "strictly decreasing over T_list",
        )

    _run_guarded("rootzen", config_path, out_dir, strict, body)


@main.command(name="all")
@_common
@click.option("--criteria", default="", help="comma-separated subset, e.g. 1,2,5")
def run_all(config_path, out_dir, strict, threads, criteria):
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
        report = run_acceptance(seed=runner.seed, criteria=subset, echo=click.echo)
        for r in report.results:
            runner.checks.append(
                {
                    "name": f"{r.criterion}. {r.name}",
                    "passed": r.passed,
                    "measured": r.measured,
                    "tolerance": r.tolerance,
                }
            )

    _run_guarded("all", config_path, out_dir, strict, body)


if __name__ == "__main__":
    main()
