"""Experiment runner: every verification is a subcommand with a JSON config,
CSV/JSON artifacts, and a machine-readable report.

One flat JSON config describes a run; the resolved config (seed included) is
embedded in every report so any output can be reproduced exactly.  Every
artifact is written by ``Runner.write_rows`` (CSV) or ``Runner.write_json``,
the one home of the artifact format.  Exit codes:
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
    _stream,
    check_compensator,
    check_coupling_inequality,
    check_exponential_closed_form,
    check_krt_slopes,
    check_linear_solution,
    check_rootzen_shrinks,
    check_stone_split,
    krt_fit,
    run_acceptance,
)
from .asymptotics import krt_error_curve
from .compensator import _rootzen_error, simulate_paths
from .coupling import find_common_component, simulate_coupling
from .distributions import _config_number, distribution_from_config
from .errors import ConfigError, FiniteSupportError, HorizonExceededError, RenewalLabError
from .grids import Grid, GridFunction, GridMeasure
from .renewal import (
    default_grid,
    forward_recurrence_cdf,
    linear_forcing,
    renewal_measure,
    solve_renewal_equation,
    tv_to_stationary,
)
from .stone import phi2_tail, stone_decompose

SEED_ENV_VAR = "RENEWAL_LAB_SEED"


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", f"expected a JSON object, got {cfg!r}")
    return cfg


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
    # the seed is one 32-bit word of every stream key (acceptance._stream)
    if not 0 <= seed < 2**32:
        raise ConfigError(field, f"expected an integer in [0, 2**32), got {seed}")
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


def _read_times(cfg: dict, field: str, default: list, grid: Grid) -> list:
    """``_read`` of a list of times at which the renewal measure on ``grid``
    is read: each must lie in [0, horizon], checked before anything is
    solved or simulated, and ``ConfigError`` names the field otherwise."""
    ts = _read(cfg, field, default)
    for t in ts:
        try:
            grid.index_of(t)
        except HorizonExceededError as exc:
            raise ConfigError(field, str(exc)) from None
    return ts


class Runner:
    """Shared plumbing: output directory, checks, the artifact writers and
    the report."""

    def __init__(self, subcommand: str, cfg: dict, out_dir: str):
        self.subcommand = subcommand
        self.cfg = cfg
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = _resolve_seed(cfg)
        self.checks: list[dict] = []
        self.t0 = time.perf_counter()

    def check(self, result: CheckResult) -> None:
        self.checks.append(
            {
                "name": result.label,
                "passed": bool(result.passed),
                "measured": result.measured,
                "tolerance": result.tolerance,
                "seconds": result.seconds,
            }
        )
        click.echo(result.line())

    def write_rows(self, name: str, header: str, rows) -> None:
        """CSV artifact ``name``: the header line(s), then one line per row,
        a Python ``int`` as an integer and any other value as
        ``repr(float(v))``, so every float reads back exactly."""
        with open(self.out / name, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(str(v) if type(v) is int else repr(float(v)) for v in row) + "\n")

    def write_json(self, name: str, obj) -> None:
        """JSON artifact ``name``: indented by 2, keys sorted."""
        with open(self.out / name, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)

    def finish(self) -> bool:
        resolved = dict(self.cfg)
        resolved["seed"] = self.seed
        report = {
            "subcommand": self.subcommand,
            "config": resolved,
            "checks": self.checks,
            "passed": all(c["passed"] for c in self.checks),
            "wall_time_s": time.perf_counter() - self.t0,
        }
        self.write_json("report.json", report)
        click.echo(f"report: {self.out / 'report.json'}")
        return report["passed"]


def _measure_header(m: GridMeasure) -> str:
    # the atom at 0 has no node of its own, so it rides in a comment line
    return f"# atom0={float(m.atom0)!r}\nx,density"


# ---------------------------------------------------------------------------


@click.group()
def main():
    """Numerical renewal-theory experiments with deterministic seeds."""


_OPTIONS = (
    click.option("--config", "config_path", required=True, type=click.Path()),
    click.option("--out", "out_dir", default="runs", show_default=True),
    click.option("--strict", is_flag=True, help="exit 1 if any check fails"),
)


def _subcommand(*options, name=None):
    """Register ``fn(runner, cfg, **extra)`` as the subcommand ``name``
    (default: the function's name), with --config, --out, --strict and
    ``options``, whose values arrive as ``extra``.

    The command loads the config, runs ``fn`` with a ``Runner`` reporting
    under the subcommand's name and writes the report; it exits 2 on a
    ``ConfigError`` or another ``RenewalLabError``, 1 when a check failed
    under --strict, and 0 otherwise.
    """

    def register(fn):
        subcommand = name or fn.__name__

        def command(config_path, out_dir, strict, **extra):
            try:
                cfg = _load_config(config_path)
                runner = Runner(subcommand, cfg, out_dir)
                fn(runner, cfg, **extra)
                passed = runner.finish()
            except ConfigError as exc:
                click.echo(f"config error: {exc}", err=True)
                sys.exit(2)
            except RenewalLabError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            sys.exit(1 if strict and not passed else 0)

        # click lists the options in the reverse order of application
        for option in reversed((*_OPTIONS, *options)):
            command = option(command)
        return main.command(name=subcommand, help=fn.__doc__)(command)

    return register


@_subcommand()
def solve(runner: Runner, cfg: dict):
    """Solve the renewal equation for a configured forcing."""
    dist = distribution_from_config(cfg.get("distribution", {}))
    grid = _resolve_grid(cfg, dist)
    forcing_cfg = cfg.get("forcing", {"type": "linear"})
    if not isinstance(forcing_cfg, dict):
        raise ConfigError("forcing", f"expected an object, got {forcing_cfg!r}")
    kind = forcing_cfg.get("type")
    try:
        # only a power forcing (1 + x)^-r with r << 0 grows large enough to
        # overflow, in the forcing itself or later in the solve
        with np.errstate(over="raise"):
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
    except FloatingPointError:
        raise ConfigError(
            "forcing.exponent", f"(1 + x)^{-r:g} overflows the solve on [0, {grid.horizon:g}]"
        ) from None
    runner.write_rows("Z.csv", "x,value", zip(grid.nodes(), sol.Z.values))
    runner.write_rows("forcing.csv", "x,value", zip(grid.nodes(), forcing.values))
    # on the scale of the solution, so an exact solve of a large Z passes
    rel = sol.residual / max(1.0, float(np.max(np.abs(sol.Z.values))))
    measured = {"residual": sol.residual, "relative_residual": rel}
    runner.check(CheckResult(None, "solver residual", rel <= 1e-8, measured, "residual / max(1, max|Z|) <= 1e-8"))
    if kind == "linear":
        runner.check(check_linear_solution(dist, sol))


@_subcommand()
def phi(runner: Runner, cfg: dict):
    """Compute the renewal measure and its sanity checks."""
    dist = distribution_from_config(cfg.get("distribution", {}))
    grid = _resolve_grid(cfg, dist)
    measure = renewal_measure(dist, grid)
    runner.write_rows("phi.csv", _measure_header(measure), zip(grid.nodes(), measure.density))
    t_probe = 0.5 * grid.horizon
    # Phi((0, t]) / t, without the atom at 0: the renewals the elementary
    # renewal theorem counts, so the ratio carries no 1 / t term
    ratio = measure.interval_mass(0.0, t_probe) / t_probe
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


@_subcommand()
def stone(runner: Runner, cfg: dict):
    """Decompose the renewal measure into bounded plus absolutely continuous parts."""
    dist = distribution_from_config(cfg.get("distribution", {}))
    grid = _resolve_grid(cfg, dist)
    dec = stone_decompose(dist, grid)
    runner.write_rows("phi1.csv", "x,value", zip(grid.nodes(), dec.phi1.values))
    runner.write_rows("phi2.csv", _measure_header(dec.phi2), zip(grid.nodes(), dec.phi2.density))
    tail_xs = np.linspace(0.0, grid.horizon, 101)
    runner.write_rows("phi2_tail.csv", "x,tail", ((x, phi2_tail(dec, x)) for x in tail_xs))
    c = dec.component
    runner.write_json("component.json", {"n0": c.n0, "a": c.a, "b": c.b, "mass": c.mass, "level": c.level})
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


@_subcommand()
def bt(runner: Runner, cfg: dict):
    """Forward-recurrence laws at configured probe times plus TV distances."""
    dist = distribution_from_config(cfg.get("distribution", {}))
    grid = _resolve_grid(cfg, dist)
    ts = _read_times(cfg, "ts", [2.0 * dist.mean(), 10.0 * dist.mean()], grid)
    measure = renewal_measure(dist, grid)
    rows = []
    for i, t in enumerate(ts):
        cdf = forward_recurrence_cdf(dist, t, phi=measure)
        runner.write_rows(f"bt_cdf_{i}.csv", "x,value", zip(cdf.grid.nodes(), cdf.values))
        diagnostics = {}
        tv = tv_to_stationary(dist, t, phi=measure, diagnostics=diagnostics)
        rows.append((t, tv))
        # the read is O(h^2) accurate: clipping to [0, 1] and the
        # monotonizing step must move it by no more than that
        runner.check(
            CheckResult(
                None,
                f"recurrence CDF at t={t:g} needs no clip correction beyond h^2",
                diagnostics["clip_correction"] <= grid.step**2,
                {"clip_correction": diagnostics["clip_correction"], "final_value": float(cdf.values[-1])},
                f"clip correction <= h^2 = {grid.step**2:g}",
            )
        )
    runner.write_rows("tv.csv", "t,tv_to_stationary", rows)


@_subcommand()
def couple(runner: Runner, cfg: dict):
    """Simulate the pure/stationary coupling and its trial-count law."""
    dist = distribution_from_config(cfg.get("distribution", {}))
    grid = _resolve_grid(cfg, dist)
    n_traces = _read(cfg, "n_traces", 2000)
    ts = _read_times(cfg, "t_checks", [5.0 * dist.mean()], grid)
    if ts and n_traces < 1000:
        raise ConfigError(
            "t_checks",
            f"the coupling-inequality tail estimate needs n_traces >= 1000, got {n_traces}; "
            "set t_checks: [] to run fewer traces",
        )
    measure = renewal_measure(dist, grid)
    params = find_common_component(dist, phi=measure)
    traces = [
        simulate_coupling(dist, params, _stream(runner.seed, 0, i), phi=measure) for i in range(n_traces)
    ]
    runner.write_rows(
        "traces.csv",
        "trace,k,eta,eta_hat,beta,beta_hat,indicator",
        (
            (i, k, *tr.eta[k], *tr.beta[k], int(k == tr.sigma))
            for i, tr in enumerate(traces)
            for k in range(tr.sigma + 1)
        ),
    )
    runner.write_json(
        "summary.json",
        {
            "params": {"b": params.b, "d": params.d, "delta": params.delta},
            "traces": [{"sigma": int(tr.sigma), "coupling_time": tr.coupling_time} for tr in traces],
        },
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
    if ts:
        runner.check(check_coupling_inequality(dist, traces, measure, ts))


@_subcommand()
def compensator(runner: Runner, cfg: dict):
    """Martingale centering and cycle-hazard law from simulated paths."""
    dist = distribution_from_config(cfg.get("distribution", {}))
    n_paths = _read(cfg, "n_paths", 2000)
    mults = _read(cfg, "t_means", [5.0, 20.0])
    # the paths run to the last time, so there must be one and all be > 0
    if not mults or min(mults) <= 0.0:
        raise ConfigError("t_means", f"expected one or more positive multiples of the mean, got {mults}")
    dump_paths = cfg.get("dump_paths", False)
    if not isinstance(dump_paths, bool):
        raise ConfigError("dump_paths", f"expected true or false, got {dump_paths!r}")
    ts = np.asarray(mults) * dist.mean()
    blocks = list(simulate_paths(dist, max(mults) * dist.mean(), n_paths, _stream(runner.seed, 0, 0)))
    # a block holds one or more rows, so the first n blocks hold the first n rows
    if dump_paths:
        rows = [row[: k + 1] for block in blocks[:50] for row, k in zip(block.events, block.counts)]
        runner.write_rows("paths.csv", "path,event_time", ((i, t) for i, row in enumerate(rows[:50]) for t in row))
    shown = np.concatenate([block.residuals(dist, ts) for block in blocks[:8]])[:8]
    runner.write_rows(
        "martingale.csv",
        "t," + ",".join(f"path{i}" for i in range(len(shown))),
        ((t, *column) for t, column in zip(ts, shown.T)),
    )
    for result in check_compensator(dist, blocks, mults):
        runner.check(result)


@_subcommand()
def krt(runner: Runner, cfg: dict):
    """Limit-error curve of the renewal convolution and its slope fit."""
    dist = distribution_from_config(cfg.get("distribution", {}))
    grid = _resolve_grid(cfg, dist)
    r_z = _read(cfg, "z_exponent", 2.0)
    # the analytic tail of the limit integral, z(s)(1+s)/(r-1), needs r > 1
    if r_z <= 1.0:
        raise ConfigError("z_exponent", f"expected a number > 1, got {r_z}")
    q = _read(cfg, "q", 2.0)
    # a moment order is positive; at q <= 0 the slope bound max(1 - r, -q) + 0.3 passes a growing error
    if q <= 0.0:
        raise ConfigError("q", f"expected a moment order > 0, got {q}")
    lo_means = _read(cfg, "window_lo_means", 20.0)
    hi_means = _read(cfg, "window_hi_means", 80.0)
    if not 0.0 < lo_means < hi_means:
        raise ConfigError(
            "window_lo_means", f"expected 0 < window_lo_means < window_hi_means, got {lo_means} and {hi_means}"
        )
    mean = dist.mean()
    lo = lo_means * mean
    hi = hi_means * mean
    if hi >= grid.horizon:
        raise ConfigError("grid.horizon", f"must exceed the fit window end {hi:g}")
    xs = np.geomspace(lo, hi, _read(cfg, "n_points", 24))
    measure = renewal_measure(dist, grid)
    z_fn = lambda y: (1.0 + np.asarray(y)) ** (-r_z)
    curve = krt_error_curve(dist, z_fn, r_z, xs, phi=measure)
    runner.write_rows("krt_curve.csv", "x,err", zip(curve.xs, curve.errs))
    fit = krt_fit(curve, (lo, hi), _read(cfg, "floor", 0.0))
    if fit is not None:
        runner.write_json(
            "krt_fit.json", {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2, "n_points": fit.n_points}
        )
    runner.check(check_krt_slopes(dist, r_z, [fit], q))


@_subcommand()
def rootzen(runner: Runner, cfg: dict):
    """Uniform error of the cycle-maximum power approximation across horizons."""
    dist = distribution_from_config(cfg.get("distribution", {}))
    statistic = cfg.get("statistic", "max-xi")
    if statistic not in ("max-xi", "max-tau"):
        raise ConfigError("statistic", f'expected "max-xi" or "max-tau", got {statistic!r}')
    t_list = _read(cfg, "T_list", [20.0, 200.0])
    # a shrinking error needs two horizons, and paths need a horizon > 0
    if len(t_list) < 2 or min(t_list) <= 0.0:
        raise ConfigError("T_list", f"expected two or more positive horizons, got {t_list}")
    n_paths = _read(cfg, "n_paths", 2000)
    try:
        runs = [_rootzen_error(dist, T, n_paths, statistic, _stream(runner.seed, 0, j)) for j, T in enumerate(t_list)]
    except FiniteSupportError as exc:
        # raised by the first horizon's call, before any path is drawn
        raise ConfigError("statistic", f"{statistic!r} on a {dist.kind} law: {exc}") from None
    runner.write_rows("rootzen.csv", "T,sup_error", ((T, err) for T, (err, _, _) in zip(t_list, runs)))
    runner.check(check_rootzen_shrinks(dist, t_list, runs, n_paths))


@_subcommand(click.option("--criteria", default="", help="comma-separated subset, e.g. 1,2,5"), name="all")
def run_all(runner: Runner, cfg: dict, criteria: str):
    """Run the full acceptance suite and write its report."""
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


if __name__ == "__main__":
    main()
