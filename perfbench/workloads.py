"""The four benchmark workloads.

Each workload replays the library calls of some acceptance criteria at their
input sizes and applies those criteria's tolerances as checks, without
calling the criteria themselves.  ``build`` makes everything a pass needs
before timing starts (distributions, grids, generator keys).  A pass is a
generator that yields between steps of about a second, where the runner
samples its calibration kernel.  Library functions are looked up through
their modules at call time, so the tracer's rebinding reaches every call.

Monte Carlo checks are gated only when exact or when their false-alarm rate
is at most that of a 3-sigma band: the bands used are 5 sigma, because each
workload runs dozens of times and a 3-sigma gate would trip on correct code.
The 3-sigma verdicts and the 5%-level statistics are recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from renewal_lab import asymptotics, compensator, coupling, renewal, stone
from renewal_lab.distributions import Exponential, Gamma, ShiftedPareto, Uniform
from renewal_lab.errors import InsufficientPointsError, ThinningError
from renewal_lab.grids import Grid

from checks import Checks, compare_reference

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MC_SIGMAS = 5.0


def four_kinds():
    return (Exponential(1.0), Gamma(2.0, 1.0), Uniform(0.0, 2.0), ShiftedPareto(3.5, 1.0))


def z_power(r: float):
    return lambda y: (1.0 + np.asarray(y)) ** (-r)


@dataclass
class Context:
    """Inputs of one workload run: built once, shared by every pass."""

    seed: int
    index: int
    dists: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    tasks: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def generators(self) -> dict:
        """Fresh generators for one pass: task key -> default_rng([seed, workload, task])."""
        return {key: np.random.default_rng([self.seed, self.index, task]) for key, task in self.tasks.items()}


# ---------------------------------------------------------------------------
# grid-solve: criteria 1, 2, 4 and one criterion-8 cell


def build_grid_solve(ctx: Context) -> None:
    for dist in four_kinds():
        ctx.dists[dist.kind] = dist
        for ppm in (200, 400):
            ctx.grids[dist.kind, ppm] = Grid(dist.mean() / ppm, ppm * 100)
    gamma = ctx.dists["gamma"]
    ctx.grids["c1"] = Grid(0.005, 20000)
    ctx.grids["c4"] = renewal.default_grid(gamma)
    for factor in (1, 2):
        ctx.grids["c8", factor] = Grid(gamma.mean() / (400 * factor), 400 * factor * 86)


def run_grid_solve(ctx: Context, rngs: dict, checks: Checks):
    arrays, numbers = {}, {}
    exp, gamma = ctx.dists["exponential"], ctx.dists["gamma"]

    grid = ctx.grids["c1"]
    phi = renewal.renewal_measure(exp, grid)
    err1 = float(np.max(np.abs(phi.cumulative() - (1.0 + grid.nodes()))))
    checks.gate("c1 exponential renewal function", err1 <= 5.0 * grid.step, max_abs_err=err1)
    arrays["c1.phi.density"] = phi.density
    closed_form = err1
    yield

    for dist in ctx.dists.values():
        errs = {}
        for ppm in (200, 400):
            grid = ctx.grids[dist.kind, ppm]
            sol = renewal.solve_renewal_equation(dist, renewal.linear_forcing(dist, grid))
            errs[ppm] = float(np.max(np.abs(sol.Z.values - dist.rate() * grid.nodes())))
            checks.gate(f"solver residual, {dist.kind}, {ppm} per mean", sol.residual <= 1e-8,
                        residual=sol.residual)
            arrays[f"c2.{dist.kind}.{ppm}.Z"] = sol.Z.values
            yield
        h = dist.mean() / 200.0
        tol = 10.0 * h * h * 100.0
        ok = errs[200] <= tol and errs[400] <= errs[200] / 3.0 + 1e-12
        checks.gate(f"c2 linear solution round trip, {dist.kind}", ok, err_h=errs[200], err_h_half=errs[400])
        closed_form = max(closed_form, errs[200])
    numbers["renewal.closed_form_err"] = (closed_form, "1")

    grid = ctx.grids["c4"]
    dec = stone.stone_decompose(gamma, grid)
    scale = float(np.max(np.abs(dec.phi.density)))
    recon = float(np.max(np.abs(dec.phi1.values + dec.phi2.density - dec.phi.density))) / scale
    c = dec.component
    mass_dev = abs(dec.phi2.total_mass() - c.n0 / c.mass)
    tail = dec.phi1.values[grid.index_of(50.0 * gamma.mean()):]
    phi1_dev = float(np.max(np.abs(tail - gamma.rate())))
    checks.gate("c4 Stone split, gamma(2,1)",
                recon <= 1e-6 and mass_dev <= 1e-6 and phi1_dev <= 0.02 * gamma.rate(),
                reconstruction_rel=recon, mass_identity_dev=mass_dev, density_limit_dev=phi1_dev)
    arrays["c4.phi1"] = dec.phi1.values
    arrays["c4.phi2.density"] = dec.phi2.density
    arrays["c4.component"] = np.array([c.n0, c.a, c.b, c.mass])
    yield

    mean = gamma.mean()
    xs = np.geomspace(20.0 * mean, 80.0 * mean, 24)
    curves = {}
    for factor in (1, 2):
        grid = ctx.grids["c8", factor]
        phi = renewal.renewal_measure(gamma, grid)
        curves[factor] = asymptotics.krt_error_curve(gamma, z_power(2.0), 2.0, xs, grid=grid, phi=phi)
        arrays[f"c8.gamma.r2.h{factor}.phi.density"] = phi.density
        yield
    diff = float(np.max(np.abs(curves[1].errs - curves[2].errs)))
    slopes = {}
    for factor, floor in ((1, 4.0 * diff), (2, diff)):
        try:
            slopes[factor] = asymptotics.fit_slope(curves[factor], (20.0 * mean, 80.0 * mean), floor=floor).slope
        except InsufficientPointsError:
            slopes[factor] = math.nan
    checks.gate("c8 limit-error slope, gamma, z=(1+y)^-2",
                slopes[1] <= -0.7 and slopes[2] <= -0.7, slope_h=slopes[1], slope_h_half=slopes[2])
    return arrays, numbers


# ---------------------------------------------------------------------------
# recurrence-read: the renewal layer read from a fixed Phi

READ_POINTS = 24
KRT_POINTS = 24


def build_recurrence_read(ctx: Context) -> None:
    for dist in four_kinds():
        ctx.dists[dist.kind] = dist
        grid = renewal.default_grid(dist)
        ctx.grids[dist.kind] = grid
        ctx.grids[dist.kind, "x"] = renewal.default_recurrence_grid(dist, grid.step)
        ctx.extra[dist.kind, "ts"] = np.geomspace(1.0, 80.0, READ_POINTS) * dist.mean()


def run_recurrence_read(ctx: Context, rngs: dict, checks: Checks):
    arrays = {}
    for dist in ctx.dists.values():
        kind, mean = dist.kind, dist.mean()
        grid, x_grid = ctx.grids[kind], ctx.grids[kind, "x"]
        ts = ctx.extra[kind, "ts"]
        phi = renewal.renewal_measure(dist, grid)
        arrays[f"{kind}.phi.density"] = phi.density

        monotone = True
        nonnegative = True
        for j, t in enumerate(ts):
            cdf = renewal.forward_recurrence_cdf(dist, t, x_grid, phi=phi).values
            dens = renewal.forward_recurrence_density(dist, t, x_grid, phi=phi).values
            monotone = monotone and bool(np.all(np.diff(cdf) >= 0.0) and cdf[0] >= 0.0 and cdf[-1] <= 1.0)
            nonnegative = nonnegative and bool(np.all(dens >= 0.0))
            arrays[f"{kind}.cdf.t{j}"] = cdf
            if j % 6 == 5:
                yield
        checks.gate(f"B_t CDFs monotone in [0, 1], {kind}", monotone)
        checks.gate(f"B_t densities nonnegative, {kind}", nonnegative)

        curve = asymptotics.tv_decay_curve(dist, ts, phi=phi, x_grid=x_grid)
        if kind == "shifted-pareto":
            fit = asymptotics.fit_slope(curve, (20.0 * mean, 80.0 * mean), floor=1e-7)
            checks.gate("TV decay slope, pareto(3.5, 1)", fit.slope <= -1.7, slope=fit.slope)
        if kind == "gamma":
            weighted_curve = asymptotics.tv_decay_curve(
                dist, np.array([5.0, 10.0, 20.0, 40.0]) * mean, phi=phi, x_grid=x_grid)
            decreasing = [bool(np.all(np.diff(weighted_curve.xs**q * weighted_curve.errs) < 0.0))
                          for q in (1, 2, 3)]
            checks.xfail("t^q-weighted TV decreasing on [5,40]*mean, gamma(2,1)", all(decreasing),
                         decreasing_q123=decreasing)
        yield

        params = coupling.find_common_component(dist, phi=phi)
        t_check = np.linspace(params.d, params.d + 22.0 * mean, 57)
        margin = coupling.verify_common_component(dist, params, phi=phi, t_points=t_check)
        checks.gate(f"common component delta >= 0.01, {kind}", params.delta >= 0.01, delta=params.delta)
        checks.gate(f"common component margin >= 0, {kind}", margin >= 0.0, margin=margin)
        arrays[f"{kind}.component"] = np.array([params.b, params.d, params.delta])

        krt = asymptotics.krt_error_curve(dist, z_power(2.0), 2.0,
                                          np.geomspace(20.0 * mean, 80.0 * mean, KRT_POINTS),
                                          grid=grid, phi=phi)
        checks.record(f"limit error at 20..80 means, {kind}", first=krt.errs[0], last=krt.errs[-1])
        yield
    return arrays, {}


# ---------------------------------------------------------------------------
# coupling-chain: criteria 6 and 7

COUPLING_TRACES = 2000
POST_TRACES = 200


def build_coupling_chain(ctx: Context) -> None:
    task = 0
    for dist in (Gamma(2.0, 1.0), ShiftedPareto(3.5, 1.0)):
        ctx.dists[dist.kind] = dist
        ctx.grids[dist.kind] = renewal.default_grid(dist, horizon_means=50.0)
        for i in range(COUPLING_TRACES):
            ctx.tasks[dist.kind, i] = task
            task += 1
        ctx.tasks[dist.kind, "post"] = task
        task += 1


def _sigma_chisquare(sig: np.ndarray, d2: float) -> float:
    n = len(sig)
    k_max = 0
    while n * d2 * (1.0 - d2) ** (k_max + 1) >= 5.0 and k_max < 400:
        k_max += 1
    obs = [int(np.sum(sig == m)) for m in range(k_max + 1)] + [int(np.sum(sig > k_max))]
    exp = [n * d2 * (1.0 - d2) ** m for m in range(k_max + 1)] + [n * (1.0 - d2) ** (k_max + 1)]
    return float(stats.chisquare(obs, exp).pvalue)


def run_coupling_chain(ctx: Context, rngs: dict, checks: Checks):
    for dist in ctx.dists.values():
        kind, mean = dist.kind, dist.mean()
        phi = renewal.renewal_measure(dist, ctx.grids[kind])
        params = coupling.find_common_component(dist, phi=phi)
        t_check = np.linspace(params.d, params.d + 22.0 * mean, 57)
        margin = coupling.verify_common_component(dist, params, phi=phi, t_points=t_check)
        checks.gate(f"common component delta >= 0.01, {kind}", params.delta >= 0.01, delta=params.delta)
        checks.gate(f"common component margin >= 0, {kind}", margin >= 0.0, margin=margin)

        traces = []
        thinning_errors = 0
        for i in range(COUPLING_TRACES):
            try:
                traces.append(coupling.simulate_coupling(dist, params, rngs[kind, i], phi=phi))
            except ThinningError:
                thinning_errors += 1
            if i % 250 == 249:
                yield
        checks.gate(f"no ThinningError, {kind}", thinning_errors == 0, thinning_errors=thinning_errors)

        sig = np.array([tr.sigma for tr in traces])
        d2 = params.delta**2
        p_first = float(np.mean(sig == 0))
        sd = math.sqrt(d2 * (1.0 - d2) / len(sig))
        checks.gate(f"first-trial acceptance within {MC_SIGMAS:g} sigma of delta^2, {kind}",
                    abs(p_first - d2) <= MC_SIGMAS * sd, p_first=p_first, delta2=d2, sd=sd)
        checks.record(f"first-trial acceptance within 3 sigma, {kind}", holds=abs(p_first - d2) <= 3.0 * sd)
        checks.record(f"trial count geometric (chi-square), {kind}", pvalue=_sigma_chisquare(sig, d2))

        identical = True
        rng_post = rngs[kind, "post"]
        for tr in traces[:POST_TRACES]:
            e1, e2 = coupling.coupled_event_sequences(tr, dist, tr.coupling_time + 30.0, rng_post)
            identical = identical and np.array_equal(e1[e1 >= tr.coupling_time - 1e-12],
                                                     e2[e2 >= tr.coupling_time - 1e-12])
        checks.gate(f"post-coupling sequences agree exactly, {kind}", identical)
        yield

        if kind == "gamma":
            sides = {}
            for mult in (5.0, 10.0, 20.0):
                t = mult * mean
                est = coupling.coupling_tail(traces, t)
                tv = renewal.tv_to_stationary(dist, t, phi=phi)
                sides[f"{mult:g}m"] = (2.0 * est.p + 3.0 * est.stderr, tv)
            checks.gate("coupling inequality dominates the TV distance, gamma",
                        all(lhs >= tv for lhs, tv in sides.values()),
                        **{f"lhs@{k}": v[0] for k, v in sides.items()}, **{f"tv@{k}": v[1] for k, v in sides.items()})
        half = coupling.coupling_moment(traces[: len(traces) // 2], 2.0).value
        full = coupling.coupling_moment(traces, 2.0).value
        checks.record(f"coupling-time second moment, {kind}", m2_half=half, m2_all=full,
                      rel_diff=abs(half - full) / full)
    return {}, {}


# ---------------------------------------------------------------------------
# path-sim: criteria 10, 11, 12 and the Monte Carlo side of criterion 3

C10_PATHS = 2500
C11_PATHS = 150
C12_PATHS = 5000
C3_DRAWS = 100_000
C11_SWEEPS = (
    ("compensator sup, gamma(2, 0.06), p=0.5", Gamma(2.0, 0.06), "compensator", 0.5),
    ("recurrence sup, pareto(3.5, 0.09), p=3", ShiftedPareto(3.5, 0.09), "recurrence", 3.0),
)
C11_HORIZONS = (1.0e2, 1.0e3, 1.0e4)
C3_MULTS = (2.0, 10.0, 50.0)


def build_path_sim(ctx: Context) -> None:
    task = 0
    for dist in four_kinds():
        ctx.dists[dist.kind] = dist
        ctx.tasks["c10", dist.kind] = task
        task += 1
        for mult in C3_MULTS:
            ctx.tasks["c3", dist.kind, mult] = task
            task += 1
    for label, *_ in C11_SWEEPS:
        for T in C11_HORIZONS:
            ctx.tasks["c11", label, T] = task
            task += 1
    for T in (20.0, 200.0):
        ctx.tasks["c12", T] = task
        task += 1


def _stationary_b_moments(dist) -> tuple[float, float]:
    """Mean and variance of the stationary forward recurrence time."""
    mu = dist.mean()
    mean = dist.moment(2.0).value / (2.0 * mu)
    return mean, dist.moment(3.0).value / (3.0 * mu) - mean * mean


def run_path_sim(ctx: Context, rngs: dict, checks: Checks):
    for dist in ctx.dists.values():
        kind, mean = dist.kind, dist.mean()
        rng = rngs["c10", kind]
        mults = (5.0, 20.0, 50.0)
        residuals = {m: np.empty(C10_PATHS) for m in mults}
        xi_parts, xi_count = [], 0
        for i in range(C10_PATHS):
            path = compensator.simulate_path(dist, 50.0 * mean, "zero", rng)
            for m in mults:
                t = m * mean
                residuals[m][i] = path.count(t) - 1 - compensator.compensator_at(path, dist, t)
            if xi_count < 12_000:
                xi = compensator.cycle_hazards(path, dist).xi
                xi_parts.append(xi)
                xi_count += len(xi)
        ks = stats.kstest(np.concatenate(xi_parts), "expon")
        checks.record(f"cycle hazards standard exponential, {kind}", ks=ks.statistic, pvalue=ks.pvalue)
        z = {m: abs(float(v.mean())) / (float(v.std()) / math.sqrt(C10_PATHS)) for m, v in residuals.items()}
        checks.gate(f"martingale centering within {MC_SIGMAS:g} sd/sqrt(n), {kind}",
                    all(v <= MC_SIGMAS for v in z.values()), **{f"z@{m:g}m": v for m, v in z.items()})
        checks.record(f"martingale centering within 3 sd/sqrt(n), {kind}", holds=all(v <= 3.0 for v in z.values()))
        yield

    for label, dist, which, p in C11_SWEEPS:
        probs = []
        dominated = True
        for T in C11_HORIZONS:
            rng = rngs["c11", label, T]
            hits = 0
            for _ in range(C11_PATHS):
                path = compensator.simulate_path(dist, T, "zero", rng)
                if which == "compensator":
                    value = compensator.scaled_compensator_sup(path, dist, T, p)
                    bound = compensator.path_max_statistic(path, dist, T, "max-xi") / T**p
                else:
                    _, value = compensator.scaled_recurrence_sup(path, T, p)
                    bound = compensator.path_max_statistic(path, dist, T, "max-tau") / T ** (1.0 / p)
                dominated = dominated and value <= bound + 1e-12
                hits += value > 0.1
            probs.append(hits / C11_PATHS)
            yield
        checks.gate(f"pathwise domination, {label}", dominated)
        checks.record(f"P(sup > 0.1) decreasing in T, {label}", probs=probs,
                      decreasing=probs[0] > probs[1] > probs[2])

    gamma = ctx.dists["gamma"]
    errs = {T: compensator.rootzen_uniform_error(gamma, T, C12_PATHS, "max-xi", rngs["c12", T])
            for T in (20.0, 200.0)}
    checks.record("cycle-maximum uniform error shrinks, gamma(2,1)", err_T20=errs[20.0], err_T200=errs[200.0],
                  shrinks=errs[200.0] < errs[20.0])
    yield

    for dist in ctx.dists.values():
        kind, mean = dist.kind, dist.mean()
        draws = {}
        for mult in C3_MULTS:
            draws[mult] = compensator.sample_forward_recurrence(dist, mult * mean, C3_DRAWS, rngs["c3", kind, mult])
            ks = stats.kstest(draws[mult], dist.stationary_delay_cdf)
            checks.record(f"B_t draws vs stationary law (KS), {kind}, t={mult:g}*mean",
                          ks=ks.statistic, pvalue=ks.pvalue)
            yield
        b_mean, b_var = _stationary_b_moments(dist)
        z = abs(float(draws[C3_MULTS[-1]].mean()) - b_mean) / math.sqrt(b_var / C3_DRAWS)
        # Lomax(3.5) reaches its stationary mean at rate t^-1.5: at 50 means the
        # bias is about 2 sd of a 1e5-draw mean, so that kind is recorded only
        if kind == "shifted-pareto":
            checks.record(f"large-t mean of B_t vs E[tau^2]/(2E[tau]), {kind}", z=z)
        else:
            checks.gate(f"large-t mean of B_t within {MC_SIGMAS:g} sigma of E[tau^2]/(2E[tau]), {kind}",
                        z <= MC_SIGMAS, z=z)
    return {}, {}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    build_fn: object
    run_fn: object
    has_reference: bool

    def build(self, seed: int) -> Context:
        ctx = Context(seed=seed, index=self.index)
        self.build_fn(ctx)
        return ctx

    def reference(self):
        import json

        path = REFERENCE_DIR / f"{self.name}.json"
        with open(path) as fh:
            return json.load(fh)

    def steps(self, ctx: Context, rngs: dict, checks: Checks, reference=None):
        """One pass as a generator of steps: the call mix, its checks and the
        reference comparison.  The generator's return value is the pair of
        order-one output arrays and the workload's extra numbers.
        """
        arrays, numbers = yield from self.run_fn(ctx, rngs, checks)
        if reference is not None:
            compare_reference(checks, arrays, reference)
        return arrays, numbers

    def run(self, ctx: Context, rngs: dict, checks: Checks, reference=None):
        """One pass without pauses between its steps."""
        steps = self.steps(ctx, rngs, checks, reference)
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-solve", 0, build_grid_solve, run_grid_solve, True),
        Workload("recurrence-read", 1, build_recurrence_read, run_recurrence_read, True),
        Workload("coupling-chain", 2, build_coupling_chain, run_coupling_chain, False),
        Workload("path-sim", 3, build_path_sim, run_path_sim, False),
    )
}
