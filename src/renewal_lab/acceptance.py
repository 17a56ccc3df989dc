"""The acceptance suite: every exit criterion as a named, seeded check.

Each criterion function returns CheckResult records with the measured value,
the pinned tolerance, and a pass flag; ``run_acceptance`` executes any subset
and yields the checks as they are made.  Checks are deterministic given the
base seed (all Monte Carlo statistics are computed at fixed significance
levels, so the verdicts are seed-dependent in principle; the defaults are
pinned).

A claim that a CLI subcommand also checks has one ``check_*`` function here:
the criterion calls it with its fixed inputs and the subcommand with the
configured ones, so the two cannot drift apart.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from .asymptotics import DecayCurve, SlopeFit, fit_slope, krt_error_curve, tv_decay_curve
from .compensator import _rootzen_error, sample_forward_recurrence, simulate_paths
from .coupling import (
    coupling_moment,
    coupling_tail,
    find_common_component,
    maximal_coupling_sample,
    simulate_coupling,
    coupled_event_sequences,
)
from .distributions import Distribution, Exponential, Gamma, ShiftedPareto, Uniform
from .errors import InsufficientPointsError
from .grids import Grid, GridMeasure, measure_from_distribution, tv_distance
from .renewal import (
    RenewalSolution,
    default_grid,
    forward_recurrence_cdf,
    linear_forcing,
    renewal_measure,
    solve_renewal_equation,
    tv_to_stationary,
)
from .stone import stone_decompose

DEFAULT_SEED = 20260809


def _stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Stream ``index`` of ``domain`` at ``seed``, the one generator factory
    of the package: criterion c draws from domain c and the CLI's tasks from
    domain 0, which no criterion uses.

    The key is always three words in [0, 2**32), and any other word raises
    ``ValueError``: SeedSequence pads a shorter key with zeros and splits a
    larger integer into 32-bit words, so ``[s, i]`` would draw the stream of
    ``[s, i, 0]`` and seed ``s + 2**32`` a stream of seed ``s``.
    """
    if not all(0 <= word < 2**32 for word in (seed, domain, index)):
        raise ValueError(f"stream key words must lie in [0, 2**32), got {[seed, domain, index]}")
    return np.random.default_rng([seed, domain, index])


FOUR_KINDS = (
    Exponential(1.0),
    Gamma(2.0, 1.0),
    Uniform(0.0, 2.0),
    ShiftedPareto(3.5, 1.0),
)


@dataclass(frozen=True)
class CheckResult:
    """One verdict; ``criterion`` is None for a check that only the CLI runs.

    ``seconds`` is the time of the criterion run that made the check, stamped
    by ``run_acceptance``; None for a check made outside it.
    """

    criterion: int | None
    name: str
    passed: bool
    measured: dict
    tolerance: str
    seconds: float | None = None

    @property
    def label(self) -> str:
        return self.name if self.criterion is None else f"{self.criterion}. {self.name}"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        number = "" if self.criterion is None else f"{self.criterion:>2}. "
        parts = ", ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        return f"[{status}] {number}{self.name}: {parts}  (req: {self.tolerance})"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


# ---------------------------------------------------------------------------
# claim checks shared by the criteria and the CLI subcommands


def _label(dist: Distribution) -> str:
    """gamma(2,1)-style name of a law with its parameters."""
    params = ",".join(f"{v:g}" for k, v in dist.to_config().items() if k != "kind")
    return f"{dist.kind}({params})"


def _set(values) -> str:
    return "{" + ",".join(f"{v:g}" for v in values) + "}"


def _count(n: int) -> str:
    """A count as the tolerance strings write it: 1e4 for a power of ten >= 1000."""
    k = len(str(n)) - 1
    return f"1e{k}" if k >= 3 and n == 10**k else str(n)


def check_exponential_closed_form(
    dist: Exponential, phi: GridMeasure, seconds: float | None = None
) -> CheckResult:
    """The renewal function of Exp(rate) is 1 + rate * t, to within 5h.

    ``seconds``, the wall time of the solve, adds criterion 1's 30 s budget.
    """
    grid = phi.grid
    err = float(np.max(np.abs(phi.cumulative() - (1.0 + dist.rate_ * grid.nodes()))))
    tol = 5.0 * grid.step
    passed = err <= tol
    measured = {"max_abs_err": err}
    req = f"err <= {tol:g}"
    if seconds is not None:
        passed = passed and seconds < 30.0
        measured["seconds"] = seconds
        req += " and runtime < 30 s"
    name = f"exponential renewal function, h={grid.step:g} on [0, {grid.horizon:g}]"
    return CheckResult(1, name, passed, measured, req)


def check_linear_solution(
    dist: Distribution, sol: RenewalSolution, sol_half: RenewalSolution | None = None
) -> CheckResult:
    """The linear forcing solves to Z(t) = t / mean within 1000 h^2; with the
    solution at h/2 as well, halving the step must shrink the error 3x."""

    def error(s: RenewalSolution) -> float:
        return float(np.max(np.abs(s.Z.values - dist.rate() * s.Z.grid.nodes())))

    h = sol.Z.grid.step
    c_scale = 100.0
    tol = 10.0 * h * h * c_scale
    measured = {"err_h": error(sol)}
    passed = measured["err_h"] <= tol
    req = f"err <= {tol:g}"
    if sol_half is not None:
        measured["err_h_half"] = error(sol_half)
        passed = passed and measured["err_h_half"] <= measured["err_h"] / 3.0 + 1e-12
        req += " and halving shrinks it 3x"
    return CheckResult(2, f"linear solution round trip, {dist.kind}", passed, measured, req)


def check_stone_split(dist: Distribution, dec) -> CheckResult:
    """Stone's split Phi = Phi1 + Phi2: the parts add back up to Phi, Phi2 has
    mass n0 / |component|, and phi1 is within 2% of 1/mean beyond half the
    horizon (50 means on the default grid)."""
    grid = dec.phi.grid
    scale = float(np.max(np.abs(dec.phi.density)))
    recon = float(np.max(np.abs(dec.phi1.values + dec.phi2.density - dec.phi.density))) / scale
    c = dec.component
    mass_dev = abs(dec.phi2.total_mass() - c.n0 / c.mass)
    m = dist.rate()
    far = 0.5 * grid.horizon
    tail = dec.phi1.values[grid.index_of(far) :]
    phi1_dev = float(np.max(np.abs(tail - m)))
    return CheckResult(
        4,
        f"bounded/absolutely-continuous split, {_label(dist)}",
        recon <= 1e-6 and mass_dev <= 1e-6 and phi1_dev <= 0.02 * m,
        {"reconstruction_rel": recon, "mass_identity_dev": mass_dev, "density_limit_dev": phi1_dev},
        "recon <= 1e-6, |mass - n0/comp| <= 1e-6, "
        f"|phi1 - m| <= 0.02 m beyond {far / dist.mean():g}*mean",
    )


def check_coupling_inequality(dist: Distribution, traces, phi: GridMeasure, ts) -> CheckResult:
    """2 P(T > t) + 3 se over the coupling traces bounds the TV distance of
    B_t to its stationary law at every t in ``ts``.  The traces' largest
    thinning ratio rides along as a report: how close delta came to a
    ``ThinningError`` (ratio > 1)."""
    bounds, tvs = {}, {}
    for t in ts:
        est = coupling_tail(traces, t)
        key = f"t={t / dist.mean():g}m"
        bounds[key] = 2.0 * est.p + 3.0 * est.stderr
        tvs[f"tv {key}"] = tv_to_stationary(dist, t, phi=phi)
    top_ratio = max(tr.max_thinning_ratio for tr in traces)
    return CheckResult(
        6,
        "coupling inequality dominates the TV distance",
        all(b >= tv for b, tv in zip(bounds.values(), tvs.values())),
        bounds | tvs | {"max_thinning_ratio": top_ratio},
        f"2 P(T > t) + 3 se >= tv at t in {_set(t / dist.mean() for t in ts)} means",
    )


def check_compensator(dist: Distribution, blocks, mults) -> list[CheckResult]:
    """Cycle hazards pooled over the first paths, until 12000 cycles, are
    standard exponential; N - 1 - Lambda is centered at t = m * mean within
    3 sd / sqrt(n) for every m in ``mults``.  ``blocks`` holds the paths as
    ``PathBlock``s to the last of those times and may be a generator; the
    centering check reports their stragglers and ties."""
    ts = np.asarray(mults, dtype=float) * dist.mean()
    parts, xi_parts = [], []
    xi_count = stragglers = ties = 0
    for block in blocks:
        parts.append(block.residuals(dist, ts))
        stragglers += block.stragglers
        ties += block.ties
        # a path joins the pool while the pool holds fewer than 12000 cycles
        sizes = block.counts + 1
        rows = int(np.count_nonzero(xi_count + np.cumsum(sizes) - sizes < 12_000))
        if rows:
            xi_parts.append(block.cycle_hazards(dist, rows))
            xi_count += int(sizes[:rows].sum())
    pool = np.concatenate(xi_parts)
    ks = stats.kstest(pool, "expon")
    columns = np.concatenate(parts).T.copy()  # one contiguous row per t
    n_paths = columns.shape[1]
    ok = True
    meas = {}
    for m, v in zip(mults, columns):
        bound = 3.0 * float(v.std()) / math.sqrt(n_paths)
        meas[f"mean@{m:g}m"] = float(v.mean())
        meas[f"bound@{m:g}m"] = bound
        ok = ok and abs(float(v.mean())) <= bound
    meas["stragglers"] = stragglers
    meas["ties"] = ties
    return [
        CheckResult(
            10,
            f"cycle hazards are standard exponential, {dist.kind}",
            bool(ks.pvalue >= 0.05),
            {"ks": float(ks.statistic), "pvalue": float(ks.pvalue), "n_cycles": len(pool)},
            f"KS vs Exp(1) at the 5% level over {_count(len(pool))} pooled cycles",
        ),
        CheckResult(
            10,
            f"martingale centering, {dist.kind}",
            ok,
            meas,
            f"|mean(N - 1 - Lambda)| <= 3 sd / sqrt({_count(n_paths)}) at t in {_set(mults)} means",
        ),
    ]


def krt_rate_fits(dist: Distribution, r_z: float, grid: Grid, xs) -> tuple[list[DecayCurve], list[SlopeFit | None]]:
    """The limit-error curves for z = (1+y)^-r at ``xs`` on ``grid`` and on
    its refinement to h/2, and their slope fits over (xs[0], xs[-1]), a fit
    None when fewer than five points clear its floor.  The floors come from
    the pair: d = max |err_h - err_{h/2}| is about (3/4) of the bias at h, so
    4d at h and d at h/2 are 3x the bias each implies."""
    z_fn = lambda y: (1.0 + np.asarray(y)) ** (-r_z)
    curves = [
        krt_error_curve(dist, z_fn, r_z, xs, phi=renewal_measure(dist, g))
        for g in (grid, Grid(grid.step / 2.0, 2 * grid.count))
    ]
    diff = float(np.max(np.abs(curves[0].errs - curves[1].errs)))
    fits = []
    for curve, floor in zip(curves, (4.0 * diff, diff)):
        try:
            fits.append(fit_slope(curve, (xs[0], xs[-1]), floor=floor))
        except InsufficientPointsError:
            fits.append(None)
    return curves, fits


def check_krt_slopes(dist: Distribution, r_z: float, fits, q: float = 2.0) -> CheckResult:
    """The limit error for z = (1+y)^-r decays with fitted slope <= max(1 - r, -q) + 0.3.

    ``fits`` holds the fits at h and h/2 of ``krt_rate_fits``; a missing fit
    (too few points above the floor) fails the check.
    """
    bound = max(1.0 - r_z, -q) + 0.3
    return CheckResult(
        8,
        f"limit-error slope, {dist.kind}, z=(1+y)^-{r_z:g}",
        all(f is not None and f.slope <= bound for f in fits),
        dict(zip(("slope_h", "slope_h_half"), (math.nan if f is None else f.slope for f in fits))),
        f"both slopes <= {bound:g}; verdict stable under h -> h/2",
    )


def check_rootzen_shrinks(
    dist: Distribution, t_list, runs, n_paths: int, seconds: float | None = None
) -> CheckResult:
    """The uniform error of the cycle-maximum approximation strictly decreases
    along the horizons.  ``runs`` holds the (error, stragglers, ties) of each
    horizon, as ``_rootzen_error`` returns them, and the check reports the
    stragglers and ties.  ``seconds`` adds criterion 12's 2 min budget."""
    errs = [err for err, _, _ in runs]
    passed = all(b < a for a, b in zip(errs, errs[1:]))
    measured = {f"err_T{T:g}": e for T, e in zip(t_list, errs)}
    req = " < ".join(f"err({T:g})" for T in reversed(t_list)) + f" over {n_paths} paths"
    if seconds is not None:
        passed = passed and seconds < 120.0
        measured["seconds"] = seconds
        req += "; runtime < 2 min"
    measured["stragglers"] = [stragglers for _, stragglers, _ in runs]
    measured["ties"] = [ties for _, _, ties in runs]
    return CheckResult(12, f"cycle-maximum uniform error shrinks, {_label(dist)}", passed, measured, req)


# ---------------------------------------------------------------------------
# criteria


def criterion_1_exponential_renewal(seed: int) -> list[CheckResult]:
    """Renewal function of the unit-rate exponential equals 1 + t to 5h."""
    t0 = time.perf_counter()
    phi = renewal_measure(Exponential(1.0), Grid(0.005, 20000))
    return [check_exponential_closed_form(Exponential(1.0), phi, seconds=time.perf_counter() - t0)]


def criterion_2_linear_solution(seed: int) -> list[CheckResult]:
    """Linear-solution round trip at two resolutions for every kind."""
    out = []
    for dist in FOUR_KINDS:
        sol, sol_half = (
            solve_renewal_equation(dist, linear_forcing(dist, Grid(dist.mean() / ppm, ppm * 100)))
            for ppm in (200, 400)
        )
        out.append(check_linear_solution(dist, sol, sol_half))
    return out


def criterion_3_recurrence_law(seed: int) -> list[CheckResult]:
    """Grid recurrence CDF against 1e5 simulated draws at three probe times."""
    out = []
    rng = _stream(seed, 3, 0)
    n = 100_000
    for dist in FOUR_KINDS:
        grid = default_grid(dist)
        phi = renewal_measure(dist, grid)
        thresh = 1.36 / math.sqrt(n) + 2.0 * grid.step
        for mult in (2.0, 10.0, 50.0):
            t = mult * dist.mean()
            cdf = forward_recurrence_cdf(dist, t, phi=phi)
            draws = sample_forward_recurrence(dist, t, n, rng)
            ks = stats.kstest(draws, lambda v: np.interp(v, cdf.grid.nodes(), cdf.values, right=1.0)).statistic
            out.append(
                CheckResult(
                    3,
                    f"recurrence law vs simulation, {dist.kind}, t={mult:g}*mean",
                    bool(ks < thresh),
                    {"ks": float(ks)},
                    f"KS < {thresh:g}",
                )
            )
    return out


def criterion_4_stone(seed: int) -> list[CheckResult]:
    """Stone decomposition identities on the gamma kind."""
    dist = Gamma(2.0, 1.0)
    return [check_stone_split(dist, stone_decompose(dist, default_grid(dist)))]


def criterion_5_maximal_coupling(seed: int) -> list[CheckResult]:
    """Uncoupling frequency of the greedy pairing equals half the TV distance."""
    grid = Grid(0.005, 10000)
    p = measure_from_distribution(Exponential(1.0), grid)
    q = measure_from_distribution(Exponential(2.0), grid)
    tv = tv_distance(p, q)
    n = 100_000
    rng = _stream(seed, 5, 0)
    _, _, coupled = maximal_coupling_sample(p, q, rng, size=n)
    phat = float(np.mean(coupled == 0))
    target = tv / 2.0
    band = 3.0 * math.sqrt(target * (1.0 - target) / n)
    return [
        CheckResult(
            5,
            "maximal coupling of gridded Exp(1), Exp(2)",
            abs(phat - target) <= band,
            {"p_uncoupled": phat, "tv_half": target},
            f"|p - tv/2| <= {band:g} (3 sigma at n=1e5)",
        )
    ]


def _sigma_chisquare(sig: np.ndarray, d2: float) -> float:
    n = len(sig)
    k_max = 0
    while n * d2 * (1.0 - d2) ** (k_max + 1) >= 5.0 and k_max < 400:
        k_max += 1
    obs = [int(np.sum(sig == m)) for m in range(k_max + 1)] + [int(np.sum(sig > k_max))]
    exp = [n * d2 * (1.0 - d2) ** m for m in range(k_max + 1)] + [n * (1.0 - d2) ** (k_max + 1)]
    return float(stats.chisquare(obs, exp).pvalue)


def criterion_6_coupling_construction(seed: int) -> list[CheckResult]:
    """Geometric trial count, exact post-coupling agreement, coupling inequality."""
    dist = Gamma(2.0, 1.0)
    phi = renewal_measure(dist, default_grid(dist, horizon_means=50.0))
    params = find_common_component(dist, phi=phi)
    n = 10_000
    traces = [simulate_coupling(dist, params, _stream(seed, 6, i), phi=phi) for i in range(n)]
    sig = np.array([tr.sigma for tr in traces])
    pval = _sigma_chisquare(sig, params.delta**2)

    rng_post = _stream(seed, 6, 10**6)
    identical = True
    for tr in traces[:200]:
        e1, e2 = coupled_event_sequences(tr, dist, tr.coupling_time + 30.0, rng_post)
        a = e1[e1 >= tr.coupling_time - 1e-12]
        b = e2[e2 >= tr.coupling_time - 1e-12]
        identical = identical and np.array_equal(a, b)

    return [
        CheckResult(
            6,
            "coupling trial count is geometric, gamma(2,1)",
            pval >= 0.05,
            {"chi2_pvalue": pval, "delta2": params.delta**2},
            "chi-square p >= 0.05 over 1e4 traces",
        ),
        CheckResult(
            6,
            "post-coupling event sequences agree exactly",
            identical,
            {"identical": identical},
            "exact equality on 200 traces",
        ),
        check_coupling_inequality(dist, traces, phi, [m * dist.mean() for m in (5.0, 10.0, 20.0)]),
    ]


def criterion_7_coupling_moment_stability(seed: int) -> list[CheckResult]:
    """Second-moment estimate of the coupling time stabilizes as traces grow."""
    dist = ShiftedPareto(3.5, 1.0)
    phi = renewal_measure(dist, default_grid(dist, horizon_means=50.0))
    params = find_common_component(dist, phi=phi)
    traces = [simulate_coupling(dist, params, _stream(seed, 7, i), phi=phi) for i in range(40_000)]
    small = coupling_moment(traces[:10_000], 2.0).value
    big = coupling_moment(traces, 2.0).value
    rel = abs(small - big) / big
    return [
        CheckResult(
            7,
            "coupling-time second moment stabilizes, pareto(3.5, 1)",
            rel < 0.20,
            {"m2_10k": small, "m2_40k": big, "rel_diff": rel},
            "nested 1e4 vs 4e4 estimates differ < 20%",
        )
    ]


_KRT_CELLS = (
    # (dist, z tail exponent, points per mean)
    (Exponential(1.0), 2.0, 400),
    (Exponential(1.0), 4.0, 400),
    (Gamma(2.0, 1.0), 2.0, 400),
    (Gamma(2.0, 1.0), 4.0, 1600),
    (ShiftedPareto(3.5, 1.0), 4.0, 400),
)


def criterion_8_krt_rates(seed: int) -> list[CheckResult]:
    """Power-law error rates of the renewal-convolution limit, stable under h/2."""
    out = []
    for dist, r_z, ppm in _KRT_CELLS:
        m = dist.mean()
        _, fits = krt_rate_fits(dist, r_z, Grid(m / ppm, ppm * 86), np.geomspace(20.0 * m, 80.0 * m, 24))
        out.append(check_krt_slopes(dist, r_z, fits))
    return out


def criterion_9_tv_rates(seed: int) -> list[CheckResult]:
    """Weighted recurrence-law TV decay (gamma) and its fitted slope (pareto)."""
    out = []
    g = Gamma(2.0, 1.0)
    phi_g = renewal_measure(g, default_grid(g, horizon_means=90.0))
    ts = np.array([5.0, 10.0, 20.0, 40.0]) * g.mean()
    curve = tv_decay_curve(g, ts, phi=phi_g)
    for q in (1, 2, 3):
        weighted = curve.xs**q * curve.errs
        ok = bool(np.all(np.diff(weighted) < 0.0))
        out.append(
            CheckResult(
                9,
                f"t^{q}-weighted TV decreasing on [5,40]*mean, gamma(2,1)",
                ok,
                {"weighted": [float(w) for w in weighted]},
                "strict decrease across the lattice",
            )
        )

    p = ShiftedPareto(3.5, 1.0)
    phi_p = renewal_measure(p, default_grid(p))
    ts_p = np.geomspace(20.0 * p.mean(), 80.0 * p.mean(), 12)
    curve_p = tv_decay_curve(p, ts_p, phi=phi_p)
    fit = fit_slope(curve_p, (20.0 * p.mean(), 80.0 * p.mean()), floor=1e-7)
    out.append(
        CheckResult(
            9,
            "TV decay slope, pareto(3.5, 1)",
            fit.slope <= -1.7,
            {"slope": fit.slope},
            "fitted slope <= -2 + 0.3",
        )
    )
    return out


def criterion_10_compensator(seed: int) -> list[CheckResult]:
    """Standard-exponential cycle hazards and martingale centering, all kinds."""
    out = []
    for j, dist in enumerate(FOUR_KINDS):
        blocks = simulate_paths(dist, 50.0 * dist.mean(), 10_000, _stream(seed, 10, j + 10))
        out += check_compensator(dist, blocks, (5.0, 20.0, 50.0))
    return out


def criterion_11_scaled_sup_sweeps(seed: int) -> list[CheckResult]:
    """Vanishing scaled suprema across growing horizons, plus pathwise domination.

    The free parameters (gamma rate, pareto scale) are calibrated so the
    exceedance probabilities are resolvable at 1e3 paths; the assertions are
    unchanged.  The bounds are max xi / T^p and max tau / T^(1/p); on a
    zero-delayed path max tau is sup B itself.
    """
    out = []
    sweeps = [
        ("compensator sup, gamma(2, 0.06), p=0.5", Gamma(2.0, 0.06), "compensator", 0.5),
        ("recurrence sup, pareto(3.5, 0.09), p=3", ShiftedPareto(3.5, 0.09), "recurrence", 3.0),
    ]
    for label, dist, which, p in sweeps:
        probs, stragglers, ties = [], [], []
        dominated = True
        for j, T in enumerate((1.0e2, 1.0e3, 1.0e4)):
            rng = _stream(seed, 11, 100 * j + (0 if which == "compensator" else 7))
            hits = straggled = tied = 0
            for block in simulate_paths(dist, T, 1000, rng):
                if which == "compensator":
                    sup_a, sup_b = block.span_sups()
                    value = dist.cumulative_hazard(sup_a) / T**p
                    bound = dist.cumulative_hazard(sup_b) / T**p
                else:
                    value = bound = block.cycle_maxima() / T ** (1.0 / p)
                dominated = dominated and bool((value <= bound + 1e-12).all())
                hits += int(np.count_nonzero(value > 0.1))
                straggled += block.stragglers
                tied += block.ties
            probs.append(hits / 1000.0)
            stragglers.append(straggled)
            ties.append(tied)
        decreasing = probs[0] > probs[1] > probs[2]
        out.append(
            CheckResult(
                11,
                label,
                decreasing and dominated,
                {"P(sup>0.1)": probs, "pathwise_domination": dominated, "stragglers": stragglers, "ties": ties},
                "strictly decreasing over T in {1e2,1e3,1e4}; domination on every path",
            )
        )
    return out


def criterion_12_rootzen(seed: int) -> list[CheckResult]:
    """Uniform error of the cycle-maximum approximation shrinks with the horizon."""
    dist = Gamma(2.0, 1.0)
    t0 = time.perf_counter()
    runs = [_rootzen_error(dist, T, 5000, "max-xi", _stream(seed, 12, j)) for j, T in enumerate((20.0, 200.0))]
    return [check_rootzen_shrinks(dist, [20.0, 200.0], runs, 5000, seconds=time.perf_counter() - t0)]


CRITERIA = {
    1: criterion_1_exponential_renewal,
    2: criterion_2_linear_solution,
    3: criterion_3_recurrence_law,
    4: criterion_4_stone,
    5: criterion_5_maximal_coupling,
    6: criterion_6_coupling_construction,
    7: criterion_7_coupling_moment_stability,
    8: criterion_8_krt_rates,
    9: criterion_9_tv_rates,
    10: criterion_10_compensator,
    11: criterion_11_scaled_sup_sweeps,
    12: criterion_12_rootzen,
}


def run_acceptance(seed: int = DEFAULT_SEED, criteria=None) -> Iterator[CheckResult]:
    """Run the requested criteria (all by default), yielding each check as it
    is made, stamped with the ``perf_counter`` seconds of its criterion."""
    for k in sorted(criteria or CRITERIA):
        t0 = time.perf_counter()
        results = CRITERIA[k](seed)
        seconds = time.perf_counter() - t0
        for result in results:
            yield replace(result, seconds=seconds)
