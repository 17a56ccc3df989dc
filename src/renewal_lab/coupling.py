"""Maximal coupling of gridded laws and the pure/stationary renewal coupling.

The renewal coupling runs the probe chain (eta_k, eta_hat_k): both processes
are observed just before L_k = max(eta_k, eta_hat_k) + d, the two forward
recurrence times are drawn from their exact laws, and a Bernoulli thinning
with acceptance probability delta^2 u(beta) u(beta_hat) / (p(beta) p(beta_hat))
realizes the common uniform component of the two recurrence laws.  The trial
count sigma is then geometric with success probability delta^2, and the
processes share a renewal at the coupling time L_sigma + U.

The stationary process starts from an exact closed-form draw of its delay.
Recurrence-time draws use direct segment simulation (exact law): a walk
over blocks of interarrivals that adds them one by one until the partial sum
passes t.  The two densities entering the thinning ratio come from the grid
quadrature of the recurrence-law integral, read off the renewal measure Phi
the caller passes, as one read of the rows within the verified burn-in
lattice (probe times past it use the stationary density instead); when both
probes are within it, the ratio is formed from Python floats.  One trial
thus makes a handful of numpy calls: the interarrival blocks, one density
read and one uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import NoCommonComponentError, NotNormalizedError, ThinningError
from .grids import Grid, GridMeasure, _check_same_grid, inverse_cdf
from .renewal import forward_recurrence_density, recurrence_density_at
from .compensator import draw_interarrivals, simulate_path

__all__ = [
    "CouplingParams",
    "CouplingTrace",
    "TailEstimate",
    "MomentEstimate",
    "maximal_coupling_sample",
    "find_common_component",
    "verify_common_component",
    "simulate_coupling",
    "coupled_event_sequences",
    "coupling_tail",
    "coupling_moment",
]


# ---------------------------------------------------------------------------
# maximal coupling of two gridded probability measures


def maximal_coupling_sample(p: GridMeasure, q: GridMeasure, rng: np.random.Generator, size: int):
    """Jointly draw ``size`` triples (x, y, coupled) with x ~ p, y ~ q and
    P(coupled = 0) = tv_distance(p, q) / 2, as three arrays.

    With probability delta = mass(p ^ q) one value is drawn from the common
    part and used for both coordinates; otherwise the two residual laws are
    sampled independently.
    """
    for name, m in (("p", p), ("q", q)):
        mass = m.total_mass()
        if abs(mass - 1.0) > 1e-6:
            raise NotNormalizedError(f"{name} has mass {mass!r}, expected 1")
    _check_same_grid(p.grid, q.grid)
    common = GridMeasure(p.grid, min(p.atom0, q.atom0), np.minimum(p.density, q.density))
    delta = common.total_mass()
    u_flag = rng.random(size)
    u_val = rng.random(size)
    u_val2 = rng.random(size)
    coupled = u_flag < delta

    x = np.empty(size)
    y = np.empty(size)
    if delta > 1e-12 and np.any(coupled):
        z = inverse_cdf(common, u_val[coupled], delta)
        x[coupled] = z
        y[coupled] = z
    anti = ~coupled
    if np.any(anti):
        rest = 1.0 - delta
        if rest <= 1e-12:
            # p == q to rounding error: the residual branch is unreachable
            z = inverse_cdf(p, u_val[anti], p.total_mass())
            x[anti] = z
            y[anti] = z
        else:
            # p - p^q and q - p^q stay >= 0 node by node, so both are valid measures
            p_rest = GridMeasure(p.grid, p.atom0 - common.atom0, p.density - common.density)
            q_rest = GridMeasure(q.grid, q.atom0 - common.atom0, q.density - common.density)
            x[anti] = inverse_cdf(p_rest, u_val[anti], rest)
            y[anti] = inverse_cdf(q_rest, u_val2[anti], rest)
    return x, y, coupled.astype(int)


# ---------------------------------------------------------------------------
# common uniform component of the forward recurrence laws (constants b, d, delta)


@dataclass(frozen=True)
class CouplingParams:
    """Window length b, burn-in d, and per-process component mass delta:
    for all t >= d the density of B_t is at least delta / b on (0, b)."""

    b: float
    d: float
    delta: float


# burn-in lattice of find_common_component: first probe time and spacing, in means
_D0 = 0.5
_LATTICE_STEP = 0.5
# probe-chain trials before simulate_coupling gives up
_MAX_STEPS = 10_000


def find_common_component(dist: Distribution, *, phi: GridMeasure) -> CouplingParams:
    """Numerically locate (b, d, delta) for the common uniform component.

    The recurrence density is evaluated on a burn-in lattice up to
    d0 + 20 * mean; beyond the lattice the bound is justified by the observed
    stabilization of the density at the stationary law (checked, not
    assumed), so the stationary density minus the final deviation enters the
    minimum as the t = infinity member.  delta is capped at 0.95 times the
    numerical minimum; among nearly optimal d we keep the smallest, since a
    larger burn-in only stretches every probe step.
    """
    mean = dist.mean()
    h = phi.grid.step
    d0, step = _D0 * mean, _LATTICE_STEP * mean
    t_points = [d0 + j * step for j in range(41)]  # t_max = d0 + 20 * mean

    b_candidates = [0.25 * mean, 0.5 * mean, 1.0 * mean]
    b_max = max(b_candidates)
    x_grid = Grid(h, max(2, int(math.ceil(b_max / h))))
    dens = np.asarray([forward_recurrence_density(dist, t, x_grid, phi=phi).values for t in t_points])
    pi = np.asarray(dist.stationary_delay_density(x_grid.nodes()), dtype=float)

    # stabilization of the recurrence law toward the stationary density
    devs = np.max(np.abs(dens - pi[None, :]), axis=1)
    tail_devs = devs[-5:]
    if tail_devs[-1] > 1.5 * tail_devs[0] + 1e-12:
        raise NoCommonComponentError(
            f"recurrence density not stabilizing on the lattice (deviations {tail_devs.tolist()})"
        )

    params: CouplingParams | None = None
    for b in b_candidates:
        ib = max(1, x_grid.index_of(b))
        window = slice(1, ib + 1)  # open at 0; closing at b is conservative
        per_t_min = np.min(dens[:, window], axis=1)
        pi_floor = float(np.min(pi[window])) - float(tail_devs[-1])
        suffix_min = np.minimum.accumulate(per_t_min[::-1])[::-1]
        deltas = 0.95 * b * np.minimum(suffix_min, pi_floor)
        j_best = int(np.argmax(deltas))
        target = 0.9 * deltas[j_best]
        j = int(np.argmax(deltas >= target))  # smallest d within 10% of the optimum
        cand = CouplingParams(b=b, d=t_points[j], delta=float(deltas[j]))
        if params is None or cand.delta > params.delta:
            params = cand
    if params.delta < 0.01:
        raise NoCommonComponentError(f"best component mass {params.delta:g} < 0.01")
    return params


def verify_common_component(
    dist: Distribution,
    params: CouplingParams,
    *,
    phi: GridMeasure,
    t_points,
) -> float:
    """Smallest margin of p_t(x) - delta/b over a verification lattice (>= 0 if valid)."""
    h = phi.grid.step
    x_grid = Grid(h, max(2, int(math.ceil(params.b / h))))
    worst = math.inf
    for t in t_points:
        if t < params.d:
            continue
        vals = forward_recurrence_density(dist, t, x_grid, phi=phi).values[1:]
        worst = min(worst, float(np.min(vals)) - params.delta / params.b)
    return worst


# ---------------------------------------------------------------------------
# the coupling chain


@dataclass(frozen=True)
class CouplingTrace:
    """One run of the probe chain.

    Row k of ``eta`` holds (eta_k, eta_hat_k); row k of ``beta`` holds the
    recurrence draws made from that state (for the accepted row both entries
    equal the shared renewal offset).  ``indicators[k]`` is 1 exactly at
    k = sigma.
    """

    eta: np.ndarray
    beta: np.ndarray
    indicators: np.ndarray
    sigma: int
    coupling_time: float
    accepted_draw: tuple[float, float]


def _draw_recurrence_direct(dist: Distribution, t: float, rng: np.random.Generator) -> float:
    """One exact draw of B_t by simulating partial sums until they pass t.

    Interarrivals come in blocks of ``int((t - total) / mean * 1.3 + 12)``;
    the walk adds a block's draws one by one to a running float ``acc``
    (the sequential order of ``np.cumsum``) and returns ``(total + acc) - t``
    at the first partial sum past t, so each draw is the same float as a
    cumsum-and-searchsorted read of the block, without its numpy calls.
    """
    mean = dist.mean()
    total = 0.0
    while True:
        block = int((t - total) / mean * 1.3 + 12.0)
        acc = 0.0
        for x in draw_interarrivals(dist, block, rng).tolist():
            acc += x
            if total + acc > t:
                return (total + acc) - t
        total = total + acc


def simulate_coupling(
    dist: Distribution,
    params: CouplingParams,
    rng: np.random.Generator,
    *,
    phi: GridMeasure,
) -> CouplingTrace:
    """Run the probe chain until the thinning accepts, then couple.

    Conditional on acceptance the two recurrence draws are iid uniform on
    (0, b); the construction realizes the shared renewal with a single
    uniform draw for both processes, so the post-coupling sequences agree
    exactly.
    """
    b, d, delta = params.b, params.d, params.delta
    inv_b = 1.0 / b
    # beyond the verified burn-in lattice the recurrence law has stabilized at
    # the stationary density (checked in find_common_component), so probes at
    # very large gaps fall back to it instead of outgrowing the grid horizon
    t_stab = min(params.d + 20.0 * dist.mean(), phi.grid.horizon)

    eta, eta_hat = 0.0, dist.sample_stationary_delay(rng)
    etas, betas, indicators = [], [], []
    for _ in range(_MAX_STEPS):
        L = max(eta, eta_hat) + d
        t1, t2 = L - eta, L - eta_hat
        beta = _draw_recurrence_direct(dist, t1, rng)
        beta_hat = _draw_recurrence_direct(dist, t2, rng)
        etas.append((eta, eta_hat))

        if beta < b and beta_hat < b:
            if t1 <= t_stab and t2 <= t_stab:
                p0, p1 = recurrence_density_at(dist, (t1, t2), (beta, beta_hat), phi=phi).tolist()
            else:
                ts, xs = np.array((t1, t2)), np.array((beta, beta_hat))
                near = ts <= t_stab
                p = np.empty(2)
                p[near] = recurrence_density_at(dist, ts[near], xs[near], phi=phi)
                p[~near] = dist.stationary_delay_density(xs[~near])
                p0, p1 = p.tolist()
            ratio = delta * delta * inv_b * inv_b / (p0 * p1)
            if ratio > 1.0 + 1e-9:
                raise ThinningError(
                    f"acceptance probability {ratio:g} > 1 at (t1={t1:g}, t2={t2:g}); "
                    "the component parameters overstate delta"
                )
            accept = rng.random() < ratio
        else:
            accept = False

        if accept:
            shared = b * rng.random()
            betas.append((shared, shared))
            indicators.append(1)
            sigma = len(indicators) - 1
            return CouplingTrace(
                eta=np.asarray(etas),
                beta=np.asarray(betas),
                indicators=np.asarray(indicators),
                sigma=sigma,
                coupling_time=L + shared,
                accepted_draw=(beta, beta_hat),
            )
        betas.append((beta, beta_hat))
        indicators.append(0)
        eta, eta_hat = L + beta, L + beta_hat
    raise RuntimeError(
        f"no coupling within {_MAX_STEPS} trials (probability ~ (1-delta^2)^{_MAX_STEPS}); "
        "the component parameters are inconsistent"
    )


def coupled_event_sequences(
    trace: CouplingTrace,
    dist: Distribution,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Event skeletons of the pure and the stationary-then-switched process.

    Before the coupling time the entries are the chain's probe renewals (not
    every renewal of the underlying processes); from the coupling time on,
    both sequences share one freshly drawn continuation, so they agree
    exactly: the renewal path delayed by the coupling time, up to its first
    event past the horizon.
    """
    t_c = trace.coupling_time
    post = simulate_path(dist, horizon, t_c, rng).events
    pure_skel = trace.eta[1:, 0] if len(trace.eta) > 1 else np.empty(0)
    stat_skel = trace.eta[:, 1]
    pure = np.concatenate((pure_skel[pure_skel < t_c], post))
    stat = np.concatenate((stat_skel[stat_skel < t_c], post))
    return pure, stat


# ---------------------------------------------------------------------------
# empirical summaries


@dataclass(frozen=True)
class TailEstimate:
    p: float
    stderr: float


def coupling_tail(traces, t: float) -> TailEstimate:
    """Empirical P(coupling time > t) with its binomial standard error."""
    if len(traces) < 1000:
        raise ValueError(f"need >= 1000 traces for a stable tail estimate, got {len(traces)}")
    times = np.asarray([tr.coupling_time for tr in traces])
    p = float(np.mean(times > t))
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / len(times))
    return TailEstimate(p, se)


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    stderr: float


def coupling_moment(traces, q: float) -> MomentEstimate:
    """Empirical mean of (coupling time)^q with its standard error."""
    if q <= 0.0:
        raise ValueError(f"q must be > 0, got {q}")
    powers = np.asarray([tr.coupling_time for tr in traces]) ** q
    return MomentEstimate(float(np.mean(powers)), float(np.std(powers, ddof=1) / math.sqrt(len(powers))))

