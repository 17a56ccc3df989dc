"""Renewal-path simulation, recurrence times, the hazard-integral compensator,
cycle variables, and empirical checks of the scaled-supremum limits.

Counting convention: N(t) = sum_{n>=0} 1{S_n <= t} counts the renewal at the
origin of a zero-delayed path, so the centered martingale reads
N(t) - 1 - Lambda(t).  The ``events`` array of a path stores only the
strictly positive renewals; ``count`` adds the origin back for pure paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import FiniteSupportError

__all__ = [
    "RenewalPath",
    "CycleHazards",
    "simulate_path",
    "draw_interarrivals",
    "sample_forward_recurrence",
    "recurrence_times",
    "compensator_at",
    "cycle_hazards",
    "scaled_compensator_sup",
    "scaled_recurrence_sup",
    "rootzen_uniform_error",
]


def draw_interarrivals(dist: Distribution, size, rng: np.random.Generator) -> np.ndarray:
    """Fast interarrival draws from numpy's native samplers.

    Deliberately independent of the inverse-CDF ``Distribution.sample`` so
    Monte Carlo checks exercise a second code path.
    """
    return dist._interarrival_draw(rng, size)


@dataclass(frozen=True)
class RenewalPath:
    """One realization: strictly increasing positive event times, run past the horizon."""

    delay: float
    events: np.ndarray
    horizon: float

    def __post_init__(self):
        events = np.asarray(self.events, dtype=float)
        object.__setattr__(self, "events", events)
        if events.size == 0 or events[0] <= 0.0:
            raise ValueError("paths must contain at least one strictly positive event")
        if np.any(np.diff(events) <= 0.0):
            raise ValueError("event times must be strictly increasing")
        if events[-1] < self.horizon:
            raise ValueError("simulation must run past the horizon")

    @property
    def is_pure(self) -> bool:
        return self.delay == 0.0

    def count(self, t: float) -> int:
        """N(t): number of renewals in [0, t], counting the origin for pure paths."""
        base = 1 if self.is_pure else 0
        return base + int(np.searchsorted(self.events, t, side="right"))

    def renewals(self) -> np.ndarray:
        """All renewal epochs including the origin for pure paths."""
        if self.is_pure:
            return np.concatenate(([0.0], self.events))
        return self.events

    def interarrivals(self) -> np.ndarray:
        """tau_1, tau_2, ... (the delay is not an interarrival)."""
        return np.diff(self.renewals()) if self.is_pure else np.diff(self.events)


def simulate_path(dist: Distribution, horizon: float, delay, rng: np.random.Generator) -> RenewalPath:
    """Simulate a renewal path until the first event strictly past the horizon.

    ``delay`` is "zero", "stationary", or a fixed nonnegative time.
    """
    if rng is None:
        raise ValueError("an explicitly seeded rng is required")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if delay == "zero":
        tau0 = 0.0
    elif delay == "stationary":
        tau0 = dist.sample_stationary_delay(rng)
    else:
        tau0 = float(delay)
        if not 0.0 <= tau0 < math.inf:
            raise ValueError(f"fixed delay must be finite and >= 0, got {tau0}")

    mean = dist.mean()
    chunks = []
    total = tau0
    remaining = horizon - total
    while True:
        expect = max(remaining, 0.0) / mean
        block = int(1.2 * expect + 10.0 * math.sqrt(expect + 1.0) + 16.0)
        draws = draw_interarrivals(dist, block, rng)
        chunks.append(draws)
        total += float(draws.sum())
        if total > horizon:
            break
        remaining = horizon - total
    taus = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    events = tau0 + np.cumsum(taus)
    if tau0 > 0.0:
        events = np.concatenate(([tau0], events))
    keep = int(np.searchsorted(events, horizon, side="right")) + 1
    return RenewalPath(tau0, events[:keep], horizon)


# rows simulated together by sample_forward_recurrence, bounding its block memory
_RECURRENCE_ROWS = 20000


def sample_forward_recurrence(dist: Distribution, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws of B_t for the zero-delayed process, by direct
    block simulation of partial sums until they pass t.

    Rows go in batches of at most ``_RECURRENCE_ROWS``; each round extends
    the rows still at or below t by one block of partial sums.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    mean = dist.mean()
    width = int(1.25 * t / mean + 10.0 * math.sqrt(t / mean + 1.0) + 16.0)
    out = np.empty(n)
    for start in range(0, n, _RECURRENCE_ROWS):
        rows = np.arange(start, min(start + _RECURRENCE_ROWS, n))
        last = np.zeros(len(rows))
        while len(rows):
            totals = np.cumsum(draw_interarrivals(dist, (len(rows), width), rng), axis=1)
            totals += last[:, None]
            done = totals[:, -1] > t
            first = np.argmax(totals > t, axis=1)
            out[rows[done]] = totals[done, first[done]] - t
            rows, last = rows[~done], totals[~done, -1]
            del totals  # one block alive at a time: most batches end in one round
    return out


def recurrence_times(path: RenewalPath, t: float) -> tuple[float, float]:
    """(A_t, B_t): elapsed time since the last renewal <= t and time to the next.

    For a delayed path before its first renewal, A_t falls back to the time
    since the origin.
    """
    if not 0.0 <= t <= path.horizon:
        raise ValueError(f"t = {t:g} outside [0, {path.horizon:g}]")
    r = path.renewals()
    idx = int(np.searchsorted(r, t, side="right"))
    last = r[idx - 1] if idx >= 1 else 0.0
    return t - float(last), float(r[idx]) - t


def compensator_at(path: RenewalPath, dist: Distribution, t):
    """Lambda(t) = sum of full-cycle hazard integrals plus the running partial.

    ``t`` is a scalar (the result is a float) or an array.  One
    cumulative-hazard call covers the cycles completed by max(t) and the
    running partial of every t; a cumsum over the cycles and a searchsorted
    locating each t assemble the sums.  Requires a zero-delayed path (the
    hazard clock starts at the origin).
    """
    if not path.is_pure:
        raise ValueError("the compensator decomposition assumes a zero-delayed path")
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    inside = 0.0 <= float(ts) <= path.horizon if scalar else np.all((ts >= 0.0) & (ts <= path.horizon))
    if not inside:
        raise ValueError(f"t = {t} outside [0, {path.horizon:g}]")
    k = np.searchsorted(path.events, ts, side="right")
    cycles = int(k) if scalar else int(k.max(initial=0))
    renewals = np.concatenate(([0.0], path.events[:cycles]))
    xi = dist.cumulative_hazard(np.concatenate((np.diff(renewals), np.ravel(ts - renewals[k]))))
    full = np.zeros(cycles + 1)
    np.cumsum(xi[:cycles], out=full[1:])
    out = full[k] + xi[cycles:].reshape(ts.shape)
    return float(out) if scalar else out


@dataclass(frozen=True)
class CycleHazards:
    """xi_i = integrated hazard over cycle i; distribution-free standard exponentials."""

    xi: np.ndarray


def cycle_hazards(path: RenewalPath, dist: Distribution) -> CycleHazards:
    """xi_i = -log(1 - F(tau_i)) for every completed cycle starting within the horizon.

    Inclusion is decided by the cycle's start (a stopping time), not its end;
    cutting the straddling cycle would length-bias the pool and break the
    standard-exponential law of the xi.
    """
    if not path.is_pure:
        raise ValueError("cycle hazards are defined for zero-delayed paths")
    taus = np.diff(np.concatenate(([0.0], path.events)))
    return CycleHazards(np.asarray(dist.cumulative_hazard(taus), dtype=float))


def scaled_compensator_sup(path: RenewalPath, dist: Distribution, T: float, p: float) -> float:
    """sup over v in [0,1] of the running-cycle hazard integral of Lambda at Tv,
    scaled by T^-p.  Within a cycle the integral is nondecreasing, so the sup
    is attained at a cycle boundary or at v = 1."""
    if not path.is_pure:
        raise ValueError("zero-delayed path required")
    if T > path.horizon:
        raise ValueError("T beyond the simulated horizon")
    e = path.events
    k = int(np.searchsorted(e, T, side="right"))
    renewals = np.concatenate(([0.0], e[:k]))
    taus = np.diff(renewals)
    best = float(np.max(dist.cumulative_hazard(taus))) if taus.size else 0.0
    partial = float(dist.cumulative_hazard(T - renewals[-1]))
    return max(best, partial) / T**p


def scaled_recurrence_sup(path: RenewalPath, T: float, p: float) -> tuple[float, float]:
    """(sup A, sup B) over [0, T], each scaled by T^{-1/p}.

    B attains the full span of every cycle starting in [0, T] (the straddling
    cycle included); A attains completed spans plus the final partial age.
    """
    if T > path.horizon:
        raise ValueError("T beyond the simulated horizon")
    r = path.renewals()
    if r[0] > 0.0:
        r = np.concatenate(([0.0], r))  # delayed path: B_0 is the delay itself
    idx = int(np.searchsorted(r, T, side="right"))
    spans = np.diff(r[: idx + 1])
    sup_b = float(np.max(spans))
    completed = spans[:-1]
    sup_a = max(float(np.max(completed)) if completed.size else 0.0, T - float(r[idx - 1]))
    scale = T ** (1.0 / p)
    return sup_a / scale, sup_b / scale


def path_max_statistic(path: RenewalPath, dist: Distribution, T: float, statistic: str) -> float:
    """max over cycles 1..N(T) of tau_k or of xi_k (full straddler span)."""
    r = path.renewals()
    idx = int(np.searchsorted(r, T, side="right"))
    taus = np.diff(r[: idx + 1])
    if statistic == "max-tau":
        return float(np.max(taus))
    if statistic == "max-xi":
        return float(np.max(dist.cumulative_hazard(taus)))
    raise ValueError(f"unknown statistic {statistic!r}")


def rootzen_uniform_error(
    dist: Distribution,
    T: float,
    n_paths: int,
    statistic: str,
    rng: np.random.Generator,
) -> float:
    """sup_x |F_T(x) - G(x)^{mT}| for the per-path cycle maximum over [0, T].

    G is the single-cycle law: standard exponential for max-xi, F itself for
    max-tau.  The sup is evaluated at the sample points (both sides of each
    jump) plus a thousand-point quantile lattice of G.
    """
    if statistic == "max-tau" and math.isfinite(dist.support_end()):
        raise FiniteSupportError("the cycle-max law has bounded support; G^{mT} degenerates")
    samples = np.empty(n_paths)
    for i in range(n_paths):
        path = simulate_path(dist, T, "zero", rng)
        samples[i] = path_max_statistic(path, dist, T, statistic)
    samples.sort()
    exponent = dist.rate() * T

    if statistic == "max-xi":
        g_cdf = lambda x: -np.expm1(-np.asarray(x, dtype=float))
        g_quantile = lambda u: -np.log1p(-u)
    else:
        g_cdf = lambda x: np.asarray(dist.cdf(x), dtype=float)
        g_quantile = dist.quantile

    target = np.power(np.clip(g_cdf(samples), 0.0, 1.0), exponent)
    upper = np.arange(1, n_paths + 1) / n_paths
    lower = np.arange(0, n_paths) / n_paths
    err = float(np.max(np.maximum(np.abs(upper - target), np.abs(lower - target))))

    lattice = g_quantile((np.arange(1, 1001)) / 1001.0)
    emp = np.searchsorted(samples, lattice, side="right") / n_paths
    target_lat = np.power(np.clip(g_cdf(lattice), 0.0, 1.0), exponent)
    return max(err, float(np.max(np.abs(emp - target_lat))))
