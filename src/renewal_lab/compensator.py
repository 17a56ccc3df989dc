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
from functools import cached_property

import numpy as np

from .distributions import Distribution
from .errors import FiniteSupportError, HorizonExceededError

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
    "path_max_statistic",
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
    """One realization: strictly increasing positive event times, run past the horizon.

    ``spans`` holds the gaps between consecutive epochs counted from the
    origin: ``spans[0]`` is the first event (the delay of a delayed path) and
    ``spans[1:]`` is ``np.diff(events)``.  It is computed once, on first
    read, and is read-only, so every path statistic shares it.
    """

    delay: float
    events: np.ndarray
    horizon: float

    def __post_init__(self):
        events = np.asarray(self.events, dtype=float)
        object.__setattr__(self, "events", events)
        if events.size == 0 or events[0] <= 0.0:
            raise ValueError("paths must contain at least one strictly positive event")
        if not (events[1:] > events[:-1]).all():  # also rejects NaN
            raise ValueError("event times must be strictly increasing")
        if events[-1] < self.horizon:
            raise ValueError("simulation must run past the horizon")

    @property
    def is_pure(self) -> bool:
        return self.delay == 0.0

    def index_of(self, t: float) -> int:
        """Number of events in (0, t]; t must lie in [0, horizon]."""
        if not 0.0 <= t <= self.horizon:
            raise HorizonExceededError(f"t = {t:g} outside [0, {self.horizon:g}]")
        return int(self.events.searchsorted(t, side="right"))

    def count(self, t: float) -> int:
        """N(t): number of renewals in [0, t], counting the origin for pure paths."""
        return int(self.is_pure) + self.index_of(t)

    @cached_property
    def spans(self) -> np.ndarray:
        # np.diff(events, prepend=0.0), without its concatenated copy
        e = self.events
        spans = np.empty_like(e)
        spans[0] = e[0]
        np.subtract(e[1:], e[:-1], out=spans[1:])
        spans.flags.writeable = False
        return spans


def simulate_path(dist: Distribution, horizon: float, delay, rng: np.random.Generator) -> RenewalPath:
    """Simulate a renewal path until the first event strictly past the horizon.

    ``delay`` is "zero" or a fixed finite time >= 0.  A stationary path is
    ``simulate_path(dist, horizon, dist.sample_stationary_delay(rng), rng)``.
    """
    if rng is None:
        raise ValueError("an explicitly seeded rng is required")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if delay == "zero":
        tau0 = 0.0
    elif isinstance(delay, str) or not 0.0 <= delay < math.inf:
        raise ValueError(f'delay must be "zero" or a finite time >= 0, got {delay!r}')
    else:
        tau0 = float(delay)

    mean = dist.mean()
    chunks = []
    # the last partial sum so far; each block continues the sequential sum
    # in place from it, so the stop test reads the events themselves
    last = 0.0
    while True:
        expect = max(horizon - (last + tau0), 0.0) / mean
        block = int(1.2 * expect + 10.0 * math.sqrt(expect + 1.0) + 16.0)
        draws = draw_interarrivals(dist, block, rng)
        draws[0] += last
        np.cumsum(draws, out=draws)
        chunks.append(draws)
        last = float(draws[-1])
        if last + tau0 > horizon:
            break
    events = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    if tau0 > 0.0:
        events += tau0
        events = np.concatenate(([tau0], events))
    keep = int(events.searchsorted(horizon, side="right")) + 1
    return RenewalPath(tau0, events[:keep], horizon)


# rows simulated together by sample_forward_recurrence, bounding its block memory
_RECURRENCE_ROWS = 20000


def sample_forward_recurrence(dist: Distribution, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws of B_t for the zero-delayed process, by direct
    block simulation of partial sums until they pass t.

    Rows go in batches of at most ``_RECURRENCE_ROWS``.  Each round extends
    the rows still at or below t by int(gap / mean) + 1 partial sums, where
    gap is t minus the smallest partial sum among them: the first round
    draws int(t / mean) + 1 per row, about what a row uses, and later rounds
    cover the stragglers' shrinking gap.  A block holds at most
    rows x (t / mean + 1) draws.  The block width depends only on draws
    already made, so every row is an exact draw of B_t.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    mean = dist.mean()
    out = np.empty(n)
    for start in range(0, n, _RECURRENCE_ROWS):
        rows = np.arange(start, min(start + _RECURRENCE_ROWS, n))
        last = np.zeros(len(rows))
        while len(rows):
            width = int((t - last.min()) / mean) + 1
            totals = draw_interarrivals(dist, (len(rows), width), rng)
            np.cumsum(totals, axis=1, out=totals)
            totals += last[:, None]
            done = totals[:, -1] > t
            first = np.argmax(totals > t, axis=1)
            out[rows[done]] = totals[done, first[done]] - t
            rows, last = rows[~done], totals[~done, -1]
            del totals  # one block alive at a time
    return out


def _age(path: RenewalPath, t, k):
    """A_t = t minus the last renewal at or before t (the origin if none), given
    k = path.index_of(t); t and k both scalars or both arrays.  The factor
    (k >= 1) zeroes the wrapped read events[-1] where no event precedes t."""
    return t - path.events[k - 1] * (k >= 1)


def recurrence_times(path: RenewalPath, t: float) -> tuple[float, float]:
    """(A_t, B_t): elapsed time since the last renewal <= t and time to the next.

    For a delayed path before its first renewal, A_t falls back to the time
    since the origin.
    """
    k = path.index_of(t)
    return float(_age(path, t, k)), float(path.events[k]) - t


def compensator_at(path: RenewalPath, dist: Distribution, t):
    """Lambda(t) = sum of full-cycle hazard integrals plus the running partial.

    ``t`` is a scalar (the result is a float) or an array; either way a read
    is one cumulative-hazard call.  For a scalar t it covers the k cycles
    completed by t and the running partial, and the last entry of their
    cumsum is the sum.  For an array it covers the cycles completed by
    max(t) and the running partial of every t; a cumsum over the cycles and
    a searchsorted locating each t assemble the sums.  Both add the cycle
    hazards in the same sequential order, so a scalar read equals the
    matching element of an array read.  Requires a zero-delayed path (the
    hazard clock starts at the origin).
    """
    if not path.is_pure:
        raise ValueError("the compensator decomposition assumes a zero-delayed path")
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 0:
        t = float(ts)
        k = path.index_of(t)
        spans = np.empty(k + 1)
        spans[:k] = path.spans[:k]
        spans[k] = _age(path, t, k)
        return float(dist.cumulative_hazard(spans).cumsum()[-1])
    path.index_of(ts.min(initial=0.0))  # a NaN anywhere reaches both ends
    cycles = path.index_of(ts.max(initial=0.0))
    k = np.searchsorted(path.events, ts, side="right")
    xi = dist.cumulative_hazard(np.concatenate((path.spans[:cycles], np.ravel(_age(path, ts, k)))))
    full = np.zeros(cycles + 1)
    np.cumsum(xi[:cycles], out=full[1:])
    return full[k] + xi[cycles:].reshape(ts.shape)


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
    return CycleHazards(np.asarray(dist.cumulative_hazard(path.spans), dtype=float))


def _span_sups(path: RenewalPath, T: float) -> tuple[float, float]:
    """(sup A_t, sup B_t) over t in [0, T], T > 0: A peaks at each completed span
    and at the age at T, B at the full span of every cycle started by T (the
    straddler included; a delayed path's B_0 is the delay itself)."""
    k = path.index_of(T)
    if T == 0.0:
        raise ValueError("T = 0: the scaled sups need T > 0")
    spans = path.spans[: k + 1]
    sup_a = max(float(spans[:k].max()) if k else 0.0, float(_age(path, T, k)))
    return sup_a, float(spans.max())


def scaled_compensator_sup(path: RenewalPath, dist: Distribution, T: float, p: float) -> float:
    """sup over v in [0,1] of the running-cycle hazard integral of Lambda at Tv,
    scaled by T^-p.  The integral is H(A_{Tv}) and H is nondecreasing, so the
    sup is H(sup A) over [0, T]."""
    if not path.is_pure:
        raise ValueError("zero-delayed path required")
    sup_a, _ = _span_sups(path, T)
    return float(dist.cumulative_hazard(sup_a)) / T**p


def scaled_recurrence_sup(path: RenewalPath, T: float, p: float) -> tuple[float, float]:
    """(sup A, sup B) over [0, T], each scaled by T^{-1/p}."""
    sup_a, sup_b = _span_sups(path, T)
    scale = T ** (1.0 / p)
    return sup_a / scale, sup_b / scale


def path_max_statistic(path: RenewalPath, dist: Distribution, T: float, statistic: str) -> float:
    """max over cycles 1..N(T) of tau_k or of xi_k (full straddler span); H is
    nondecreasing, so max xi_k = H(max tau_k)."""
    k = path.index_of(T)
    taus = path.spans[int(not path.is_pure) : k + 1]  # a delay is not a cycle
    if not taus.size:
        raise ValueError(f"T = {T:g} precedes the first event {path.events[0]:g}: no cycle starts by T")
    if statistic == "max-tau":
        return float(taus.max())
    if statistic == "max-xi":
        return float(dist.cumulative_hazard(taus.max()))
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
    max-tau.  G^{mT} is continuous for every pair accepted here (max-tau on a
    bounded law is rejected), so between the jumps of the empirical F_T the
    gap is monotone and the sup is read at the sample points, on both sides
    of each jump.  Each path gives its max tau; for max-xi one
    cumulative-hazard call maps the whole sample set, which is the per-path
    max xi since H is nondecreasing.
    """
    if statistic not in ("max-xi", "max-tau"):
        raise ValueError(f'statistic must be "max-xi" or "max-tau", got {statistic!r}')
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    if statistic == "max-tau" and math.isfinite(dist.support_end()):
        raise FiniteSupportError("the cycle-max law has bounded support; G^{mT} degenerates")
    samples = np.empty(n_paths)
    for i in range(n_paths):
        samples[i] = path_max_statistic(simulate_path(dist, T, "zero", rng), dist, T, "max-tau")
    if statistic == "max-xi":
        samples = dist.cumulative_hazard(samples)
    samples.sort()
    g = -np.expm1(-samples) if statistic == "max-xi" else np.asarray(dist.cdf(samples), dtype=float)
    target = np.power(np.clip(g, 0.0, 1.0), dist.rate() * T)
    upper = np.arange(1, n_paths + 1) / n_paths
    lower = np.arange(0, n_paths) / n_paths
    return float(np.max(np.maximum(np.abs(upper - target), np.abs(lower - target))))
