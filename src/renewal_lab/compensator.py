"""Renewal-path simulation, recurrence times, the hazard-integral compensator,
cycle variables, and empirical checks of the scaled-supremum limits.

A path is one ``RenewalPath``.  Many zero-delayed paths to one horizon come
from ``simulate_paths`` alone, as the rows of ``PathBlock``s, whose readers
equal the one-path readers bit for bit; ``PathBlock.residuals`` is the one
array read of N(t) - 1 - Lambda(t), and ``compensator_at`` the scalar one.

Counting convention: N(t) = sum_{n>=0} 1{S_n <= t} counts the renewal at the
origin of a zero-delayed path, so the centered martingale reads
N(t) - 1 - Lambda(t).  The ``events`` array of a path stores only the
strictly positive renewals; ``count`` adds the origin back for pure paths.
Two equal events are a tie, a cycle of length 0: a draw below half an ulp
of the running sum is absorbed by it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import Distribution
from .errors import FiniteSupportError, HorizonExceededError

__all__ = [
    "RenewalPath",
    "PathBlock",
    "CycleHazards",
    "simulate_path",
    "simulate_paths",
    "draw_interarrivals",
    "sample_forward_recurrence",
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


@dataclass(frozen=True, eq=False)
class RenewalPath:
    """One realization: nondecreasing positive event times, run past the horizon.

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
        if not (events[1:] >= events[:-1]).all():  # also rejects NaN
            raise ValueError("event times must be nondecreasing")
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


def _block_width(gap: float, mean: float) -> int:
    """Interarrivals in the next block of a path with ``gap`` left to its
    horizon: the expected count plus a margin of a fifth of it,
    10 sqrt(count + 1) and 16, so one block nearly always passes it."""
    expect = max(gap, 0.0) / mean
    return int(1.2 * expect + 10.0 * math.sqrt(expect + 1.0) + 16.0)


def _sums_past(dist: Distribution, horizon: float, tau0: float, last: float, rng) -> list[np.ndarray]:
    """Blocks of partial sums that continue the sequential sum from ``last``,
    each sized by ``_block_width``, until the last sum plus ``tau0`` passes
    the horizon; the stop test reads the sums themselves."""
    mean = dist.mean()
    chunks = []
    while True:
        draws = draw_interarrivals(dist, _block_width(horizon - (last + tau0), mean), rng)
        draws[0] += last
        np.cumsum(draws, out=draws)
        chunks.append(draws)
        last = float(draws[-1])
        if last + tau0 > horizon:
            return chunks


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

    chunks = _sums_past(dist, horizon, tau0, 0.0, rng)
    events = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    if tau0 > 0.0:
        events += tau0
        events = np.concatenate(([tau0], events))
    keep = int(events.searchsorted(horizon, side="right")) + 1
    return RenewalPath(tau0, events[:keep], horizon)


@dataclass(frozen=True, eq=False)
class PathBlock:
    """Zero-delayed paths to one horizon as the rows of one 2-D array.

    Row i of ``events`` holds one path's events: ``counts[i]`` of them in
    (0, horizon], then the first one past it, then entries no reader uses.
    ``spans`` holds each row's gaps from the origin through that first event
    past the horizon (the ``RenewalPath.spans`` of the row) and 0 after, and
    is read-only.  ``stragglers`` is the number of rows whose first block of
    draws ended at or below the horizon (see ``simulate_paths``), and
    ``ties`` the number of kept spans of length 0.

    Each reader equals the matching per-path reader on every row bit for
    bit: it calls the hazard on the same values and adds in the same
    sequential order, by a row-wise cumsum.
    """

    events: np.ndarray
    horizon: float
    stragglers: int
    counts: np.ndarray = field(init=False, repr=False)
    spans: np.ndarray = field(init=False, repr=False)
    ties: int = field(init=False)

    def __post_init__(self):
        events = np.asarray(self.events, dtype=float)
        if events.ndim != 2 or not events.size:
            raise ValueError("a path block holds one or more rows of events")
        past = events > self.horizon
        counts = past.argmax(axis=1)
        if not past[np.arange(len(events)), counts].all():
            raise ValueError("simulation must run past the horizon on every row")
        width = int(counts.max()) + 1
        events = events[:, :width]
        spans = np.empty_like(events)
        spans[:, 0] = events[:, 0]
        np.subtract(events[:, 1:], events[:, :-1], out=spans[:, 1:])
        if (counts < width - 1).any():
            spans[np.arange(width) > counts[:, None]] = 0.0
        # the kept spans, the first event's included, must be >= 0 and the first > 0
        if not ((events[:, 0] > 0.0).all() and (spans >= 0.0).all()):
            raise ValueError("event times must be positive and nondecreasing")
        spans.flags.writeable = False
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "ties", int(counts.sum() + len(events) - np.count_nonzero(spans)))

    def _ages(self, ts, k):
        """A_t of every row at each t, given k = events in (0, t]: ``_age``
        row by row, reading column 0 where it reads column -1 (k = 0, where
        the factor (k >= 1) zeroes the read)."""
        return ts - np.take_along_axis(self.events, np.maximum(k - 1, 0), axis=1) * (k >= 1)

    def residuals(self, dist: Distribution, ts) -> np.ndarray:
        """N(t) - 1 - Lambda(t) of every row at every t in ``ts``, shape
        (rows, len(ts)), by one cumulative-hazard call: the cycles completed
        by the horizon, then the running partial of every (row, t)."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1 or not ((ts >= 0.0) & (ts <= self.horizon)).all():
            raise HorizonExceededError(f"times {ts} outside [0, {self.horizon:g}]")
        # events in (0, t]: the first index past t, which is at most the
        # straddler's, so entries after it are never read
        k = (self.events[:, None, :] > ts[:, None]).argmax(axis=2)
        done = np.arange(self.spans.shape[1]) < self.counts[:, None]
        xi = dist.cumulative_hazard(np.concatenate((self.spans[done], self._ages(ts, k).ravel())))
        full = np.zeros(done.shape)
        full[:, 1:][done[:, :-1]] = xi[: len(xi) - k.size]
        np.cumsum(full, axis=1, out=full)
        return k - (np.take_along_axis(full, k, axis=1) + xi[len(xi) - k.size :].reshape(k.shape))

    def cycle_hazards(self, dist: Distribution, rows: int) -> np.ndarray:
        """The ``cycle_hazards`` xi of the first ``rows`` rows, row after row,
        by one cumulative-hazard call on their kept spans."""
        kept = np.arange(self.spans.shape[1]) <= self.counts[:rows, None]
        return dist.cumulative_hazard(self.spans[:rows][kept])

    def cycle_maxima(self) -> np.ndarray:
        """Per row, max tau_k over the cycles started by the horizon, the
        straddler whole: ``path_max_statistic``'s max-tau (max-xi is H of it)."""
        return self.spans.max(axis=1)

    def span_sups(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, (sup A_t, sup B_t) over t in [0, horizon], as ``_span_sups``."""
        completed = self.spans.copy()
        completed[np.arange(len(completed)), self.counts] = 0.0
        age = self._ages(self.horizon, self.counts[:, None])[:, 0]
        return np.maximum(completed.max(axis=1), age), self.cycle_maxima()


# floats in one block of simulate_paths (rows x width), bounding its memory
_PATH_BLOCK_FLOATS = 2**14


def simulate_paths(dist: Distribution, T: float, n: int, rng: np.random.Generator) -> Iterator[PathBlock]:
    """n zero-delayed paths run past T, as ``PathBlock``s of consecutive rows.

    Every row draws one first block of ``_block_width(T, mean)``
    interarrivals, as ``simulate_path`` does.  A block of rows is one
    row-major draw and a row-wise cumsum, with rows x width at most
    ``_PATH_BLOCK_FLOATS`` (at least one row).  A row whose block ends at or
    below T is a straggler: after the block's draw it gets its next blocks
    as ``simulate_path`` continues a path.  The widths depend only on draws
    already made, so every row is an exact path; while no row straggles,
    the rows are the paths of n ``simulate_path`` calls on ``rng``, bit for
    bit, and the generator ends in the same state.
    """
    if rng is None:
        raise ValueError("an explicitly seeded rng is required")
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {T}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _path_blocks(dist, T, n, rng)


def _path_blocks(dist: Distribution, T: float, n: int, rng) -> Iterator[PathBlock]:
    width = _block_width(T, dist.mean())
    rows = max(1, _PATH_BLOCK_FLOATS // width)
    for start in range(0, n, rows):
        events = draw_interarrivals(dist, (min(rows, n - start), width), rng)
        np.cumsum(events, axis=1, out=events)
        stragglers = np.flatnonzero(events[:, -1] <= T)
        if stragglers.size:
            lines = list(events)
            for i in stragglers:
                lines[i] = np.concatenate((events[i], *_sums_past(dist, T, 0.0, float(events[i, -1]), rng)))
            events = _stacked(lines)
        yield PathBlock(events, T, int(stragglers.size))


def _stacked(rows) -> np.ndarray:
    """The rows of a block whose stragglers were continued, as one 2-D array,
    each row padded with its last event."""
    out = np.empty((len(rows), max(len(row) for row in rows)))
    for line, row in zip(out, rows):
        line[: len(row)] = row
        line[len(row) :] = row[-1]
    return out


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
            if last.any():  # the first round starts every row at 0
                totals += last[:, None]
            done = totals[:, -1] > t
            first = np.argmax(totals > t, axis=1)
            out[rows[done]] = totals[done, first[done]] - t
            rows, last = rows[~done], totals[~done, -1]
            del totals  # one block alive at a time
    return out


def _age(path: RenewalPath, t: float, k: int):
    """A_t = t minus the last renewal at or before t (the origin if none), given
    k = path.index_of(t).  The factor (k >= 1) zeroes the wrapped read
    events[-1] where no event precedes t."""
    return t - path.events[k - 1] * (k >= 1)


def compensator_at(path: RenewalPath, dist: Distribution, t: float) -> float:
    """Lambda(t) = sum of full-cycle hazard integrals plus the running partial.

    One cumulative-hazard call covers the k cycles completed by t and the
    running partial, and the last entry of their cumsum is the sum: the
    sequential adds of ``PathBlock.residuals``, the array read.  Requires a
    zero-delayed path (the hazard clock starts at the origin).
    """
    if not path.is_pure:
        raise ValueError("the compensator decomposition assumes a zero-delayed path")
    t = float(t)
    k = path.index_of(t)
    spans = np.empty(k + 1)
    spans[:k] = path.spans[:k]
    spans[k] = _age(path, t, k)
    return float(dist.cumulative_hazard(spans).cumsum()[-1])


@dataclass(frozen=True, eq=False)
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
    """sup_x |F_T(x) - G(x)^{mT}| over ``n_paths`` zero-delayed paths to T.

    G is the single-cycle law of the statistic: standard exponential for
    max-xi, F itself for max-tau.  See ``_rootzen_error``.
    """
    return _rootzen_error(dist, T, n_paths, statistic, rng)[0]


def _rootzen_error(dist: Distribution, T: float, n_paths: int, statistic: str, rng) -> tuple[float, int, int]:
    """(``rootzen_uniform_error``, stragglers, ties) of its ``simulate_paths``
    blocks; the arguments are checked before any draw.

    Each path's max tau is ``PathBlock.cycle_maxima``; for max-xi one
    cumulative-hazard call maps the whole sample set, which is the per-path
    max xi since H is nondecreasing.  G^{mT} is continuous for every pair
    accepted here (max-tau on a bounded law is rejected), so between the
    jumps of the empirical F_T the gap is monotone and the sup is read at
    the sample points, on both sides of each jump.
    """
    if statistic not in ("max-xi", "max-tau"):
        raise ValueError(f'statistic must be "max-xi" or "max-tau", got {statistic!r}')
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    if statistic == "max-tau" and math.isfinite(dist.support_end()):
        raise FiniteSupportError("the cycle-max law has bounded support; G^{mT} degenerates")
    maxima, stragglers, ties = [], 0, 0
    for block in simulate_paths(dist, T, n_paths, rng):  # keeps each block's maxima only
        maxima.append(block.cycle_maxima())
        stragglers += block.stragglers
        ties += block.ties
    samples = np.concatenate(maxima)
    if statistic == "max-xi":
        samples = dist.cumulative_hazard(samples)
    samples.sort()
    g = -np.expm1(-samples) if statistic == "max-xi" else np.asarray(dist.cdf(samples), dtype=float)
    target = np.power(np.clip(g, 0.0, 1.0), dist.rate() * T)
    upper = np.arange(1, n_paths + 1) / n_paths
    lower = np.arange(0, n_paths) / n_paths
    error = float(np.max(np.maximum(np.abs(upper - target), np.abs(lower - target))))
    return error, stragglers, ties
