import math

import numpy as np
import pytest
from scipy import stats

from renewal_lab import (
    Exponential,
    Gamma,
    PathBlock,
    RenewalPath,
    ShiftedPareto,
    Uniform,
    compensator_at,
    cycle_hazards,
    path_max_statistic,
    rootzen_uniform_error,
    sample_forward_recurrence,
    scaled_compensator_sup,
    scaled_recurrence_sup,
    simulate_path,
    simulate_paths,
)
from renewal_lab import compensator
from renewal_lab.compensator import _RECURRENCE_ROWS, draw_interarrivals
from renewal_lab.distributions import Distribution
from renewal_lab.errors import FiniteSupportError, HorizonExceededError
from renewal_lab.renewal import default_grid, default_recurrence_grid, forward_recurrence_cdf, renewal_measure


def _compensator_direct(path, dist, t):
    """Lambda(t) with the full-cycle hazards summed afresh for each t: the
    oracle for the cumsum read of ``compensator_at``."""
    e = path.events
    renewals = np.concatenate(([0.0], e[: int(np.searchsorted(e, t, side="right"))]))
    taus = np.diff(renewals)
    full = float(np.sum(dist.cumulative_hazard(taus))) if taus.size else 0.0
    return full + float(dist.cumulative_hazard(t - renewals[-1]))


class TestPaths:
    def test_requires_seeded_rng(self):
        with pytest.raises(ValueError):
            simulate_path(Exponential(1.0), 10.0, "zero", None)

    def test_events_positive_increasing_past_horizon(self, dist, rng):
        path = simulate_path(dist, 20.0 * dist.mean(), "zero", rng)
        assert path.events[0] > 0.0
        assert np.all(np.diff(path.events) > 0.0)
        assert path.events[-1] > path.horizon

    def test_stop_reads_the_sequential_sum(self, monkeypatch):
        # 61 draws whose pairwise sum ends above the horizon and whose
        # sequential sum, the events, ends below it: the path must go on
        block = np.random.default_rng(7).exponential(1.0 / 6.0, 61)
        ends = np.cumsum(block)
        horizon = float(np.nextafter(ends[-1], math.inf))
        assert float(block.sum()) > horizon > ends[-1]
        blocks = [block.copy()]

        def draws(d, size, r):
            return blocks.pop() if blocks else np.full(size, 0.25)

        monkeypatch.setattr(compensator, "draw_interarrivals", draws)
        path = simulate_path(Exponential(6.0), horizon, "zero", np.random.default_rng(0))
        np.testing.assert_array_equal(path.events[:61], ends)
        assert path.events[61:].tolist() == [ends[-1] + 0.25]

    def test_pure_counting_includes_origin(self, rng):
        path = simulate_path(Exponential(1.0), 10.0, "zero", rng)
        assert path.count(0.0) == 1
        assert path.count(path.events[0]) == 2

    def test_delayed_counting_starts_at_first_event(self, rng):
        path = simulate_path(Exponential(1.0), 10.0, 2.5, rng)
        assert path.delay == 2.5
        assert path.events[0] == 2.5
        assert path.count(2.0) == 0
        assert path.count(2.5) == 1

    def test_poisson_count_mean(self, rng):
        # Poisson closed form: E[N(T)] = 1 + lambda T (origin atom included)
        d = Exponential(1.0)
        T = 10.0
        counts = np.array([simulate_path(d, T, "zero", rng).count(T) for _ in range(4000)])
        se = counts.std() / math.sqrt(len(counts))
        assert abs(counts.mean() - (1.0 + T)) < 3.0 * se

    def test_stationary_increments(self, rng):
        # with the stationary delay, E[N(t+s) - N(t)] is flat in t
        d = Gamma(2.0, 1.0)
        s = 4.0
        t_checks = [0.0, 3.0, 9.0]
        incs = {t: [] for t in t_checks}
        for _ in range(4000):
            path = simulate_path(d, 16.0, d.sample_stationary_delay(rng), rng)
            for t in t_checks:
                incs[t].append(path.count(t + s) - path.count(t))
        means = {t: np.mean(v) for t, v in incs.items()}
        ses = {t: np.std(v) / math.sqrt(len(v)) for t, v in incs.items()}
        target = s * d.rate()
        for t in t_checks:
            assert abs(means[t] - target) < 3.0 * ses[t]

    def test_stationary_delay_keeps_residual_law(self, rng):
        # under the stationary delay the residual time has the delay law at
        # every probe instant, not just asymptotically
        d = Gamma(2.0, 1.0)
        probes = [1.0, 6.0, 14.0]
        draws = {t: [] for t in probes}
        for _ in range(4000):
            path = simulate_path(d, 16.0, d.sample_stationary_delay(rng), rng)
            for t in probes:
                draws[t].append(_recurrence_times_oracle(path, t)[1])
        for t in probes:
            res = stats.kstest(np.asarray(draws[t]), lambda v: np.asarray(d.stationary_delay_cdf(v)))
            assert res.statistic < 1.36 / math.sqrt(len(draws[t])), f"t={t}"

    def test_path_validation(self):
        with pytest.raises(ValueError):
            RenewalPath(0.0, np.array([0.5, 0.4, 2.0]), 1.0)  # not increasing
        with pytest.raises(ValueError):
            RenewalPath(0.0, np.array([0.5, 0.8]), 1.0)  # stops short of horizon
        with pytest.raises(ValueError):
            RenewalPath(0.0, np.array([-0.5, 1.5]), 1.0)  # nonpositive event
        with pytest.raises(ValueError):
            RenewalPath(0.0, np.array([0.5, math.nan, 2.0]), 1.0)  # NaN event


class TestRecurrenceTimes:
    """Hand checks of ``_recurrence_times_oracle``, which the dense sup
    oracles read, and of the exponential residual's law."""

    def test_hand_checked_example(self):
        # renewals at 0, 2, 5 (pure path): at t = 3 the age is 1, the residual 2
        path = RenewalPath(0.0, np.array([2.0, 5.0]), 3.0)
        a, b = _recurrence_times_oracle(path, 3.0)
        assert (a, b) == (1.0, 2.0)

    def test_at_event_age_is_zero(self):
        path = RenewalPath(0.0, np.array([2.0, 5.0]), 3.0)
        a, b = _recurrence_times_oracle(path, 2.0)
        assert a == 0.0 and b == 3.0

    def test_age_plus_residual_spans_cycle(self, dist, rng):
        path = simulate_path(dist, 10.0 * dist.mean(), "zero", rng)
        for t in [0.3 * dist.mean(), 4.0 * dist.mean(), 9.0 * dist.mean()]:
            a, b = _recurrence_times_oracle(path, t)
            assert a >= 0.0 and b > 0.0
            spans = np.diff(np.concatenate(([0.0], path.events)))
            assert any(abs(a + b - s) < 1e-9 for s in spans) or a == t

    def test_exponential_residual_is_memoryless(self, rng):
        d = Exponential(1.0)
        n = 20_000
        draws = sample_forward_recurrence(d, 10.0, n, rng)
        res = stats.kstest(draws, lambda v: np.asarray(d.cdf(v)))
        assert res.statistic < 1.36 / math.sqrt(n)


class TestForwardRecurrenceSampler:
    def test_b0_is_the_first_interarrival(self, dist, rng):
        n = 20_000
        draws = sample_forward_recurrence(dist, 0.0, n, rng)
        res = stats.kstest(draws, lambda v: np.asarray(dist.cdf(v), dtype=float))
        assert res.statistic < 1.36 / math.sqrt(n)

    def test_rows_across_batches_and_rounds_follow_the_grid_law(self, rng):
        # one batch plus 7 rows; at 50 means the Pareto stragglers take several rounds
        d = ShiftedPareto(3.5, 1.0)
        n = _RECURRENCE_ROWS + 7
        t = 50.0 * d.mean()
        grid = default_grid(d)
        cdf = forward_recurrence_cdf(d, t, default_recurrence_grid(d, grid.step), phi=renewal_measure(d, grid))
        draws = sample_forward_recurrence(d, t, n, rng)
        assert np.all(draws > 0.0)
        ks = stats.kstest(draws, lambda v: np.interp(v, cdf.grid.nodes(), cdf.values, right=1.0)).statistic
        assert ks < 1.36 / math.sqrt(n) + 2.0 * grid.step  # criterion 3's threshold

    def test_same_seed_same_draws(self, dist):
        t = 10.0 * dist.mean()
        first, second = (sample_forward_recurrence(dist, t, 500, np.random.default_rng(5)) for _ in range(2))
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("mult", [2.0, 10.0, 50.0])
    def test_draws_stay_within_budget(self, dist, rng, mult, monkeypatch):
        # a row uses about t / mean + 1 interarrivals; the sampler may draw
        # half as many again, not several times that
        drawn = []

        def counting(d, size, r):
            out = draw_interarrivals(d, size, r)
            drawn.append(out.size)
            return out

        monkeypatch.setattr(compensator, "draw_interarrivals", counting)
        n = 20_000
        sample_forward_recurrence(dist, mult * dist.mean(), n, rng)
        assert sum(drawn) <= 1.5 * n * (mult + 1.0)


class TestCompensator:
    def test_zero_at_origin(self, dist, rng):
        path = simulate_path(dist, 5.0 * dist.mean(), "zero", rng)
        assert compensator_at(path, dist, 0.0) == 0.0

    def test_exponential_compensator_is_linear(self, rng):
        d = Exponential(2.0)
        path = simulate_path(d, 30.0, "zero", rng)
        for t in [0.0, 1.7, 12.3, 30.0]:
            assert compensator_at(path, d, t) == pytest.approx(2.0 * t, rel=1e-9, abs=1e-12)

    def test_rejects_delayed_paths(self, rng):
        d = Exponential(1.0)
        path = simulate_path(d, 5.0, d.sample_stationary_delay(rng), rng)
        with pytest.raises(ValueError):
            compensator_at(path, d, 1.0)

    def test_martingale_centering(self, dist, rng):
        # E[N(t) - 1 - Lambda(t)] = 0 for the origin-counting convention
        t = 5.0 * dist.mean()
        vals = []
        for _ in range(3000):
            path = simulate_path(dist, t, "zero", rng)
            vals.append(path.count(t) - 1 - compensator_at(path, dist, t))
        vals = np.asarray(vals)
        assert abs(vals.mean()) < 3.0 * vals.std() / math.sqrt(len(vals))

    def test_nondecreasing_and_telescoping(self, dist, rng):
        path = simulate_path(dist, 10.0 * dist.mean(), "zero", rng)
        ts = np.linspace(0.0, 10.0 * dist.mean(), 101)
        lam = np.array([compensator_at(path, dist, t) for t in ts])
        assert np.all(np.diff(lam) >= -1e-12)
        # jump across each completed cycle accumulates exactly its hazard integral
        xi = cycle_hazards(path, dist).xi
        renewals = np.concatenate(([0.0], path.events))
        for i in range(1, min(6, len(renewals) - 1)):
            jump = compensator_at(path, dist, renewals[i]) - compensator_at(path, dist, renewals[i - 1])
            assert jump == pytest.approx(xi[i - 1], abs=1e-10)

    def test_matches_per_cycle_sum_oracle(self, dist, rng):
        # scalar calls against the per-t summed oracle
        path = simulate_path(dist, 30.0 * dist.mean(), "zero", rng)
        ts = np.concatenate((np.linspace(0.0, path.horizon, 97), path.events[:5]))
        direct = np.array([_compensator_direct(path, dist, t) for t in ts])
        scalar = [compensator_at(path, dist, float(t)) for t in ts]
        assert all(type(v) is float for v in scalar)
        assert np.all(np.abs(np.array(scalar) - direct) <= 1e-12 * np.abs(direct))

    @pytest.mark.parametrize("t", [math.nan, -0.5, 10.5])
    def test_rejects_t_outside_horizon(self, rng, t):
        path = simulate_path(Exponential(1.0), 10.0, "zero", rng)
        with pytest.raises(HorizonExceededError, match="t = "):
            compensator_at(path, Exponential(1.0), t)

    def test_reads_one_time_only(self, rng):
        # many times are read as PathBlock.residuals; an array here fails loudly
        path = simulate_path(Exponential(1.0), 10.0, "zero", rng)
        with pytest.raises(TypeError):
            compensator_at(path, Exponential(1.0), np.array([1.0, 5.0]))


class TestBadInput:
    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_forward_recurrence_rejects_bad_t(self, rng, t):
        with pytest.raises(ValueError, match="^t must be"):
            sample_forward_recurrence(Gamma(2.0, 1.0), t, 5, rng)

    def test_forward_recurrence_rejects_negative_n(self, rng):
        with pytest.raises(ValueError, match="^n must be"):
            sample_forward_recurrence(Gamma(2.0, 1.0), 1.0, -1, rng)

    def test_forward_recurrence_zero_draws(self, rng):
        assert sample_forward_recurrence(Gamma(2.0, 1.0), 1.0, 0, rng).shape == (0,)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
    def test_simulate_path_rejects_bad_horizon(self, rng, horizon):
        with pytest.raises(ValueError, match="^horizon must be"):
            simulate_path(Exponential(1.0), horizon, "zero", rng)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -1.0, "stationary", "zeros"])
    def test_simulate_path_rejects_bad_fixed_delay(self, rng, delay):
        with pytest.raises(ValueError, match=r'^delay must be "zero" or a finite time >= 0, got '):
            simulate_path(Exponential(1.0), 10.0, delay, rng)

    @pytest.mark.parametrize("sup", [
        lambda path, T: scaled_compensator_sup(path, Gamma(2.0, 1.0), T, 0.5),
        lambda path, T: scaled_recurrence_sup(path, T, 2.0),
    ], ids=["compensator", "recurrence"])
    def test_scaled_sups_reject_zero_T(self, rng, sup):
        path = simulate_path(Gamma(2.0, 1.0), 10.0, "zero", rng)
        with pytest.raises(ValueError, match="^T = 0"):
            sup(path, 0.0)

    def test_path_max_statistic_rejects_T_before_first_event_of_delayed_path(self):
        path = RenewalPath(1.5, np.array([1.5, 2.0, 5.0]), 3.0)
        with pytest.raises(ValueError, match="^T = 1 precedes"):
            path_max_statistic(path, Gamma(2.0, 1.0), 1.0, "max-tau")
        assert path_max_statistic(path, Gamma(2.0, 1.0), 1.5, "max-tau") == 0.5


# every path reader, each through the one checked lookup RenewalPath.index_of
_PATH_READERS = {
    "count": lambda path, dist, t: path.count(t),
    "compensator_at": lambda path, dist, t: compensator_at(path, dist, t),
    "scaled_compensator_sup": lambda path, dist, t: scaled_compensator_sup(path, dist, t, 0.5),
    "scaled_recurrence_sup": lambda path, dist, t: scaled_recurrence_sup(path, t, 2.0),
    "path_max_statistic": lambda path, dist, t: path_max_statistic(path, dist, t, "max-xi"),
}


@pytest.mark.parametrize("reader", list(_PATH_READERS))
@pytest.mark.parametrize("t", [-1.0, 11.0, math.nan], ids=["negative", "past-horizon", "nan"])
def test_path_readers_reject_t_outside_horizon(rng, reader, t):
    dist = Gamma(2.0, 1.0)
    path = simulate_path(dist, 10.0, "zero", rng)
    with pytest.raises(HorizonExceededError, match=r"^t = .* outside \[0, 10\]$"):
        _PATH_READERS[reader](path, dist, t)


class TestCycleHazards:
    def test_exponential_identity(self, rng):
        d = Exponential(1.0)
        path = simulate_path(d, 50.0, "zero", rng)
        taus = path.spans
        assert np.max(np.abs(cycle_hazards(path, d).xi - taus)) < 1e-12

    def test_pooled_law_is_standard_exponential(self, dist, rng):
        xs = []
        while sum(len(x) for x in xs) < 12_000:
            path = simulate_path(dist, 40.0 * dist.mean(), "zero", rng)
            xs.append(cycle_hazards(path, dist).xi)
        pool = np.concatenate(xs)
        res = stats.kstest(pool, "expon")
        assert res.statistic < 1.36 / math.sqrt(len(pool))

    def test_sample_mean_is_one(self, dist, rng):
        xs = []
        while sum(len(x) for x in xs) < 12_000:
            path = simulate_path(dist, 40.0 * dist.mean(), "zero", rng)
            xs.append(cycle_hazards(path, dist).xi)
        pool = np.concatenate(xs)
        assert abs(pool.mean() - 1.0) < 3.0 * pool.std() / math.sqrt(len(pool))


class TestScaledSups:
    def test_compensator_sup_dominated_by_max_xi(self, dist, rng):
        T = 20.0 * dist.mean()
        for _ in range(50):
            path = simulate_path(dist, T, "zero", rng)
            sup = scaled_compensator_sup(path, dist, T, 0.5)
            bound = path_max_statistic(path, dist, T, "max-xi") / T**0.5
            assert sup <= bound + 1e-12

    def test_recurrence_sup_dominated_by_max_tau(self, dist, rng):
        T = 20.0 * dist.mean()
        for _ in range(50):
            path = simulate_path(dist, T, "zero", rng)
            sup_a, sup_b = scaled_recurrence_sup(path, T, 2.0)
            bound = path_max_statistic(path, dist, T, "max-tau") / T**0.5
            assert sup_a <= bound + 1e-12
            assert sup_b <= bound + 1e-12

    def test_sup_matches_dense_evaluation_oracle(self, dist, rng):
        # cycle-structure evaluation vs a brute-force v-grid
        T = 10.0 * dist.mean()
        p = 0.7
        for _ in range(20):
            path = simulate_path(dist, T, "zero", rng)
            sup = scaled_compensator_sup(path, dist, T, p)
            vs = np.linspace(0.0, 1.0, 4001)
            dense = 0.0
            for v in vs:
                t = v * T
                a, _ = _recurrence_times_oracle(path, t)
                dense = max(dense, float(dist.cumulative_hazard(a)))
            dense /= T**p
            assert sup >= dense - 1e-9
            assert sup <= dense + 0.15 * abs(sup) + 0.05  # dense grid undershoots the left limits
        # and the recurrence sup against its own dense oracle
        for _ in range(10):
            path = simulate_path(dist, T, "zero", rng)
            sup_a, sup_b = scaled_recurrence_sup(path, T, 2.0)
            vs = np.linspace(0.0, 1.0, 4001)
            da = max(_recurrence_times_oracle(path, v * T)[0] for v in vs) / T**0.5
            db = max(_recurrence_times_oracle(path, v * T)[1] for v in vs) / T**0.5
            assert sup_a >= da - 1e-9
            assert sup_b >= db - 1e-9

    def test_exponential_median_small_at_large_horizon(self, rng):
        # residual maxima grow logarithmically: the scaled sup is tiny by T = 1e4
        d = Exponential(1.0)
        sups = []
        for _ in range(60):
            path = simulate_path(d, 1.0e4, "zero", rng)
            sups.append(scaled_recurrence_sup(path, 1.0e4, 1.0)[1])
        assert np.median(sups) < 0.01


# Oracles for the span readers: the formulas that rebuilt the renewal epochs
# and took their own np.diff on every call, before the readers shared path.spans.


def _renewals(path):
    """All renewal epochs, with the origin for a pure path."""
    return np.concatenate(([0.0], path.events)) if path.is_pure else path.events


def _interarrivals_oracle(path):
    return np.diff(_renewals(path)) if path.is_pure else np.diff(path.events)


def _recurrence_times_oracle(path, t):
    r = _renewals(path)
    idx = int(np.searchsorted(r, t, side="right"))
    last = r[idx - 1] if idx >= 1 else 0.0
    return t - float(last), float(r[idx]) - t


def _compensator_at_oracle(path, dist, t):
    k = int(np.searchsorted(path.events, t, side="right"))
    renewals = np.concatenate(([0.0], path.events[:k]))
    xi = dist.cumulative_hazard(np.append(np.diff(renewals), t - renewals[k]))
    full = np.zeros(k + 1)
    np.cumsum(xi[:k], out=full[1:])
    return float(full[k] + xi[k])


def _cycle_hazards_oracle(path, dist):
    return np.asarray(dist.cumulative_hazard(np.diff(np.concatenate(([0.0], path.events)))), dtype=float)


def _scaled_compensator_sup_oracle(path, dist, T, p):
    e = path.events
    renewals = np.concatenate(([0.0], e[: int(np.searchsorted(e, T, side="right"))]))
    taus = np.diff(renewals)
    best = float(np.max(dist.cumulative_hazard(taus))) if taus.size else 0.0
    partial = float(dist.cumulative_hazard(T - renewals[-1]))
    return max(best, partial) / T**p


def _scaled_recurrence_sup_oracle(path, T, p):
    r = _renewals(path)
    if r[0] > 0.0:
        r = np.concatenate(([0.0], r))
    idx = int(np.searchsorted(r, T, side="right"))
    spans = np.diff(r[: idx + 1])
    completed = spans[:-1]
    sup_a = max(float(np.max(completed)) if completed.size else 0.0, T - float(r[idx - 1]))
    scale = T ** (1.0 / p)
    return sup_a / scale, float(np.max(spans)) / scale


def _path_max_statistic_oracle(path, dist, T, statistic):
    r = _renewals(path)
    taus = np.diff(r[: int(np.searchsorted(r, T, side="right")) + 1])
    return float(np.max(taus if statistic == "max-tau" else dist.cumulative_hazard(taus)))


def _outcome(f, *args):
    """f(*args) as a float array, or the type of the error it raises."""
    try:
        return np.asarray(f(*args), dtype=float)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _assert_same(new, old):
    if isinstance(old, type):
        assert new is old
    else:
        assert not isinstance(new, type) and np.array_equal(new, old)


class TestSpanReaders:
    @pytest.mark.parametrize("delay", ["zero", "stationary", "fixed"])
    def test_readers_match_renewals_diff_oracles(self, dist, delay, rng):
        H = 15.0 * dist.mean()
        fixed = 0.7 * dist.mean()
        for _ in range(12):
            start = dist.sample_stationary_delay(rng) if delay == "stationary" else delay
            path = simulate_path(dist, H, fixed if delay == "fixed" else start, rng)
            at_events = path.events[path.events <= H]
            # random times, T exactly at an event, before the first event, at the horizon
            edges = [*at_events[:2], *at_events[-1:], 0.5 * path.events[0], 0.0, H]
            ts = np.concatenate((np.sort(rng.uniform(0.0, H, 9)), edges))
            ts = ts[ts <= H]
            assert np.array_equal(path.spans[int(not path.is_pure) :], _interarrivals_oracle(path))
            for t in ts:
                t = float(t)
                if t > 0.0:
                    _assert_same(_outcome(scaled_recurrence_sup, path, t, 3.0),
                                 _outcome(_scaled_recurrence_sup_oracle, path, t, 3.0))
                    for stat in ("max-tau", "max-xi"):
                        _assert_same(_outcome(path_max_statistic, path, dist, t, stat),
                                     _outcome(_path_max_statistic_oracle, path, dist, t, stat))
                if path.is_pure:
                    assert compensator_at(path, dist, t) == _compensator_at_oracle(path, dist, t)
                    if t > 0.0:
                        assert scaled_compensator_sup(path, dist, t, 0.5) == _scaled_compensator_sup_oracle(
                            path, dist, t, 0.5
                        )
            if path.is_pure:
                assert np.array_equal(cycle_hazards(path, dist).xi, _cycle_hazards_oracle(path, dist))

    @pytest.mark.parametrize("delay", [0.0, 1.5])
    def test_interarrivals_are_read_only(self, delay):
        path = RenewalPath(delay, np.array([1.5, 2.0, 5.0]) if delay else np.array([2.0, 5.0]), 3.0)
        taus = path.spans[1:] if delay else path.spans
        assert np.array_equal(taus, [0.5, 3.0] if delay else [2.0, 3.0])
        with pytest.raises(ValueError):
            taus[0] = 1.0


# Oracle for the one-hazard-call scalar read: the body that summed the cycle
# hazards into a zero-led buffer and added the running partial after.


def _compensator_at_scalar_oracle(path, dist, t):
    ts = np.asarray(t, dtype=float)
    k = cycles = path.index_of(float(ts))
    xi = dist.cumulative_hazard(np.concatenate((path.spans[:cycles], np.ravel(ts - path.events[k - 1] * (k >= 1)))))
    full = np.zeros(cycles + 1)
    np.cumsum(xi[:cycles], out=full[1:])
    return float(full[k] + xi[cycles:].reshape(ts.shape))


class TestOneHazardCallReads:
    def test_scalar_compensator_matches_oracle_and_array_read(self, dist, rng):
        # the array read is PathBlock.residuals, N(t) - 1 - Lambda(t) of each row
        H = 30.0 * dist.mean()
        (block,) = simulate_paths(dist, H, 6, rng)
        for row, k in zip(block.events, block.counts):
            path = RenewalPath(0.0, row[: k + 1], H)
            at_events = path.events[path.events <= H]
            between = 0.5 * (np.concatenate(([0.0], at_events[:-1])) + at_events)
            ts = np.concatenate(([0.0, H], at_events, between, rng.uniform(0.0, H, 16)))
            (from_array,) = PathBlock(row[None, : k + 1], H, 0).residuals(dist, ts)
            for t, residual in zip(ts.tolist(), from_array.tolist()):
                got = compensator_at(path, dist, t)
                assert got == _compensator_at_scalar_oracle(path, dist, t)
                assert path.count(t) - 1 - got == residual

    def test_one_hazard_call_per_read(self, monkeypatch):
        d = Gamma(2.0, 1.0)
        shapes = []
        hazard = Distribution.cumulative_hazard

        def counted(self, x):
            shapes.append(np.shape(x))
            return hazard(self, x)

        monkeypatch.setattr(Distribution, "cumulative_hazard", counted)
        path = simulate_path(d, 20.0, "zero", np.random.default_rng(4))
        k = path.index_of(15.0)
        compensator_at(path, d, 15.0)
        assert shapes == [(k + 1,)]
        shapes.clear()
        rootzen_uniform_error(d, 20.0, 50, "max-xi", np.random.default_rng(4))
        rootzen_uniform_error(ShiftedPareto(3.5, 1.0), 20.0, 50, "max-tau", np.random.default_rng(4))
        assert shapes == [(50,)]
        shapes.clear()
        (block,) = simulate_paths(d, 20.0, 30, np.random.default_rng(4))
        block.residuals(d, [5.0, 20.0])
        block.cycle_hazards(d, 30)
        assert shapes == [(int(block.counts.sum()) + 60,), (int(block.counts.sum()) + 30,)]

    def test_array_hazard_matches_scalar_calls(self, dist):
        # rootzen_uniform_error maps a whole sample set through one call
        x = np.sort(draw_interarrivals(dist, 2000, np.random.default_rng(5)))
        assert np.array_equal(dist.cumulative_hazard(x), [dist.cumulative_hazard(v) for v in x.tolist()])


def _rootzen_oracles(dist, T, n_paths, statistic, rng):
    """(uniform error at the sample points, uniform error on a thousand-point
    quantile lattice of G) for cycle maxima read path by path, each through
    its own path_max_statistic call: rootzen_uniform_error before it mapped
    the sample set through one hazard call and dropped the lattice."""
    samples = np.sort([path_max_statistic(simulate_path(dist, T, "zero", rng), dist, T, statistic)
                       for _ in range(n_paths)])
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
    return err, float(np.max(np.abs(emp - target_lat)))


def _per_path_reads(path, dist, ts):
    """The per-path readers of one zero-delayed path: N(t) - 1 - Lambda(t) at
    ``ts``, the cycle hazards, (sup A, sup B) and max tau over [0, horizon]."""
    T = path.horizon
    residuals = np.array([path.count(t) - 1 - compensator_at(path, dist, t) for t in ts])
    return (residuals, cycle_hazards(path, dist).xi, compensator._span_sups(path, T),
            path_max_statistic(path, dist, T, "max-tau"), path_max_statistic(path, dist, T, "max-xi"))


def _assert_rows_read_as_paths(block, paths, dist, ts):
    """Every row of ``block`` holds the matching path and reads as it does."""
    assert len(block.events) == len(paths)
    residuals, (sup_a, sup_b), maxima = block.residuals(dist, ts), block.span_sups(), block.cycle_maxima()
    xi = np.split(block.cycle_hazards(dist, len(paths)), np.cumsum(block.counts + 1)[:-1])
    for i, path in enumerate(paths):
        k = int(block.counts[i])
        assert np.array_equal(block.events[i, : k + 1], path.events)
        assert np.array_equal(block.spans[i, : k + 1], path.spans) and not block.spans[i, k + 1 :].any()
        reads = _per_path_reads(path, dist, ts)
        assert np.array_equal(residuals[i], reads[0]) and np.array_equal(xi[i], reads[1])
        assert (sup_a[i], sup_b[i], maxima[i]) == (*reads[2], reads[3])
        assert dist.cumulative_hazard(maxima[i]) == reads[4]


class TestPathBlocks:
    def test_batch_equals_per_path_loop(self, dist):
        # 1000 paths to 50 means go in several blocks of at most _PATH_BLOCK_FLOATS floats
        T = 50.0 * dist.mean()
        ts = np.array([5.0, 20.0, 50.0]) * dist.mean()
        loop_rng, batch_rng = np.random.default_rng(11), np.random.default_rng(11)
        paths = [simulate_path(dist, T, "zero", loop_rng) for _ in range(1000)]
        blocks = list(simulate_paths(dist, T, 1000, batch_rng))
        assert len(blocks) > 2 and sum(b.stragglers for b in blocks) == 0
        assert all(b.events.size <= compensator._PATH_BLOCK_FLOATS for b in blocks)
        # the whole reads, as check_compensator and the criteria take them
        residuals = np.concatenate([b.residuals(dist, ts) for b in blocks])
        pool = np.concatenate([b.cycle_hazards(dist, len(b.events)) for b in blocks])
        reads = [_per_path_reads(path, dist, ts) for path in paths]
        assert np.array_equal(residuals, [r[0] for r in reads])
        assert np.array_equal(pool, np.concatenate([r[1] for r in reads]))
        sup_a, sup_b = (np.concatenate(parts) for parts in zip(*(b.span_sups() for b in blocks)))
        assert np.array_equal(sup_a, [r[2][0] for r in reads]) and np.array_equal(sup_b, [r[2][1] for r in reads])
        maxima = np.concatenate([b.cycle_maxima() for b in blocks])
        assert np.array_equal(maxima, [r[3] for r in reads])
        assert np.array_equal(dist.cumulative_hazard(maxima), [r[4] for r in reads])
        assert batch_rng.random() == loop_rng.random()
        _assert_rows_read_as_paths(blocks[0], paths[: len(blocks[0].events)], dist, ts)

    def test_forced_stragglers_stay_exact_paths(self, dist, monkeypatch):
        # a first block of about the expected count leaves about half the rows
        # short of T; each gets its next blocks after the block's draw.  Blocks
        # of 10 rows put stragglers in many blocks before the last.
        monkeypatch.setattr(compensator, "_block_width", lambda gap, mean: max(int(gap / mean), 1))
        monkeypatch.setattr(compensator, "_PATH_BLOCK_FLOATS", 200)
        T = 20.0 * dist.mean()
        rng = np.random.default_rng(5)
        blocks = list(simulate_paths(dist, T, 200, rng))
        stragglers = sum(b.stragglers for b in blocks)
        assert 20 < stragglers < 180
        assert len(blocks) == 20 and sum(b.stragglers > 0 for b in blocks[:-1]) > 5
        for block in blocks:
            assert (block.events[np.arange(len(block.events)), block.counts] > T).all()
            paths = [RenewalPath(0.0, row[: k + 1], T) for row, k in zip(block.events, block.counts)]
            _assert_rows_read_as_paths(block, paths, dist, np.array([2.0, 10.0, 20.0]) * dist.mean())

    def test_records_compare_by_identity(self):
        # array fields: a field-wise == would raise, so equality is identity
        d = Gamma(2.0, 1.0)
        events = np.array([0.5, 2.0, 5.0])
        paths = [RenewalPath(0.0, events, 3.0) for _ in range(2)]
        blocks = [next(simulate_paths(d, 3.0, 1, np.random.default_rng(0))) for _ in range(2)]
        for a, b in (paths, [cycle_hazards(p, d) for p in paths], blocks):
            assert a == a and a != b and len({a, b, a}) == 2

    def test_block_validation(self):
        with pytest.raises(ValueError, match="one or more rows"):
            PathBlock(np.array([1.0, 2.0]), 1.5, 0)
        with pytest.raises(ValueError, match="past the horizon"):
            PathBlock(np.array([[1.0, 2.0], [0.5, 1.0]]), 1.5, 0)
        for row in ([0.5, 0.4, 2.0], [0.5, math.nan, 2.0], [-0.5, 0.2, 2.0], [0.0, 0.2, 2.0]):
            with pytest.raises(ValueError, match="positive and nondecreasing"):
                PathBlock(np.array([[0.5, 1.0, 2.0], row]), 1.5, 0)
        # entries after the first event past the horizon are not read
        block = PathBlock(np.array([[0.5, 2.0, -7.0], [0.5, 1.0, 2.0]]), 1.5, 0)
        assert block.counts.tolist() == [1, 2]
        assert block.spans.tolist() == [[0.5, 1.5, 0.0], [0.5, 0.5, 1.0]]
        paths = [RenewalPath(0.0, np.array(events), 1.5) for events in ([0.5, 2.0], [0.5, 1.0, 2.0])]
        _assert_rows_read_as_paths(block, paths, Exponential(1.0), np.array([0.0, 1.0, 1.5]))
        with pytest.raises(ValueError):
            block.spans[0, 0] = 1.0
        with pytest.raises(HorizonExceededError):
            block.residuals(Exponential(1.0), [1.0, 1.6])

    def test_tied_events_are_cycles_of_length_0(self, dist):
        # a draw below half an ulp of the running sum leaves two equal events,
        # a cycle of length 0 that a path and a block both keep and count; the
        # second row's repeat after the first event past the horizon is unread
        rows = ([0.5, 1.0, 1.0, 2.0], [0.5, 1.0, 2.0, 2.0])
        paths = [RenewalPath(0.0, np.array(rows[0]), 1.5), RenewalPath(0.0, np.array(rows[1][:3]), 1.5)]
        assert paths[0].spans.tolist() == [0.5, 0.5, 0.0, 1.0]
        block = PathBlock(np.array(rows), 1.5, 0)
        assert block.ties == 1 and block.counts.tolist() == [3, 2]
        assert block.spans.tolist() == [[0.5, 0.5, 0.0, 1.0], [0.5, 0.5, 1.0, 0.0]]
        _assert_rows_read_as_paths(block, paths, dist, np.array([0.0, 0.75, 1.0, 1.5]))
        assert block.cycle_hazards(dist, 1)[2] == 0.0

    @pytest.mark.parametrize("ts", [[1.0, -1.0], [1.0, 11.0], [1.0, math.nan], [[1.0], [5.0]]],
                             ids=["negative", "past-horizon", "nan", "two-dimensional"])
    def test_residuals_reject_times_outside_horizon(self, ts):
        # the array read checks its times itself, as RenewalPath.index_of
        # checks them for the scalar readers
        d = Gamma(2.0, 1.0)
        (block,) = simulate_paths(d, 10.0, 3, np.random.default_rng(2))
        with pytest.raises(HorizonExceededError, match=r"(?s)^times .* outside \[0, 10\]$"):
            block.residuals(d, ts)

    @pytest.mark.parametrize("T, n", [(0.0, 5), (math.inf, 5), (10.0, -1)])
    def test_simulate_paths_rejects_bad_arguments_before_any_draw(self, T, n):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            simulate_paths(Exponential(1.0), T, n, rng)
        assert rng.bit_generator.state == state
        assert list(simulate_paths(Exponential(1.0), 10.0, 0, rng)) == []


class TestRootzen:
    def test_uniform_max_tau_rejected(self, rng):
        with pytest.raises(FiniteSupportError):
            rootzen_uniform_error(Uniform(0.0, 2.0), 20.0, 100, "max-tau", rng)

    @pytest.mark.parametrize("n_paths, statistic, field", [(0, "max-xi", "n_paths"), (100, "max-age", "statistic")],
                             ids=["no-paths", "unknown-statistic"])
    def test_bad_arguments_rejected_before_any_draw(self, n_paths, statistic, field):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=field):
            rootzen_uniform_error(Gamma(2.0, 1.0), 20.0, n_paths, statistic, rng)
        assert rng.bit_generator.state == state

    def test_unknown_statistic_rejected(self, rng):
        path = simulate_path(Exponential(1.0), 5.0, "zero", rng)
        with pytest.raises(ValueError):
            path_max_statistic(path, Exponential(1.0), 5.0, "max-age")

    def test_error_shrinks_with_horizon(self, rng):
        d = Gamma(2.0, 1.0)
        e_small = rootzen_uniform_error(d, 20.0, 1500, "max-xi", rng)
        e_large = rootzen_uniform_error(d, 200.0, 1500, "max-xi", rng)
        assert e_large < e_small

    def test_max_tau_variant_runs(self, rng):
        d = ShiftedPareto(3.5, 1.0)
        err = rootzen_uniform_error(d, 40.0, 400, "max-tau", rng)
        assert 0.0 <= err <= 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dist, statistic", [(Gamma(2.0, 1.0), "max-xi"), (ShiftedPareto(3.5, 1.0), "max-tau")],
                             ids=["gamma-max-xi", "pareto-max-tau"])
    def test_sample_points_attain_the_sup(self, seed, dist, statistic):
        # one hazard call over the sample set reads the per-path maxima bit for
        # bit, and G^{mT} is continuous, so a quantile lattice of G adds
        # nothing to the sup over the sample points
        err = rootzen_uniform_error(dist, 20.0, 300, statistic, np.random.default_rng(seed))
        at_samples, on_lattice = _rootzen_oracles(dist, 20.0, 300, statistic, np.random.default_rng(seed))
        assert err == at_samples >= on_lattice

    def test_power_target_near_one_for_growing_threshold(self):
        # (1 - e^{-eps T^p})^{mT} at eps=0.5, p=1, T=100 is within 1e-6 of 1
        m = 0.5
        T = 100.0
        val = (1.0 - math.exp(-0.5 * T)) ** (m * T)
        assert val == pytest.approx(1.0, abs=1e-6)
