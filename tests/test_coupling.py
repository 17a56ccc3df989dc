import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from conftest import ALL_KINDS, trapezoid_weights_oracle
from renewal_lab import (
    Exponential,
    Gamma,
    Grid,
    ShiftedPareto,
    Uniform,
    coupled_event_sequences,
    coupling_moment,
    coupling_tail,
    find_common_component,
    forward_recurrence_cdf,
    maximal_coupling_sample,
    recurrence_density_at,
    renewal_measure,
    simulate_coupling,
    tv_distance,
)
from renewal_lab import coupling
from renewal_lab.coupling import CouplingTrace, verify_common_component
from renewal_lab.errors import NoCommonComponentError, NotNormalizedError
from renewal_lab.grids import measure_from_distribution


def grid_for(dist, horizon_means=50.0):
    return Grid(dist.mean() / 200.0, int(200 * horizon_means))


@pytest.fixture(scope="module")
def gamma_setup():
    d = Gamma(2.0, 1.0)
    phi = renewal_measure(d, grid_for(d))
    params = find_common_component(d, phi=phi)
    return d, phi, params


@pytest.fixture(scope="module")
def pareto_setup():
    d = ShiftedPareto(3.5, 1.0)
    phi = renewal_measure(d, grid_for(d))
    params = find_common_component(d, phi=phi)
    return d, phi, params


@pytest.fixture(scope="module")
def gamma_traces(gamma_setup):
    d, phi, params = gamma_setup
    rng = np.random.default_rng(1234)
    return d, phi, params, [simulate_coupling(d, params, rng, phi=phi) for _ in range(3000)]


class TestMaximalCoupling:
    def grid_pair(self):
        grid = Grid(0.005, 10000)
        p = measure_from_distribution(Exponential(1.0), grid)
        q = measure_from_distribution(Exponential(2.0), grid)
        return p, q

    def test_equal_laws_always_couple(self, rng):
        p, _ = self.grid_pair()
        _, _, coupled = maximal_coupling_sample(p, p, rng, size=200)
        assert np.all(coupled == 1)

    def test_disjoint_supports_never_couple(self, rng):
        grid = Grid(0.01, 1000)
        a = measure_from_distribution(Uniform(0.0, 2.0), grid)
        b = measure_from_distribution(Uniform(4.0, 6.0), grid)
        x, y, coupled = maximal_coupling_sample(a, b, rng, size=200)
        assert np.all(coupled == 0)
        assert np.all(x <= 2.0 + 1e-9) and np.all(y >= 4.0 - 1e-9)

    def test_uncoupling_probability_matches_tv(self, rng):
        # oracle: the gridded TV distance between the two laws
        p, q = self.grid_pair()
        tv = tv_distance(p, q)
        n = 100_000
        _, _, coupled = maximal_coupling_sample(p, q, rng, size=n)
        phat = float(np.mean(coupled == 0))
        assert abs(phat - tv / 2.0) < 3.0 * math.sqrt(0.25 * 0.75 / n)

    def test_marginals_preserved(self, rng):
        p, q = self.grid_pair()
        n = 50_000
        x, y, _ = maximal_coupling_sample(p, q, rng, size=n)
        thresh = 1.36 / math.sqrt(n) + 2 * p.grid.step
        assert stats.kstest(x, lambda v: np.asarray(Exponential(1.0).cdf(v))).statistic < thresh
        assert stats.kstest(y, lambda v: np.asarray(Exponential(2.0).cdf(v))).statistic < thresh

    def test_rejects_unnormalized(self, rng):
        grid = Grid(0.01, 100)  # truncates most of the exponential mass
        p = measure_from_distribution(Exponential(1.0), grid)
        with pytest.raises(NotNormalizedError):
            maximal_coupling_sample(p, p, rng, size=10)


class TestCommonComponent:
    def test_exponential_closed_form_window(self):
        # the recurrence law is Exp(1) at every t: delta = 0.95 * b * e^{-b} at b = 1
        d = Exponential(1.0)
        phi = renewal_measure(d, grid_for(d))
        params = find_common_component(d, phi=phi)
        assert params.b == pytest.approx(1.0)
        assert params.delta == pytest.approx(0.95 * math.exp(-1.0), rel=2e-3)

    def test_uniform_has_valid_component(self):
        d = Uniform(0.0, 2.0)
        phi = renewal_measure(d, grid_for(d))
        params = find_common_component(d, phi=phi)
        assert 0.01 <= params.delta < 1.0
        assert params.b <= 1.0 + 1e-9

    @pytest.mark.parametrize("hi", [1.1, 1.05])
    def test_no_positive_component_names_the_cause(self, hi):
        # the lattice density of a near-deterministic law is still spiky
        # after burn-in: its deviation from pi exceeds pi's minimum on every
        # window, so every candidate mass is negative
        d = Uniform(1.0, hi)
        phi = renewal_measure(d, grid_for(d))
        with pytest.raises(NoCommonComponentError, match="final lattice deviation from the stationary density") as exc:
            find_common_component(d, phi=phi)
        assert "mass" not in str(exc.value) and "-" not in str(exc.value)

    def test_params_verify_on_finer_lattice(self, dist):
        phi = renewal_measure(dist, grid_for(dist))
        params = find_common_component(dist, phi=phi)
        t_check = np.linspace(params.d, params.d + 22.0 * dist.mean(), 57)
        margin = verify_common_component(dist, params, phi=phi, t_points=t_check)
        assert margin >= 0.0

    def test_low_mass_raises(self, monkeypatch):
        # a tiny probe lattice far before burn-in makes stabilization fail loudly
        d = Gamma(2.0, 1.0)
        phi = renewal_measure(d, grid_for(d))
        monkeypatch.setattr(coupling, "_D0", 1e-4 / d.mean())
        monkeypatch.setattr(coupling, "_LATTICE_STEP", 1e-4 / d.mean())
        with pytest.raises(NoCommonComponentError):
            find_common_component(d, phi=phi)


def _draw_recurrence_cumsum(dist, t, rng):
    """Exact B_t draw read off the cumsum of each block with searchsorted,
    every block drawn when the walk reaches it: the oracle for the walks of
    ``coupling._draw_recurrence_pair``, which must return the same floats
    and leave the stream in the same state as two of these in a row."""
    mean = dist.mean()
    total = 0.0
    while True:
        block = int((t - total) / mean * 1.3 + 12.0)
        cs = total + np.cumsum(coupling.draw_interarrivals(dist, block, rng))
        if cs[-1] > t:
            idx = int(np.searchsorted(cs, t, side="right"))
            return float(cs[idx]) - t
        total = float(cs[-1])


def _oracle_pair(dist, t1, t2, rng):
    return _draw_recurrence_cumsum(dist, t1, rng), _draw_recurrence_cumsum(dist, t2, rng)


def _oracle_density_rows(dist, kts, xs, phi):
    """The chain's density read row by row: the public density on the row's
    lattice, dotted with the trapezoid weights written out, Phi's atom in the
    first."""
    h = phi.grid.step
    out = []
    for kt, x in zip(kts, xs):
        w = trapezoid_weights_oracle(phi, kt)
        values = np.asarray(dist.density(kt * h + x - h * np.arange(kt + 1)), dtype=float)
        out.append(float(np.dot(w, values)))
    return out


def _oracle_chain(monkeypatch):
    """Make ``simulate_coupling`` the test-side chain: sequential oracle walks
    and the public density read."""
    monkeypatch.setattr(coupling, "_draw_recurrence_pair", _oracle_pair)
    monkeypatch.setattr(coupling, "_density_rows", _oracle_density_rows)


def _record_draws(monkeypatch, scale=1.0):
    """Sizes of the ``draw_interarrivals`` calls the coupling module makes
    from now on; ``scale`` multiplies every draw (elementwise, so the
    variates do not depend on how the calls are chunked)."""
    draw = coupling.draw_interarrivals
    sizes = []

    def recorded(d, size, rng):
        sizes.append(size)
        return draw(d, size, rng) * scale

    monkeypatch.setattr(coupling, "draw_interarrivals", recorded)
    return sizes


# a Lomax whose first interarrival blocks often fall short of the probe time,
# so the chain's continuation blocks run (at tail 3.5 they almost never do)
HEAVY_LOMAX = ShiftedPareto(1.5, 1.0)


@pytest.fixture(scope="module", params=[*ALL_KINDS, HEAVY_LOMAX], ids=lambda d: repr(d))
def kind_setup(request):
    d = request.param
    phi = renewal_measure(d, grid_for(d))
    return d, phi, find_common_component(d, phi=phi)


class TestRecurrenceDraw:
    T_MEANS = (0.0, "step", 0.3, 1.0, 5.0, 20.0)

    def assert_same_draws(self, dist, seeds, sizes):
        """The pair draw against two sequential oracle walks at every pair of
        times, ``sizes`` recording the draw calls; returns the continuation
        blocks of the first walks and the blocks of all oracle walks."""
        h = dist.mean() / 200.0
        ts = [h if m == "step" else m * dist.mean() for m in self.T_MEANS]
        continued = blocks = 0
        for t1, t2 in itertools.product(ts, ts):
            for seed in seeds:
                rng_pair, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
                pair = coupling._draw_recurrence_pair(dist, t1, t2, rng_pair)
                start = len(sizes)
                beta = _draw_recurrence_cumsum(dist, t1, rng_oracle)
                continued += len(sizes) - start - 1
                oracle = (beta, _draw_recurrence_cumsum(dist, t2, rng_oracle))
                blocks += len(sizes) - start
                assert all(type(x) is float for x in pair) and pair == oracle, (t1, t2, seed)
                assert rng_pair.bit_generator.state == rng_oracle.bit_generator.state
        return continued, blocks

    def test_pair_matches_two_cumsum_walks(self, dist, monkeypatch):
        self.assert_same_draws(dist, range(3), _record_draws(monkeypatch))

    def test_continuations_read_the_floats_drawn_ahead(self, monkeypatch):
        # a Lomax so heavy-tailed that first blocks often fall short of t:
        # beta's continuation blocks read the floats drawn for beta_hat first
        continued, _ = self.assert_same_draws(ShiftedPareto(1.05, 1.0), range(10), _record_draws(monkeypatch))
        assert continued >= 50

    def test_walks_match_cumsum_across_blocks(self, dist, monkeypatch):
        # interarrivals scaled down 20-fold: a block covers a twentieth of the
        # time its size is set for, so walks past a mean carry their partial
        # sums across many blocks, in both walks of the pair
        seeds = range(2)
        continued, blocks = self.assert_same_draws(dist, seeds, _record_draws(monkeypatch, 0.05))
        walks = 2 * len(self.T_MEANS) ** 2 * len(seeds)
        assert blocks > 2 * walks and continued > walks

    def test_traces_match_the_oracle_chain(self, kind_setup, monkeypatch):
        # every trace field, every density read and the generator's end state
        d, phi, params = kind_setup
        density_rows = coupling._density_rows
        reads = []

        def recorded(*args):
            reads.append((args, density_rows(*args)))
            return reads[-1][1]

        monkeypatch.setattr(coupling, "_density_rows", recorded)
        rngs = [np.random.default_rng(seed) for seed in range(100)]
        shipped = [simulate_coupling(d, params, rng, phi=phi) for rng in rngs]
        assert len(reads) > 100
        for args, values in reads:
            assert values == _oracle_density_rows(*args)
        _oracle_chain(monkeypatch)
        oracle_rngs = [np.random.default_rng(seed) for seed in range(100)]
        oracle = [simulate_coupling(d, params, rng, phi=phi) for rng in oracle_rngs]
        for a, b, rng_a, rng_b in zip(shipped, oracle, rngs, oracle_rngs):
            for field in dataclasses.fields(CouplingTrace):
                va, vb = getattr(a, field.name), getattr(b, field.name)
                if isinstance(va, np.ndarray):
                    assert np.array_equal(va, vb), field.name
                else:
                    assert va == vb, field.name
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_max_thinning_ratio_is_the_largest_read_ratio(self, kind_setup):
        # each trial whose draws both fall in (0, b) reads the ratio
        # delta^2 / (b^2 p p_hat); the trace keeps the largest, at most 1
        d, phi, params = kind_setup
        t_stab = min(params.d + 20.0 * d.mean(), phi.grid.horizon)
        scale = params.delta * params.delta * (1.0 / params.b) * (1.0 / params.b)
        for seed in range(100):
            tr = simulate_coupling(d, params, np.random.default_rng(seed), phi=phi)
            ratios = []
            for k in range(tr.sigma + 1):
                L = max(tr.eta[k]) + params.d
                xs = tr.accepted_draw if k == tr.sigma else tuple(tr.beta[k])
                if max(xs) >= params.b:
                    continue
                p = [
                    recurrence_density_at(d, np.array([L - e]), np.array([x]), phi=phi)[0]
                    if L - e <= t_stab
                    else d.stationary_delay_density(x)
                    for e, x in zip(tr.eta[k], xs)
                ]
                ratios.append(scale / (p[0] * p[1]))
            assert tr.max_thinning_ratio == max(ratios)
            assert 0.0 < tr.max_thinning_ratio <= 1.0 + 1e-9

    def test_one_draw_call_per_trial_and_one_density_call_per_read(self, kind_setup, monkeypatch):
        # draw calls: one per trial plus one per continuation block, which the
        # oracle chain's walks count as the blocks past two per trial; calls of
        # the bare density formula: one per thinning read, over the lattices of
        # its rows
        d, phi, params = kind_setup
        sizes = _record_draws(monkeypatch)
        lattices = []
        density = type(d)._density

        def recorded_density(self, x):
            lattices.append(len(x))
            return density(self, x)

        monkeypatch.setattr(type(d), "_density", recorded_density)
        t_stab = min(params.d + 20.0 * d.mean(), phi.grid.horizon)
        continuations = 0
        for seed in range(100):
            del sizes[:], lattices[:]
            tr = simulate_coupling(d, params, np.random.default_rng(seed), phi=phi)
            calls, trials = len(sizes), tr.sigma + 1
            reads = []
            for k in range(trials):
                L = max(tr.eta[k]) + params.d
                xs = tr.accepted_draw if k == tr.sigma else tuple(tr.beta[k])
                near = [phi.grid.index_of(L - e) + 1 for e in tr.eta[k] if L - e <= t_stab]
                if max(xs) < params.b and near:
                    reads.append(sum(near))
            assert lattices == reads
            with monkeypatch.context() as m:
                _oracle_chain(m)
                del sizes[:]
                simulate_coupling(d, params, np.random.default_rng(seed), phi=phi)
            continuations += len(sizes) - 2 * trials
            assert calls == trials + len(sizes) - 2 * trials
        if d is HEAVY_LOMAX:
            assert continuations >= 50


class TestCouplingChain:
    def test_trace_invariants(self, gamma_traces):
        d, phi, params, traces = gamma_traces
        for tr in traces[:200]:
            # one eta row and one beta row per trial, the accepted one last
            assert len(tr.eta) == len(tr.beta) == tr.sigma + 1
            assert np.array_equal(tr.indicators, np.eye(tr.sigma + 1, dtype=int)[tr.sigma])
            ls = np.max(tr.eta, axis=1) + params.d
            assert np.all(np.diff(ls) > 0.0)
            shared = tr.beta[tr.sigma, 0]
            assert 0.0 < shared < params.b
            assert tr.coupling_time == pytest.approx(ls[-1] + shared)
            assert tr.beta[-1, 1] == shared

    def test_sigma_is_geometric(self, gamma_traces):
        d, phi, params, traces = gamma_traces
        sig = np.array([tr.sigma for tr in traces])
        d2 = params.delta**2
        n = len(sig)
        k_max = 0
        while n * d2 * (1.0 - d2) ** (k_max + 1) >= 5 and k_max < 400:
            k_max += 1
        obs = [np.sum(sig == m) for m in range(k_max + 1)] + [np.sum(sig > k_max)]
        expected = [n * d2 * (1.0 - d2) ** m for m in range(k_max + 1)] + [n * (1.0 - d2) ** (k_max + 1)]
        res = stats.chisquare(obs, expected)
        assert res.pvalue > 0.05

    def test_sigma_zero_probability(self, gamma_traces):
        d, phi, params, traces = gamma_traces
        sig = np.array([tr.sigma for tr in traces])
        d2 = params.delta**2
        assert abs(np.mean(sig == 0) - d2) < 3.0 * math.sqrt(d2 * (1 - d2) / len(sig))

    def test_accepted_pair_is_product_uniform(self, gamma_setup):
        # thinning correctness: conditional on acceptance the drawn pair is an
        # independent pair of uniforms on (0, b)
        d, phi, params = gamma_setup
        rng = np.random.default_rng(777)
        pairs = np.array(
            [simulate_coupling(d, params, rng, phi=phi).accepted_draw for _ in range(1500)]
        )
        b = params.b
        n = len(pairs)
        thresh = 1.36 / math.sqrt(n)
        assert stats.kstest(pairs[:, 0] / b, "uniform").statistic < thresh
        assert stats.kstest(pairs[:, 1] / b, "uniform").statistic < thresh
        # independence: chi-square on a 4x4 binning
        edges = np.linspace(0.0, b, 5)
        table, _, _ = np.histogram2d(pairs[:, 0], pairs[:, 1], bins=(edges, edges))
        res = stats.chi2_contingency(table)
        assert res.pvalue > 0.05

    def test_sigma_independent_of_initial_delay(self, gamma_traces):
        # the factorized law: sigma's histogram is homogeneous across coarse
        # bins of the stationary initial delay
        d, phi, params, traces = gamma_traces
        eta0 = np.array([tr.eta[0, 1] for tr in traces])
        sig = np.array([tr.sigma for tr in traces])
        median = np.median(eta0)
        bins = [sig[eta0 <= median], sig[eta0 > median]]
        table = np.array([[np.sum(b == 0), np.sum(b == 1), np.sum((b >= 2) & (b <= 4)), np.sum(b > 4)] for b in bins])
        res = stats.chi2_contingency(table)
        assert res.pvalue > 0.05

    def test_grid_cdf_consistent_with_chain_draws(self, gamma_traces):
        # probability integral transform of the first-step draws through the
        # grid CDF at each trace's own probe time; uniform iff the grid law
        # matches the simulation law
        d, phi, params, traces = gamma_traces
        pit = []
        for tr in traces[:1200]:
            t1 = max(tr.eta[0, 1] - tr.eta[0, 0], 0.0) + params.d
            cdf = forward_recurrence_cdf(d, t1, phi=phi)
            beta = tr.beta[0, 0] if tr.sigma > 0 else tr.accepted_draw[0]
            pit.append(np.interp(beta, cdf.grid.nodes(), cdf.values, right=1.0))
        res = stats.kstest(np.asarray(pit), "uniform")
        assert res.statistic < 1.36 / math.sqrt(len(pit)) + 2.5 * phi.grid.step

    def test_traces_compare_by_identity(self, gamma_setup):
        # array fields: a field-wise == would raise, so equality is identity
        d, phi, params = gamma_setup
        a, b = (simulate_coupling(d, params, np.random.default_rng(3), phi=phi) for _ in range(2))
        assert np.array_equal(a.eta, b.eta) and len(a.eta) > 1
        assert a == a and a != b and len({a, b, a}) == 2

    def test_post_coupling_sequences_identical(self, gamma_setup, rng):
        d, phi, params = gamma_setup
        for seed in range(5):
            tr = simulate_coupling(d, params, np.random.default_rng(seed), phi=phi)
            e1, e2 = coupled_event_sequences(tr, d, tr.coupling_time + 40.0, rng)
            post1 = e1[e1 >= tr.coupling_time - 1e-12]
            post2 = e2[e2 >= tr.coupling_time - 1e-12]
            assert np.array_equal(post1, post2)
            assert post1[0] == tr.coupling_time

    def test_continuation_runs_from_coupling_time_past_horizon(self, gamma_setup, rng):
        d, phi, params = gamma_setup
        for seed in range(5):
            tr = simulate_coupling(d, params, np.random.default_rng(seed), phi=phi)
            horizon = tr.coupling_time + 40.0
            e1, _ = coupled_event_sequences(tr, d, horizon, rng)
            post = e1[e1 >= tr.coupling_time]
            assert post[0] == tr.coupling_time
            assert np.all(np.diff(post) > 0.0)
            assert np.sum(post > horizon) == 1 and post[-1] > horizon


class TestCouplingSummaries:
    def test_tail_at_zero_is_one(self, gamma_traces):
        _, _, _, traces = gamma_traces
        est = coupling_tail(traces, 0.0)
        assert est.p == 1.0

    def test_tail_monotone_to_zero(self, gamma_traces):
        _, _, _, traces = gamma_traces
        ts = [0.0, 20.0, 60.0, 150.0, 1e9]
        ps = [coupling_tail(traces, t).p for t in ts]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert ps[-1] == 0.0

    def test_tail_needs_enough_traces(self, gamma_traces):
        _, _, _, traces = gamma_traces
        with pytest.raises(ValueError):
            coupling_tail(traces[:100], 1.0)

    def test_moment_tiny_exponent_limit(self, gamma_traces):
        _, _, _, traces = gamma_traces
        est = coupling_moment(traces, 1e-9)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_moment_rejects_nonpositive_q(self, gamma_traces):
        _, _, _, traces = gamma_traces
        with pytest.raises(ValueError):
            coupling_moment(traces, 0.0)

    def test_exponential_first_moment_stable(self):
        # all moments exist; estimates stabilize across doubling sample sizes
        d = Exponential(1.0)
        phi = renewal_measure(d, grid_for(d))
        params = find_common_component(d, phi=phi)
        rng = np.random.default_rng(55)
        traces = [simulate_coupling(d, params, rng, phi=phi) for _ in range(4000)]
        m_half = coupling_moment(traces[:2000], 1.0)
        m_full = coupling_moment(traces, 1.0)
        assert abs(m_half.value - m_full.value) < 3.0 * (m_half.stderr + m_full.stderr)

    def test_coupling_inequality_against_tv(self, gamma_traces):
        # two independent routes: 2 P(T > t) + 3 se must dominate the grid TV
        from renewal_lab.renewal import tv_to_stationary

        d, phi, params, traces = gamma_traces
        for t in [5.0 * d.mean(), 10.0 * d.mean(), 20.0 * d.mean()]:
            est = coupling_tail(traces, t)
            tv = tv_to_stationary(d, t, phi=phi)
            assert 2.0 * est.p + 3.0 * est.stderr >= tv
