import math

import numpy as np
import pytest
from scipy import integrate, stats

from renewal_lab import Exponential, Gamma, ShiftedPareto, Uniform, distribution_from_config
from renewal_lab.errors import ConfigError, SupportExhaustedError

from conftest import ALL_KINDS


class TestValidation:
    def test_bad_parameters_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Gamma(0.5, 1.0)
        with pytest.raises(ValueError):
            Gamma(2.0, -1.0)
        with pytest.raises(ValueError):
            Uniform(-0.1, 1.0)
        with pytest.raises(ValueError):
            Uniform(2.0, 2.0)
        with pytest.raises(ValueError):
            ShiftedPareto(1.0, 1.0)
        with pytest.raises(ValueError):
            ShiftedPareto(3.5, 0.0)

    def test_config_round_trip(self, dist):
        again = distribution_from_config(dist.to_config())
        assert again == dist

    def test_config_errors_carry_field_paths(self):
        with pytest.raises(ConfigError, match="distribution.kind"):
            distribution_from_config({"kind": "weibull"})
        with pytest.raises(ConfigError, match="distribution.rate"):
            distribution_from_config({"kind": "exponential"})
        with pytest.raises(ConfigError, match="unexpected"):
            distribution_from_config({"kind": "exponential", "rate": 1.0, "bogus": 2})


class TestCdf:
    def test_exponential_at_zero(self):
        assert Exponential(1.0).cdf(0.0) == 0.0

    def test_exponential_median_closed_form(self):
        # F(x) = 1 - exp(-2x) hits 1/2 at ln(2)/2
        assert Exponential(2.0).cdf(math.log(2.0) / 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_beyond_support(self):
        assert Uniform(0.0, 2.0).cdf(3.0) == 1.0

    def test_negative_argument_gives_zero(self, dist):
        assert dist.cdf(-0.5) == 0.0
        assert dist.density(-0.5) == 0.0

    def test_cdf_monotone_and_limits(self, dist):
        xs = np.linspace(0.0, 20.0 * dist.mean(), 800)
        vals = dist.cdf(xs)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-15)
        assert dist.cdf(min(dist.support_end(), 1e9)) == pytest.approx(1.0, abs=1e-6)

    def test_density_matches_cdf_derivative(self, dist):
        # central difference of the analytic CDF at interior points
        scale = dist.mean()
        xs = np.linspace(0.17 * scale, 0.9 * min(dist.support_end(), 8.0 * scale), 41)
        delta = 1e-5 * scale
        approx = (dist.cdf(xs + delta) - dist.cdf(xs - delta)) / (2.0 * delta)
        assert np.max(np.abs(approx - dist.density(xs))) < 1e-6

    def test_density_integrates_to_one(self, dist):
        hi = min(dist.support_end(), np.inf)
        val, _ = integrate.quad(dist.density, 0.0, hi, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestHazard:
    def test_support_exhausted(self):
        d = Uniform(1.0, 2.0)
        with pytest.raises(SupportExhaustedError):
            d.cumulative_hazard(2.0)
        with pytest.raises(SupportExhaustedError):
            d.cumulative_hazard(2.5)

    def test_support_end_named_for_bounded_law(self):
        with pytest.raises(SupportExhaustedError, match=r"diverges at x >= 2 for uniform$"):
            Uniform(1.0, 2.0).cumulative_hazard(np.array([1.5, 2.5]))

    @pytest.mark.parametrize("d, x", [(Exponential(1.0), 38.0), (Gamma(2.0, 1.0), 45.0), (ShiftedPareto(3.5, 1.0), 1e5)],
                             ids=["exponential", "gamma", "shifted-pareto"])
    def test_tail_rounding_named_for_unbounded_law(self, d, x):
        # F(x) rounds to 1 far in the tail; the message names the first such x
        # of the array, not the infinite support end
        with pytest.raises(SupportExhaustedError, match=rf"diverges at x = {x:g} for {d.kind}: F\(x\) rounds to 1"):
            d.cumulative_hazard(np.array([1.0, x, 2.0 * x]))
        with pytest.raises(SupportExhaustedError, match=rf"diverges at x = {x:g} for {d.kind}: F\(x\) rounds to 1"):
            d.cumulative_hazard(x)

    def test_cumulative_hazard_identity_and_monotone(self, dist):
        xs = np.linspace(0.0, 0.95 * min(dist.support_end(), 10.0), 67)
        ch = np.asarray(dist.cumulative_hazard(xs))
        assert np.all(np.diff(ch) >= 0.0)
        assert np.max(np.abs(np.exp(-ch) - (1.0 - np.asarray(dist.cdf(xs))))) < 1e-12

    def test_uniform_cumhaz_value(self):
        assert Uniform(0.0, 1.0).cumulative_hazard(0.9) == pytest.approx(-math.log(0.1), rel=1e-12)

    def test_cumhaz_at_zero(self, dist):
        assert dist.cumulative_hazard(0.0) == 0.0


class TestMoments:
    def test_exponential_mean(self):
        assert Exponential(1.0).moment(1.0).value == pytest.approx(1.0, rel=1e-12)

    def test_uniform_second_moment(self):
        # oracle: int_0^2 x^2/2 dx = 4/3
        assert Uniform(0.0, 2.0).moment(2.0).value == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_pareto_divergence_flag(self):
        rep = ShiftedPareto(2.5, 1.0).moment(3.0)
        assert rep.value == math.inf

    @pytest.mark.parametrize("order", [1.0, 1.7, 2.0, 3.0])
    def test_closed_forms_match_quadrature(self, dist, order):
        rep = dist.moment(order)
        if math.isinf(rep.value):
            assert dist.kind == "shifted-pareto" and order >= dist.tail
            return
        hi = min(dist.support_end(), np.inf)
        val, _ = integrate.quad(lambda x: x**order * dist.density(x), 0.0, hi, limit=300)
        assert rep.value == pytest.approx(val, rel=1e-7)

    def test_jensen_lower_bound(self, dist):
        mean = dist.moment(1.0).value
        for s in [1.5, 2.0, 3.0]:
            rep = dist.moment(s)
            if math.isfinite(rep.value):
                assert rep.value >= mean**s * (1.0 - 1e-12)


class TestSampling:
    def test_exponential_quantile_median(self):
        assert Exponential(1.0).quantile(0.5) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_uniform_quantile(self):
        assert Uniform(2.0, 4.0).quantile(0.25) == pytest.approx(2.5, rel=1e-14)

    def test_sampling_deterministic_given_seed(self, dist):
        a = dist.sample(np.random.default_rng(7), 32)
        b = dist.sample(np.random.default_rng(7), 32)
        assert np.array_equal(a, b)

    def test_samples_positive(self, dist, rng):
        x = dist.sample(rng, 4000)
        assert np.all(x > 0.0)

    def test_empirical_cdf_ks(self, dist, rng):
        n = 100_000
        x = dist.sample(rng, n)
        res = stats.kstest(x, lambda v: np.asarray(dist.cdf(v)))
        assert res.statistic < 1.36 / math.sqrt(n)

    @pytest.mark.parametrize("seed", [3, 17, 20260809])
    @pytest.mark.parametrize("size", [0, 1, 13, (3, 5), 338_619])
    def test_lomax_draw_follows_numpy_pareto(self, seed, size):
        # the array-pass draw uses numpy's random_pareto formula expm1(E / tail),
        # so it consumes the stream exactly as rng.pareto does; the values match
        # only to rounding, because the vectorized np.expm1 loop (SIMD, where
        # the CPU has it) need not round as the scalar C expm1 does
        d = ShiftedPareto(3.5, 0.09)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = d._interarrival_draw(a, size)
        ref = b.pareto(d.tail, size) * d.scale
        assert a.bit_generator.state == b.bit_generator.state
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def _stationary_delay_bisect(dist, rng, size=None):
    """Stationary delay draws by bisecting its CDF to 1e-10: the oracle for
    the closed-form ``sample_stationary_delay``.

    Bisection (rather than Newton) is unconditionally safe even where the
    survival function is flat.
    """
    u = np.atleast_1d(rng.random(size))
    hi0 = min(dist.support_end(), max(1.0, 2.0 * dist.mean()))
    for _ in range(200):
        if dist.stationary_delay_cdf(hi0) >= float(np.max(u)) or hi0 >= dist.support_end():
            break
        hi0 *= 2.0
    lo = np.zeros_like(u)
    hi = np.full_like(u, hi0)
    while float(np.max(hi - lo)) > 1e-10:
        mid = 0.5 * (lo + hi)
        below = np.asarray(dist.stationary_delay_cdf(mid)) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if size is None else out


class TestStationaryDelay:
    def test_exponential_is_fixed_point(self):
        d = Exponential(0.7)
        xs = np.linspace(0.0, 10.0, 101)
        assert np.max(np.abs(np.asarray(d.stationary_delay_density(xs)) - np.asarray(d.density(xs)))) < 1e-14

    def test_uniform_density_at_zero(self):
        # mean 1, so the stationary density starts at m * (1 - F(0)) = 1
        assert Uniform(0.0, 2.0).stationary_delay_density(0.0) == pytest.approx(1.0, rel=1e-12)

    def test_density_integrates_to_one(self, dist):
        # fine grid covering all but 1e-8 of the stationary mass, plus analytic tail
        x_hi = min(dist.support_end(), 400.0 * dist.mean())
        val, _ = integrate.quad(dist.stationary_delay_density, 0.0, x_hi, limit=400)
        tail = 1.0 - dist.stationary_delay_cdf(x_hi)
        assert val + tail == pytest.approx(1.0, abs=1e-6)

    def test_cdf_matches_quadrature(self, dist):
        for x in [0.5 * dist.mean(), 2.0 * dist.mean(), 5.0 * dist.mean()]:
            x = min(x, dist.support_end())
            val, _ = integrate.quad(dist.stationary_delay_density, 0.0, x, limit=300)
            assert dist.stationary_delay_cdf(x) == pytest.approx(val, abs=1e-9)

    def test_uniform_inverse_left_endpoint(self):
        # u -> 0 inverts to the left endpoint of the stationary law
        d = Uniform(0.0, 2.0)

        class ZeroRng:
            def random(self, size=None):
                return 0.0

        assert d.sample_stationary_delay(ZeroRng()) == pytest.approx(0.0, abs=1e-9)

    def test_exponential_stationary_draw_matches_interarrival_law(self, rng):
        d = Exponential(1.0)
        n = 20_000
        draws = d.sample_stationary_delay(rng, n)
        res = stats.kstest(draws, lambda v: np.asarray(d.cdf(v)))
        assert res.statistic < 1.36 / math.sqrt(n)

    def test_uniform_stationary_mean(self, rng):
        # oracle: E[tau^2] / (2 E[tau]) = (4/3) / 2 = 2/3 by quadrature
        d = Uniform(0.0, 2.0)
        n = 100_000
        draws = d.sample_stationary_delay(rng, n)
        se = draws.std() / math.sqrt(n)
        assert abs(draws.mean() - 2.0 / 3.0) < 3.0 * se

    def test_bisection_inverts_to_tolerance(self, dist):
        class FixedRng:
            def __init__(self, u):
                self.u = u

            def random(self, size=None):
                return self.u

        for u in [0.05, 0.31, 0.5, 0.77, 0.99]:
            x = _stationary_delay_bisect(dist, FixedRng(u))
            # x is within the 1e-10 bisection bracket of the true quantile
            assert dist.stationary_delay_cdf(x + 1e-9) >= u - 1e-7
            assert dist.stationary_delay_cdf(max(x - 1e-9, 0.0)) <= u + 1e-7

    def test_closed_form_draw_matches_stationary_cdf(self, dist):
        n = 200_000
        rng = np.random.default_rng(20260809)
        assert type(dist.sample_stationary_delay(rng)) is float
        draws = dist.sample_stationary_delay(rng, n)
        assert draws.shape == (n,)
        res = stats.kstest(draws, lambda v: np.asarray(dist.stationary_delay_cdf(v)))
        # 1% level of the KS statistic
        assert res.statistic < 1.63 / math.sqrt(n)

    def test_all_kinds_listed(self):
        assert {d.kind for d in ALL_KINDS} == {"exponential", "gamma", "uniform", "shifted-pareto"}


_LAW_METHODS = (
    "density",
    "cdf",
    "quantile",
    "cumulative_hazard",
    "stationary_delay_density",
    "stationary_delay_cdf",
)
# inside [0, 1) for quantile and below every support end for the cumulative hazard
_CONTRACT_POINTS = np.linspace(0.05, 0.9, 6)


class TestLawContract:
    @pytest.mark.parametrize("method", _LAW_METHODS)
    def test_float_in_gives_float_out(self, dist, method):
        assert type(getattr(dist, method)(0.3)) is float

    @pytest.mark.parametrize("shape", [(0,), (1,), (3, 2)])
    @pytest.mark.parametrize("method", _LAW_METHODS)
    def test_arrays_keep_shape_and_scalar_values(self, dist, method, shape):
        fn = getattr(dist, method)
        xs = _CONTRACT_POINTS[: math.prod(shape)].reshape(shape)
        out = fn(xs)
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert all(out[i] == fn(float(xs[i])) for i in np.ndindex(shape))

    def test_config_keys_in_field_order(self, dist):
        assert list(dist.to_config()) == ["kind", *dist.config_fields]

    def test_check_labels(self):
        # check names in reports are built from these
        from renewal_lab.acceptance import _label

        assert [_label(d) for d in ALL_KINDS] == [
            "exponential(1)",
            "gamma(2,1)",
            "uniform(0,2)",
            "shifted-pareto(3.5,1)",
        ]

    def test_unhashable_kind_is_config_error(self):
        with pytest.raises(ConfigError, match="distribution.kind"):
            distribution_from_config({"kind": ["gamma"]})
