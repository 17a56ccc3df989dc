import numpy as np
import pytest

from renewal_lab import DecayCurve, Exponential, Gamma, Grid, fit_slope, krt_error_curve, tv_decay_curve
from renewal_lab.asymptotics import limit_integral
from renewal_lab.errors import HorizonExceededError, InsufficientPointsError
from renewal_lab.renewal import renewal_measure


class TestFitSlope:
    def test_exact_power_law_recovered(self):
        xs = np.geomspace(1.0, 100.0, 12)
        curve = DecayCurve(xs, xs**-2.0)
        fit = fit_slope(curve, (1.0, 100.0))
        assert fit.slope == pytest.approx(-2.0, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_power_law(self):
        xs = np.geomspace(5.0, 200.0, 25)
        curve = DecayCurve(xs, 3.0 * xs**-1.5 * (1.0 + 0.01 * np.sin(xs)))
        fit = fit_slope(curve, (5.0, 200.0))
        assert -1.6 < fit.slope < -1.4

    def test_floor_exclusion_reported(self):
        xs = np.geomspace(1.0, 100.0, 10)
        errs = xs**-1.0
        curve = DecayCurve(xs, errs)
        floor = errs[-3] + 1e-12
        fit = fit_slope(curve, (1.0, 100.0), floor=floor)
        # the three points at or below the floor are left out of the fit
        assert int(np.sum(curve.errs <= floor)) == 3
        assert fit.n_points == 7
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)
        # too few points left: the error counts the excluded ones
        with pytest.raises(InsufficientPointsError, match=r"4 usable points .* \(6 below the floor"):
            fit_slope(curve, (1.0, 100.0), floor=errs[4] + 1e-12)

    def test_all_points_below_floor_is_an_error(self):
        xs = np.geomspace(1.0, 100.0, 10)
        curve = DecayCurve(xs, xs**-2.0)
        with pytest.raises(InsufficientPointsError):
            fit_slope(curve, (1.0, 100.0), floor=1.0)

    def test_window_filtering(self):
        xs = np.geomspace(1.0, 100.0, 30)
        curve = DecayCurve(xs, xs**-2.0)
        fit = fit_slope(curve, (5.0, 50.0))
        inside = (xs >= 5.0) & (xs <= 50.0)
        assert fit.n_points == int(np.sum(inside))
        # the points outside the window do not move the fit
        assert fit_slope(DecayCurve(xs, np.where(inside, xs**-2.0, 1.0)), (5.0, 50.0)) == fit

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            DecayCurve(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            DecayCurve(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            DecayCurve(np.array([-1.0, 2.0]), np.array([1.0, 1.0]))


class TestLimitIntegral:
    def test_power_family_values(self):
        # closed forms: int (1+y)^-2 = 1, int (1+y)^-4 = 1/3
        z2 = lambda y: (1.0 + np.asarray(y)) ** -2.0
        z4 = lambda y: (1.0 + np.asarray(y)) ** -4.0
        assert limit_integral(z2, 2.0, 50.0) == pytest.approx(1.0, rel=1e-9)
        assert limit_integral(z4, 4.0, 50.0) == pytest.approx(1.0 / 3.0, rel=1e-9)


class TestKrtCurve:
    def test_exponential_z2_closed_form(self):
        # Poisson renewal measure: err(x) = |z(x) - int_x^inf z| exactly
        d = Exponential(1.0)
        grid = Grid(1.0 / 400.0, 400 * 60)
        phi = renewal_measure(d, grid)
        z2 = lambda y: (1.0 + np.asarray(y)) ** -2.0
        xs = np.array([10.0, 20.0, 40.0])
        curve = krt_error_curve(d, z2, 2.0, xs, grid=grid, phi=phi)
        exact = np.abs(z2(xs) - 1.0 / (1.0 + xs))
        assert np.max(np.abs(curve.errs - exact)) < 5e-5

    def test_exponential_z2_slope_near_minus_one(self):
        d = Exponential(1.0)
        grid = Grid(1.0 / 400.0, 400 * 86)
        phi = renewal_measure(d, grid)
        z2 = lambda y: (1.0 + np.asarray(y)) ** -2.0
        xs = np.geomspace(20.0, 80.0, 16)
        curve = krt_error_curve(d, z2, 2.0, xs, grid=grid, phi=phi)
        fit = fit_slope(curve, (20.0, 80.0), floor=1e-5)
        assert -1.1 < fit.slope < -0.7

    def test_point_beyond_horizon_raises(self):
        # a point past Phi's horizon is an error, not a read at the last node
        d = Gamma(2.0, 1.0)
        phi = renewal_measure(d, Grid(d.mean() / 100.0, 100 * 20))
        z2 = lambda y: (1.0 + np.asarray(y)) ** -2.0
        with pytest.raises(HorizonExceededError, match="outside"):
            krt_error_curve(d, z2, 2.0, [10.0, 1e6], phi=phi)

    def test_linear_forcing_error_is_solver_limited(self):
        # with the linear-solution forcing the limit is never approached; the
        # solver error stays at the discretization scale instead of decaying
        from renewal_lab.renewal import linear_forcing, solve_renewal_equation

        d = Gamma(2.0, 1.0)
        grid = Grid(d.mean() / 200.0, 200 * 40)
        sol = solve_renewal_equation(d, linear_forcing(d, grid))
        err = np.abs(sol.Z.values - d.rate() * grid.nodes())
        assert np.max(err) < 100.0 * 10.0 * grid.step**2


class TestTvCurve:
    def test_exponential_curve_sits_at_the_floor(self):
        d = Exponential(1.0)
        grid = Grid(1.0 / 200.0, 200 * 40)
        phi = renewal_measure(d, grid)
        curve = tv_decay_curve(d, [2.0, 8.0, 20.0], phi=phi)
        assert np.max(curve.errs) < 1e-4

    def test_gamma_weighted_decay_in_resolvable_range(self):
        # t^2-weighted distance decreases while the signal clears the floor
        d = Gamma(2.0, 1.0)
        grid = Grid(d.mean() / 200.0, 200 * 30)
        phi = renewal_measure(d, grid)
        ts = np.array([2.0, 3.5, 5.0])
        curve = tv_decay_curve(d, ts, phi=phi)
        weighted = ts**2 * curve.errs
        assert weighted[0] > weighted[1] > weighted[2]

    def test_curves_end_below_their_first_point(self):
        # sanity trend, not strict monotonicity
        d = Exponential(1.0)
        grid = Grid(1.0 / 200.0, 200 * 86)
        phi = renewal_measure(d, grid)
        z2 = lambda y: (1.0 + np.asarray(y)) ** -2.0
        xs = np.geomspace(20.0, 80.0, 10)
        krt = krt_error_curve(d, z2, 2.0, xs, grid=grid, phi=phi)
        assert krt.errs[-1] < krt.errs[0]
        g = Gamma(2.0, 1.0)
        grid_g = Grid(g.mean() / 200.0, 200 * 30)
        tv = tv_decay_curve(g, [2.0, 4.0, 8.0, 16.0], phi=renewal_measure(g, grid_g))
        assert tv.errs[-1] < tv.errs[0]
