import math

import numpy as np
import pytest

from renewal_lab import (
    Exponential,
    Gamma,
    Grid,
    GridMeasure,
    ShiftedPareto,
    Uniform,
    default_grid,
    find_uniform_component,
    phi2_tail,
    stone_decompose,
)
from renewal_lab import stone
from renewal_lab.errors import IntervalError, NegativeComponentError, NoComponentFoundError
from renewal_lab.grids import _plateau, measure_from_distribution
from renewal_lab.stone import _scan_windows


def _scan_windows_loop(density, grid, scale, k):
    """Oracle: ``stone._scan_windows`` as one window at a time, in its order."""
    best = None
    for b_rel in stone._B_LATTICE:
        b = b_rel * scale
        for j in range((40 << k) + 1):
            a = (0.1 * j) * scale
            if a + b >= grid.horizon:
                continue
            ia, ib = grid.index_of(a), grid.index_of(a + b)
            if ib <= ia:
                continue
            level = float(np.min(density[ia : ib + 1]))
            mass = stone._SAFETY * ((ib - ia) * grid.step) * level
            if mass > 0.0 and (best is None or mass > best[2]):
                best = (ia * grid.step, (ib - ia) * grid.step, mass)
    return best


def grid_for(dist, horizon_means=60.0, points_per_mean=200):
    return Grid(dist.mean() / points_per_mean, int(points_per_mean * horizon_means))


class TestFindComponent:
    def test_first_power_suffices(self, dist):
        comp = find_uniform_component(dist, grid_for(dist, 30.0))
        assert comp.n0 == 1
        assert comp.mass >= 0.05
        assert comp.b > 0.0 and comp.a >= 0.0

    def test_component_sits_below_the_density(self, dist):
        grid = grid_for(dist, 30.0)
        comp = find_uniform_component(dist, grid)
        kernel = measure_from_distribution(dist, grid)
        ia, ib = grid.index_of(comp.a), grid.index_of(comp.a + comp.b)
        assert comp.level <= float(np.min(kernel.density[ia : ib + 1])) + 1e-12

    def test_exponential_window_matches_density_scan(self):
        # the best unit-length window of e^-x starts at 0: mass 0.9 * e^-1
        d = Exponential(1.0)
        comp = find_uniform_component(d, grid_for(d, 30.0))
        assert comp.a == pytest.approx(0.0)
        assert comp.b == pytest.approx(1.0)
        assert comp.mass == pytest.approx(0.9 * math.exp(-1.0), rel=1e-3)

    def test_uniform_window_inside_support(self):
        # flat density 1 on (1, 2); any returned window must fit in it
        d = Uniform(1.0, 2.0)
        comp = find_uniform_component(d, grid_for(d, 30.0))
        assert comp.a >= 1.0 - 1e-9
        assert comp.a + comp.b <= 2.0 + 1e-9
        assert comp.mass >= 0.9 * 0.5  # at least as good as a central half-window

    def test_gamma_has_first_power_component(self):
        comp = find_uniform_component(Gamma(2.0, 1.0), grid_for(Gamma(2.0, 1.0), 30.0))
        assert comp.n0 == 1 and comp.mass > 0.3

    def test_no_component_on_degenerate_density(self):
        grid = Grid(0.01, 1000)
        for k in range(3):
            assert _scan_windows(np.zeros(grid.n_nodes), grid, 1.0 / 2**k, k) is None

    @pytest.mark.parametrize(
        "dist, window",
        [
            (Exponential(1.0), (0.0, 1.0, 0.3310908072820703)),
            (Gamma(2.0, 1.0), (0.4, 2.0, 0.3919048240674665)),
            (Uniform(0.0, 2.0), (0.0, 1.0, 0.45)),
            (ShiftedPareto(3.5, 1.0), (0.0, 0.2, 0.2773464824826562)),
        ],
        ids=["exponential", "gamma", "uniform", "shifted-pareto"],
    )
    def test_default_kinds_keep_the_mean_scale_window(self, dist, window):
        # the first scale is the mean: the four kinds' windows, float for float
        c = find_uniform_component(dist, default_grid(dist))
        assert (c.n0, c.a, c.b, c.mass) == (1, *window)

    def test_window_under_two_grid_steps_raises(self, monkeypatch):
        # a kernel with no positive window: the scan halves its scale until
        # the shortest window would be under one grid step, then names it
        d = Uniform(1.0, 1.01)
        grid = default_grid(d)
        monkeypatch.setattr(stone, "measure_from_distribution", lambda dist, g: GridMeasure(g, 0.0, np.zeros(g.n_nodes)))
        with pytest.raises(NoComponentFoundError, match=f"grid step {grid.step:g}"):
            find_uniform_component(d, grid)

    def test_grid_density_mass_is_exact(self, dist):
        grid = grid_for(dist, 30.0)
        comp = find_uniform_component(dist, grid)
        g0 = _plateau(grid, comp.a, comp.a + comp.b, comp.level)
        assert float(np.trapezoid(g0, dx=grid.step)) == pytest.approx(comp.mass, abs=1e-12)

    @pytest.mark.parametrize(
        "d",
        [Exponential(1.0), Gamma(2.0, 1.0), Uniform(0.0, 2.0), ShiftedPareto(3.5, 1.0), Gamma(2000.0, 2000.0)]
        + [Uniform(1.0, hi) for hi in (1.2, 1.05, 1.02, 1.01)],
        ids=["exponential", "gamma", "uniform", "shifted-pareto", "gamma-2000"]
        + [f"uniform-{hi}" for hi in (1.2, 1.05, 1.02, 1.01)],
    )
    def test_scan_matches_window_loop(self, d):
        # every scale down to the grid step, not only the scales the scan stops at
        grid = default_grid(d)
        density = measure_from_distribution(d, grid).density
        scale, k = d.mean(), 0
        while 0.25 * scale >= grid.step:
            assert _scan_windows(density, grid, scale, k) == _scan_windows_loop(density, grid, scale, k)
            scale, k = 0.5 * scale, k + 1
        assert k >= 5


class TestDecomposition:
    def test_reconstruction_is_exact(self, dist):
        grid = grid_for(dist)
        dec = stone_decompose(dist, grid)
        recon = dec.phi1.values + dec.phi2.density
        scale = np.max(np.abs(dec.phi.density))
        assert np.max(np.abs(recon - dec.phi.density)) / scale < 1e-6
        assert dec.phi2.atom0 == dec.phi.atom0  # the atom lives in the bounded part

    def test_bounded_part_mass_identity(self):
        # closed form: total mass of the bounded part is 1 / component mass.
        # kinds with a density jump at 0 (exponential) carry an O(h^2) corner
        # defect in the discrete mass algebra; the others are exact up to the
        # geometric-series truncation beyond the horizon
        for dist, tol in [(Gamma(2.0, 1.0), 1e-9), (Uniform(0.0, 2.0), 1e-7), (Exponential(1.0), 1e-5)]:
            dec = stone_decompose(dist, grid_for(dist))
            c = dec.component
            assert dec.phi2.total_mass() == pytest.approx(1.0 / c.mass, rel=tol)

    def test_remainder_mass_complements_component(self):
        # mass(H) = in-horizon mass of F minus the component mass, exactly
        for dist in [Exponential(1.0), Gamma(2.0, 1.0), Uniform(0.0, 2.0)]:
            grid = grid_for(dist)
            dec = stone_decompose(dist, grid)
            kernel = measure_from_distribution(dist, grid)
            h_mass = kernel.total_mass() - dec.component.mass
            # these kinds put all but ~1e-30 of their mass inside the horizon
            assert h_mass == pytest.approx(1.0 - dec.component.mass, abs=1e-8)
            tol = 1e-5 if dist.kind == "exponential" else 1e-7
            assert dec.phi2.total_mass() == pytest.approx(1.0 / dec.component.mass, rel=tol)

    @pytest.mark.parametrize(
        "d, horizon_means",
        [
            (Uniform(1.0, 1.2), 20.0),
            (Uniform(1.0, 1.1), 20.0),
            (Uniform(1.0, 1.05), 20.0),
            (Uniform(1.0, 1.01), 20.0),
            (Gamma(2000.0, 2000.0), 100.0),
        ],
        ids=["uniform-1.2", "uniform-1.1", "uniform-1.05", "uniform-1.01", "gamma-2000"],
    )
    def test_narrow_law_component_in_the_law_itself(self, d, horizon_means):
        # narrower than the mean-scaled windows: the scan refines its scale
        # until a window fits, so the component sits in F and Phi2 = Phi0^(2).
        # The uniforms' remainders are light, so their mass gap is at rounding
        # by 100 means; 20 means keeps it measurable
        dec = stone_decompose(d, default_grid(d, horizon_means))
        c = dec.component
        assert c.n0 == 1
        recon = dec.phi1.values + dec.phi2.density - dec.phi.density
        assert np.max(np.abs(recon)) / np.max(np.abs(dec.phi.density)) <= 1e-12
        assert dec.phi1_crosscheck_dev <= 1e-12
        # the mass identity misses only the mass of Phi2 beyond the horizon,
        # which decays geometrically, so doubling the horizon shrinks the gap >= 1000x
        far = stone_decompose(d, default_grid(d, 2.0 * horizon_means))
        assert far.component == c
        gaps = [abs(x.phi2.total_mass() - 1.0 / c.mass) for x in (dec, far)]
        assert gaps[1] <= 1e-3 * gaps[0]

    def test_density_converges_to_rate(self, dist):
        grid = grid_for(dist, horizon_means=100.0)
        dec = stone_decompose(dist, grid)
        m = dist.rate()
        tail = dec.phi1.values[grid.index_of(50.0 * dist.mean()) :]
        assert np.max(np.abs(tail - m)) <= 0.02 * m

    def test_crosscheck_against_convolution_form(self, dist):
        dec = stone_decompose(dist, grid_for(dist))
        assert dec.phi1_crosscheck_dev <= 1e-4

    def test_density_is_bounded_by_window_estimate(self, dist):
        # sup phi1 <= level * Phi([0, b]) * mass(Phi2) plus slack
        grid = grid_for(dist)
        dec = stone_decompose(dist, grid)
        c = dec.component
        bound = c.level * dec.phi.interval_mass(-1.0, c.b) * dec.phi2.total_mass()
        assert float(np.max(dec.phi1.values)) <= bound * (1.0 + 1e-6) + 1e-9

    def test_inconsistent_component_rejected(self, monkeypatch):
        d = Gamma(2.0, 1.0)
        grid = grid_for(d, 30.0)
        # a window whose level (0.75) sits above the density
        monkeypatch.setattr(stone, "_scan_windows", lambda density, grid, scale, k: (0.4, 2.0, 1.5))
        with pytest.raises(NegativeComponentError):
            stone_decompose(d, grid)


class TestPhi2Tail:
    def test_full_mass_at_zero(self, dist):
        dec = stone_decompose(dist, grid_for(dist))
        assert phi2_tail(dec, 0.0) >= dec.phi2.total_mass()

    def test_beyond_horizon_only_truncation_bound(self, dist):
        dec = stone_decompose(dist, grid_for(dist))
        assert phi2_tail(dec, dec.phi2.grid.horizon + 1.0) == dec.truncation_bound

    def test_nan_point_raises(self):
        # a NaN x read NaN through the interpolation
        d = Gamma(2.0, 1.0)
        dec = stone_decompose(d, grid_for(d, 30.0))
        with pytest.raises(IntervalError, match="x = nan"):
            phi2_tail(dec, math.nan)

    def test_monotone_nonincreasing(self, dist):
        dec = stone_decompose(dist, grid_for(dist))
        xs = np.linspace(0.0, dec.phi2.grid.horizon, 50)
        tails = [phi2_tail(dec, x) for x in xs]
        assert np.all(np.diff(tails) <= 1e-12)

    def test_gamma_tail_decays_faster_than_cubic(self):
        # log-log fit oracle over doubling points
        d = Gamma(2.0, 1.0)
        dec = stone_decompose(d, grid_for(d))
        xs = np.array([10.0, 20.0, 40.0])
        tails = np.array([phi2_tail(dec, x) for x in xs])
        slope = np.polyfit(np.log(xs), np.log(tails), 1)[0]
        assert slope < -3.0
