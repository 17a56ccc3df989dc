
import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import trapezoid_weights_oracle
from renewal_lab import (
    CouplingParams,
    Exponential,
    Gamma,
    Grid,
    GridFunction,
    GridMeasure,
    ShiftedPareto,
    Uniform,
    convolve_measure_function,
    convolve_measures,
    find_common_component,
    forward_recurrence_cdf,
    forward_recurrence_density,
    krt_error_curve,
    linear_forcing,
    measure_from_distribution,
    renewal_measure,
    simulate_coupling,
    solve_renewal_equation,
    tv_decay_curve,
    tv_to_stationary,
)
from renewal_lab.compensator import sample_forward_recurrence
from renewal_lab.errors import (
    HorizonExceededError,
    IncompatibleGridsError,
    RenewalLabError,
    SingularBlockError,
    StepTooCoarseError,
)
from renewal_lab.grids import _direct_is_cheaper
from renewal_lab.renewal import (
    _solve_block,
    default_grid,
    default_recurrence_grid,
    recurrence_density_at,
    volterra_renewal_density,
)


def small_grid(dist, horizon_means=30.0, points_per_mean=100):
    return Grid(dist.mean() / points_per_mean, int(points_per_mean * horizon_means))


def _volterra_direct(kernel, rhs, grid):
    """Per-node forward substitution, O(n^2): the oracle for the fast solver."""
    h = grid.step
    n = grid.count
    diag = 1.0 - 0.5 * h * kernel[0]
    x = np.empty(n + 1)
    x[0] = rhs[0]
    krev = kernel[::-1]
    for k in range(1, n + 1):
        s = 0.5 * kernel[k] * x[0]
        if k >= 2:
            s += np.dot(krev[n - k + 1 : n], x[1:k])
        x[k] = (rhs[k] + h * s) / diag
    return x


class TestVolterraSolver:
    # 4097 and 8193 end on a stretch product that keeps 1 output; 6000 has
    # one that keeps 1904 of 4096, by FFT at the 5-smooth length 6000
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 255, 256, 257, 500, 511, 513, 1025, 3000, 4097, 6000, 8193])
    @pytest.mark.parametrize("forcing", ["kernel", "linear"])
    def test_matches_direct_substitution(self, dist, n, forcing):
        grid = Grid(dist.mean() / 200.0, n)
        kernel = measure_from_distribution(dist, grid).density
        rhs = kernel if forcing == "kernel" else linear_forcing(dist, grid).values
        fast = volterra_renewal_density(kernel, rhs, grid)
        direct = _volterra_direct(kernel, rhs, grid)
        assert fast.shape == direct.shape
        assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_repeat_calls_are_identical(self, dist):
        grid = Grid(dist.mean() / 200.0, 3000)
        kernel = measure_from_distribution(dist, grid).density
        rhs = linear_forcing(dist, grid).values
        assert np.array_equal(
            volterra_renewal_density(kernel, rhs, grid), volterra_renewal_density(kernel, rhs, grid)
        )

    def test_singular_block_is_typed_error(self):
        upper = np.asfortranarray(np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(SingularBlockError, match="info = 2") as err:
            _solve_block(upper, np.ones(3))
        assert isinstance(err.value, RenewalLabError)

    def test_same_bytes_under_one_and_two_blas_threads(self):
        # gamma(2,1) on criterion 8's coarser grid for z = (1 + y)^-2: 34,400 nodes
        code = (
            "import hashlib; from renewal_lab import Gamma, Grid, renewal_measure; "
            "phi = renewal_measure(Gamma(2.0, 1.0), Grid(2.0 / 400, 400 * 86)); "
            "print(hashlib.sha256(phi.density.tobytes()).hexdigest())"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            digests.add(run.stdout.strip())
        phi = renewal_measure(Gamma(2.0, 1.0), Grid(2.0 / 400, 400 * 86))
        assert digests == {hashlib.sha256(phi.density.tobytes()).hexdigest()}


def _recurrence_direct(dist, t, x_grid, phi, route):
    """Recurrence-law read from the full np.convolve of the written-out
    trapezoid weights, Phi's atom in the first, sliced at [kt, kt + X]: the
    oracle for the middle product."""
    kt = phi.grid.index_of(t)
    w = trapezoid_weights_oracle(phi, kt)
    g = dist.cdf if route == "cdf" else dist.density
    nodes = np.asarray(g(phi.grid.step * np.arange(kt + x_grid.count + 1)), dtype=float)
    conv = np.convolve(w, nodes)[kt : kt + x_grid.count + 1]
    if route == "density":
        return np.maximum(conv, 0.0)
    return np.maximum.accumulate(np.clip(conv - conv[0], 0.0, 1.0))


def _assert_read_matches_direct(dist, t, x_grid, phi, route):
    """The read against ``_recurrence_direct``: bit for bit where the middle
    product is summed directly, within 1e-12 of the largest value by FFT.
    Returns whether the read was direct."""
    fast = _READS[route](dist, t, x_grid, phi=phi).values
    direct = _recurrence_direct(dist, t, x_grid, phi, route)
    assert fast.shape == direct.shape
    is_direct = TestRecurrenceMiddleProduct.is_direct(phi.grid.index_of(t), x_grid)
    if is_direct:
        np.testing.assert_array_equal(fast, direct)
    else:
        assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))
    return is_direct


_READS = {"cdf": forward_recurrence_cdf, "density": forward_recurrence_density}


@functools.cache
def _default_phi(dist):
    return renewal_measure(dist, default_grid(dist))


class TestRecurrenceMiddleProduct:
    """Reads at t = 0, one step, and 1, 10 and 80 means on the default grid.
    With the default x-grid every kind takes the FFT branch at 10 means;
    with 40 x-nodes every read stays direct."""

    @pytest.fixture
    def phi(self, dist):
        return _default_phi(dist)

    @staticmethod
    def x_grid(dist, phi, size):
        if size == "default":
            return default_recurrence_grid(dist, phi.grid.step)
        return Grid(phi.grid.step, 40)

    @pytest.mark.parametrize("size", ["default", "small"])
    @pytest.mark.parametrize("route", ["cdf", "density"])
    @pytest.mark.parametrize("t_means", [0.0, "step", 1.0, 10.0, 80.0])
    def test_matches_full_convolution(self, dist, phi, size, route, t_means):
        t = phi.grid.step if t_means == "step" else t_means * dist.mean()
        _assert_read_matches_direct(dist, t, self.x_grid(dist, phi, size), phi, route)

    @staticmethod
    def is_direct(kt, x_grid):
        return _direct_is_cheaper(kt + 1, x_grid.count + 1, 1 << (kt + x_grid.count).bit_length())

    def test_both_branches_run(self, dist, phi):
        x_grid = self.x_grid(dist, phi, "default")
        assert self.is_direct(0, x_grid)
        assert not self.is_direct(phi.grid.index_of(10.0 * dist.mean()), x_grid)

    @pytest.mark.parametrize("route", ["cdf", "density"])
    def test_wide_shallow_read_is_summed_directly(self, route):
        # 201 weights against shifted-pareto's 25399 x-nodes: the direct sum
        # beats a 32768-point FFT, so the read equals the oracle bit for bit
        d = ShiftedPareto(3.5, 1.0)
        phi = _default_phi(d)
        x_grid = default_recurrence_grid(d, phi.grid.step)
        t = 200 * phi.grid.step
        fast = _READS[route](d, t, x_grid, phi=phi).values
        np.testing.assert_array_equal(fast, _recurrence_direct(d, t, x_grid, phi, route))

    @pytest.mark.parametrize("route", ["cdf", "density"])
    def test_repeat_calls_are_identical(self, dist, phi, route):
        x_grid = self.x_grid(dist, phi, "default")
        t = 10.0 * dist.mean()
        first = _READS[route](dist, t, x_grid, phi=phi).values
        assert np.array_equal(first, _READS[route](dist, t, x_grid, phi=phi).values)


def _recurrence_density_at_direct(dist, t, x, phi):
    """Scalar density of B_t at an off-grid x, Phi's atom times f(t + x) plus
    one dot with the trapezoid weights of Phi's density: the oracle for the
    fused read."""
    h = phi.grid.step
    kt = phi.grid.index_of(t)
    w = phi.density[: kt + 1] * h
    if kt >= 1:
        w[0] *= 0.5
        w[-1] *= 0.5
    else:
        w[:] = 0.0
    t_snap = kt * h
    base = phi.atom0 * float(dist.density(t_snap + x))
    if kt == 0:
        return base
    return base + float(np.dot(w, np.asarray(dist.density(t_snap + x - h * np.arange(kt + 1)), dtype=float)))


def _recurrence_density_at_shared_slices(dist, ts, xs, phi):
    """The fused read with every row's trapezoid weights sliced from one
    ``density * h`` up to the largest snapped node, the atom folded into a
    shared first weight: the bit-for-bit oracle of the per-row weights."""
    h = phi.grid.step
    kts = [phi.grid.index_of(t) for t in ts.tolist()]
    lattices = [kt * h + x - h * np.arange(kt + 1) for kt, x in zip(kts, xs.tolist())]
    values = np.asarray(dist.density(np.concatenate(lattices)), dtype=float)
    weights = phi.density[: max(kts) + 1] * h
    first = 0.5 * weights[0] + phi.atom0
    out = np.empty(len(kts))
    start = 0
    for row, kt in enumerate(kts):
        if kt >= 1:
            w = weights[: kt + 1].copy()
            w[0] = first
            w[-1] *= 0.5
        else:
            w = np.array([phi.atom0])
        out[row] = np.dot(w, values[start : start + kt + 1])
        start += kt + 1
    return out


class TestRecurrenceDensityAt:
    """Pointwise reads at t = 0, one step and off-node times up to
    0.5 + 20 means (the probe chain's burn-in lattice), x inside (0, mean)."""

    T_MEANS = (0.0, "step", 0.37, 3.1416, 11.27, 20.5)
    X_MEANS = (0.013, 0.41, 0.97)

    @pytest.fixture
    def phi(self, dist):
        return _default_phi(dist)

    def points(self, dist, phi):
        h = phi.grid.step
        ts = [h if m == "step" else m * dist.mean() + (0.37 * h if m else 0.0) for m in self.T_MEANS]
        return [(t, xm * dist.mean()) for t in ts for xm in self.X_MEANS]

    def test_one_row_matches_direct(self, dist, phi):
        for t, x in self.points(dist, phi):
            (fast,) = recurrence_density_at(dist, np.array([t]), np.array([x]), phi=phi)
            direct = _recurrence_density_at_direct(dist, t, x, phi)
            assert abs(fast - direct) <= 1e-12 * abs(direct)

    def test_array_matches_direct_and_one_row_calls(self, dist, phi):
        ts, xs = map(np.array, zip(*self.points(dist, phi)))
        fast = recurrence_density_at(dist, ts, xs, phi=phi)
        assert fast.shape == ts.shape
        direct = np.array([_recurrence_density_at_direct(dist, t, x, phi) for t, x in zip(ts, xs)])
        assert np.all(np.abs(fast - direct) <= 1e-12 * np.abs(direct))
        np.testing.assert_array_equal(
            fast, [recurrence_density_at(dist, ts[i : i + 1], xs[i : i + 1], phi=phi)[0] for i in range(len(ts))]
        )

    def test_bit_identical_to_shared_slices(self, dist, phi):
        ts, xs = map(np.array, zip(*self.points(dist, phi)))
        assert np.array_equal(recurrence_density_at(dist, ts, xs, phi=phi), _recurrence_density_at_shared_slices(dist, ts, xs, phi))
        # two-row reads as the probe chain makes them, one row often at t = 0
        rng = np.random.default_rng(3)
        for _ in range(50):
            t2 = rng.uniform(0.0, 21.0 * dist.mean(), 2) * rng.integers(0, 2, 2)
            x2 = rng.uniform(0.0, dist.mean(), 2)
            assert np.array_equal(recurrence_density_at(dist, t2, x2, phi=phi), _recurrence_density_at_shared_slices(dist, t2, x2, phi))
        # rows at nodes 0 and 1 and at the grid's last node, where the lattice
        # offsets and weights are sliced to the end of Phi's per-measure prefixes
        h, n = phi.grid.step, phi.grid.count
        ts = np.array([0.0, h, 1.3 * h, (n - 0.4) * h, phi.grid.horizon])
        assert [phi.grid.index_of(t) for t in ts] == [0, 1, 1, n, n]
        xs = np.array([0.41, 0.013, 0.97, 0.41, 0.013]) * dist.mean()
        for rows in [slice(None), *(slice(i, i + 1) for i in range(len(ts)))]:
            assert np.array_equal(
                recurrence_density_at(dist, ts[rows], xs[rows], phi=phi),
                _recurrence_density_at_shared_slices(dist, ts[rows], xs[rows], phi),
            )

    @pytest.mark.parametrize("rows", [0, 1])
    def test_short_arrays_stay_arrays(self, dist, phi, rows):
        out = recurrence_density_at(dist, np.full(rows, dist.mean()), np.full(rows, 0.5), phi=phi)
        assert isinstance(out, np.ndarray) and out.shape == (rows,)

    def test_rejects_mismatched_rows(self, dist, phi):
        with pytest.raises(ValueError, match="equal-length"):
            recurrence_density_at(dist, np.array([1.0, 2.0]), np.array([0.5]), phi=phi)
        with pytest.raises(ValueError, match="equal-length"):
            recurrence_density_at(dist, 1.0, 0.5, phi=phi)

    def test_rejects_x_below_zero(self, dist, phi):
        # the rows read the law's bare density formula, so x must lie in B_t's support
        with pytest.raises(ValueError, match="x = -0.5"):
            recurrence_density_at(dist, np.array([1.0, 2.0]), np.array([0.5, -0.5]), phi=phi)

    def test_horizon_exceeded(self, dist, phi):
        with pytest.raises(HorizonExceededError):
            recurrence_density_at(dist, np.array([1.0, 2.0 * phi.grid.horizon]), np.array([0.5, 0.5]), phi=phi)
        with pytest.raises(HorizonExceededError, match="t = nan"):
            recurrence_density_at(dist, np.array([1.0, np.nan]), np.array([0.5, 0.5]), phi=phi)


class TestMeasureWithGeneralAtom:
    """The reads of a measure whose atom is neither 0 nor 1, 0.375 at 0 plus
    0.625 times the renewal density, against their direct oracles."""

    @pytest.fixture
    def phi(self, dist):
        phi = _default_phi(dist)
        return GridMeasure(phi.grid, 0.375, 0.625 * phi.density)

    @pytest.mark.parametrize("route", ["cdf", "density"])
    def test_recurrence_reads_match_full_convolution(self, dist, phi, route):
        branches = set()
        for size in ("default", "small"):
            x_grid = TestRecurrenceMiddleProduct.x_grid(dist, phi, size)
            for t in (0.0, phi.grid.step, dist.mean(), 10.0 * dist.mean()):
                branches.add(_assert_read_matches_direct(dist, t, x_grid, phi, route))
        assert branches == {True, False}

    def test_density_at_matches_direct(self, dist, phi):
        ts, xs = map(np.array, zip(*TestRecurrenceDensityAt().points(dist, phi)))
        fast = recurrence_density_at(dist, ts, xs, phi=phi)
        direct = np.array([_recurrence_density_at_direct(dist, t, x, phi) for t, x in zip(ts, xs)])
        assert np.all(np.abs(fast - direct) <= 1e-12 * np.abs(direct))
        assert np.array_equal(fast, _recurrence_density_at_shared_slices(dist, ts, xs, phi))


class TestRenewalMeasure:
    def test_atom_is_one(self, dist):
        phi = renewal_measure(dist, small_grid(dist))
        assert phi.atom0 == 1.0
        assert phi.cumulative()[0] == 1.0

    def test_exponential_closed_form(self):
        # Poisson: renewal function 1 + t, renewal density identically 1
        d = Exponential(1.0)
        grid = small_grid(d)
        phi = renewal_measure(d, grid)
        assert np.max(np.abs(phi.cumulative() - (1.0 + grid.nodes()))) < 5.0 * grid.step
        assert np.max(np.abs(phi.density - 1.0)) < 1e-4

    def test_gamma_closed_form(self):
        # transform inversion: Phi([0,t]) = 1 + t/2 - (1 - e^{-2t})/4
        d = Gamma(2.0, 1.0)
        grid = small_grid(d)
        phi = renewal_measure(d, grid)
        closed = 1.0 + grid.nodes() / 2.0 - (1.0 - np.exp(-2.0 * grid.nodes())) / 4.0
        assert np.max(np.abs(phi.cumulative() - closed)) < 5.0 * grid.step

    def test_matches_truncated_series(self):
        # Phi = sum of convolution powers, summed far past the horizon count
        d = Gamma(2.0, 1.0)
        grid = Grid(d.mean() / 100.0, 100 * 10)
        phi = renewal_measure(d, grid)
        kernel = measure_from_distribution(d, grid)

        total = power = GridMeasure(grid, 1.0, np.zeros(grid.n_nodes))
        for _ in range(40):
            power = convolve_measures(power, kernel)
            total = GridMeasure(grid, total.atom0 + power.atom0, total.density + power.density)
        assert np.max(np.abs(total.density - phi.density)) < 1e-6

    def test_step_too_coarse_rejected(self):
        from renewal_lab.renewal import volterra_renewal_density

        grid = Grid(0.25, 20)
        kernel = np.full(grid.n_nodes, 10.0)  # implicit diagonal 1 - 10 * h / 2 < 0
        with pytest.raises(StepTooCoarseError):
            volterra_renewal_density(kernel, kernel, grid)

    def test_mass_corrected_smooth_kernels_never_too_coarse(self):
        # rescaling bounds kernel(0) h / 2 by the in-horizon mass, so even an
        # absurdly coarse grid stays (uselessly but stably) solvable
        phi = renewal_measure(Exponential(10.0), Grid(0.25, 100))
        assert np.all(np.isfinite(phi.density))

    def test_elementary_renewal_ratio(self, dist):
        grid = small_grid(dist, horizon_means=55.0)
        phi = renewal_measure(dist, grid)
        mu = dist.mean()
        t = 50.0 * mu
        renewals = phi.interval_mass(0.0, t)  # Phi((0, t]): the atom at 0 is not a renewal after 0
        assert abs(renewals / t - dist.rate()) / dist.rate() < 0.05
        # second order: Phi([0, t]) = t / mu + E[tau^2] / (2 mu^2) + o(1)
        assert abs(renewals - (t / mu + dist.moment(2.0).value / (2.0 * mu**2) - 1.0)) <= 0.05

    def test_exponential_measure_convolved_with_own_density_is_constant(self):
        # e^-t + int_0^t e^-(t-u) du = 1 identically (not the tempting (1+t)e^-t)
        d = Exponential(1.0)
        grid = small_grid(d)
        phi = renewal_measure(d, grid)
        z = GridFunction.from_callable(grid, lambda x: np.exp(-x))
        out = convolve_measure_function(phi, z)
        assert np.max(np.abs(out.values - 1.0)) < 1e-4

    def test_subadditivity_window_bound(self, dist):
        # Phi((x-a-b, x-a]) <= Phi([0, b]) for all x
        grid = small_grid(dist)
        phi = renewal_measure(dist, grid)
        a, b = 0.4 * dist.mean(), 0.9 * dist.mean()
        bound = phi.interval_mass(-1.0, b)
        xs = np.linspace(0.0, grid.horizon, 97)
        worst = max(phi.interval_mass(x - a - b, x - a) for x in xs)
        assert worst <= bound + 1e-9


class TestRenewalEquation:
    def test_zero_forcing_gives_zero(self, dist):
        grid = small_grid(dist)
        z = GridFunction(grid, np.zeros(grid.n_nodes))
        sol = solve_renewal_equation(dist, z)
        assert np.max(np.abs(sol.Z.values)) == 0.0

    def test_linear_solution_all_kinds(self, dist):
        # the forcing m * int_0^t survival makes the solution exactly m t
        grid = small_grid(dist)
        sol = solve_renewal_equation(dist, linear_forcing(dist, grid))
        err = np.max(np.abs(sol.Z.values - dist.rate() * grid.nodes()))
        assert err < 100.0 * 10.0 * grid.step**2
        assert sol.residual < 1e-8

    def test_halving_step_shrinks_error(self, dist):
        errors = []
        for ppm in (100, 200):
            grid = Grid(dist.mean() / ppm, ppm * 30)
            sol = solve_renewal_equation(dist, linear_forcing(dist, grid))
            errors.append(np.max(np.abs(sol.Z.values - dist.rate() * grid.nodes())))
        assert errors[1] <= errors[0] / 3.0 + 1e-12

    def test_forcing_perturbation_moves_solution(self, dist):
        # sensitivity: an eps bump on one forcing node shifts the solution >= eps
        grid = small_grid(dist, horizon_means=10.0)
        z = linear_forcing(dist, grid)
        eps = 0.01
        bumped = z.values.copy()
        bumped[grid.count // 2] += eps
        base = solve_renewal_equation(dist, z)
        sol = solve_renewal_equation(dist, GridFunction(grid, bumped))
        assert np.max(np.abs(sol.Z.values - base.Z.values)) >= eps * (1.0 - 1e-12)

    def test_agrees_with_measure_convolution(self):
        d = Exponential(1.0)
        grid = small_grid(d, horizon_means=10.0)
        z = GridFunction.from_callable(grid, lambda x: np.where(x <= 1.0, 1.0, 0.0))
        sol = solve_renewal_equation(d, z)
        direct = convolve_measure_function(renewal_measure(d, grid), z)
        assert np.max(np.abs(direct.values - sol.Z.values)) < 5.0 * grid.step

    def test_indicator_forcing_against_fine_grid_oracle(self):
        # oracle: same quantity on a 10x finer grid, compared at shared nodes
        d = Exponential(1.0)
        coarse = Grid(0.02, 500)
        fine = Grid(0.002, 5000)
        z_fn = lambda x: np.where(np.asarray(x) <= 1.0, 1.0, 0.0)
        sol_c = solve_renewal_equation(d, GridFunction.from_callable(coarse, z_fn))
        sol_f = solve_renewal_equation(d, GridFunction.from_callable(fine, z_fn))
        diff = np.max(np.abs(sol_c.Z.values - sol_f.Z.values[::10]))
        assert diff < 3.0 * coarse.step

    def test_linear_forcing_limits(self, dist):
        grid = small_grid(dist, horizon_means=40.0)
        z = linear_forcing(dist, grid)
        assert z.values[0] == 0.0
        # m * int_0^inf survival = 1
        assert z.values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_linear_forcing_is_the_cumulative_trapezoid_sum(self, dist):
        grid = small_grid(dist)
        g = dist.rate() * (1.0 - np.asarray(dist.cdf(grid.nodes()), dtype=float))
        explicit = np.concatenate(([0.0], np.cumsum(0.5 * grid.step * (g[1:] + g[:-1]))))
        assert np.array_equal(linear_forcing(dist, grid).values, explicit)

    def test_linear_forcing_exponential_closed_form(self):
        # trapezoidal cumulative integration carries an O(h^2) bias
        d = Exponential(2.0)
        grid = small_grid(d)
        z = linear_forcing(d, grid)
        assert np.max(np.abs(z.values - (1.0 - np.exp(-2.0 * grid.nodes())))) < grid.step**2


class TestForwardRecurrence:
    def test_cdf_starts_at_zero_and_increases(self, dist):
        phi = renewal_measure(dist, small_grid(dist))
        cdf = forward_recurrence_cdf(dist, 5.0 * dist.mean(), phi=phi)
        assert cdf.values[0] == 0.0
        assert np.all(np.diff(cdf.values) >= 0.0)
        assert cdf.values[-1] <= 1.0
        assert cdf.values[-1] > 0.999

    @pytest.mark.parametrize("rel", [0.9e-9, -0.9e-9, 1.1e-9, -1.1e-9])
    def test_x_step_matches_to_a_relative_1e9(self, rel):
        # |x-step - h| <= 1e-9 h, h the time grid's step
        d = Exponential(1.0)
        phi = renewal_measure(d, small_grid(d))
        x_grid = Grid(phi.grid.step * (1.0 + rel), 50)
        if abs(rel) < 1e-9:
            assert forward_recurrence_cdf(d, 3.0, x_grid, phi=phi).grid == x_grid
        else:
            with pytest.raises(IncompatibleGridsError, match="must match the time grid step"):
                forward_recurrence_cdf(d, 3.0, x_grid, phi=phi)

    def test_exponential_memorylessness(self):
        d = Exponential(1.0)
        phi = renewal_measure(d, small_grid(d))
        for t in [0.7, 3.0, 11.0]:
            cdf = forward_recurrence_cdf(d, t, phi=phi)
            exact = np.asarray(d.cdf(cdf.grid.nodes()))
            assert np.max(np.abs(cdf.values - exact)) < 1e-10

    def test_t_zero_recovers_interarrival_law(self, dist):
        phi = renewal_measure(dist, small_grid(dist))
        cdf = forward_recurrence_cdf(dist, 0.0, phi=phi)
        exact = np.asarray(dist.cdf(cdf.grid.nodes()))
        assert np.max(np.abs(cdf.values - exact)) < 1e-12

    def test_horizon_exceeded(self, dist):
        phi = renewal_measure(dist, small_grid(dist, horizon_means=5.0))
        with pytest.raises(HorizonExceededError):
            forward_recurrence_cdf(dist, 6.0 * dist.mean(), phi=phi)

    def test_uniform_law_against_monte_carlo(self, rng):
        # oracle: direct simulation of the recurrence time at t = 10
        d = Uniform(0.0, 2.0)
        phi = renewal_measure(d, small_grid(d, horizon_means=15.0))
        cdf = forward_recurrence_cdf(d, 10.0, phi=phi)
        draws = sample_forward_recurrence(d, 10.0, 100_000, rng)
        res = stats.kstest(draws, lambda v: np.interp(v, cdf.grid.nodes(), cdf.values, right=1.0))
        assert res.statistic < 0.01

    def test_density_route_matches_cdf_route(self, dist):
        # uniform densities carry jumps, so their direct-density route is only
        # first-order near the kink lines; smooth kinds agree much tighter
        phi = renewal_measure(dist, small_grid(dist))
        t = 4.0 * dist.mean()
        dens = forward_recurrence_density(dist, t, phi=phi)
        cdf = forward_recurrence_cdf(dist, t, phi=phi)
        h = dens.grid.step
        integrated = np.concatenate(([0.0], np.cumsum(0.5 * h * (dens.values[1:] + dens.values[:-1]))))
        tol = h if dist.kind == "uniform" else 5e-4
        assert np.max(np.abs(integrated - cdf.values)) < tol


class TestTvToStationary:
    def test_exponential_is_stationary(self):
        # B_t is exactly stationary; the cell-wise distance reads rounding only
        d = Exponential(1.0)
        phi = renewal_measure(d, small_grid(d))
        for t in [1.0, 5.0, 20.0]:
            assert tv_to_stationary(d, t, phi=phi) < 1e-10

    def test_gamma_closed_form(self):
        # oracle: Erlang-2 is a two-phase chain, p_t - pi = e^{-2t} e^{-x} (x - 1) / 2,
        # so the L1 distance is e^{-(2t + 1)}; at t = 0 the law of B_0 is F itself
        d = Gamma(2.0, 1.0)
        phi = renewal_measure(d, default_grid(d, horizon_means=30.0))
        assert abs(tv_to_stationary(d, 0.0, phi=phi) - np.exp(-1.0)) <= 1e-12
        for t in (0.5, 1.0, 2.0, 4.0):
            # the O(h^2) floor of the scheme (h = mean / 200)
            assert abs(tv_to_stationary(d, t, phi=phi) - np.exp(-(2.0 * t + 1.0))) <= 2e-5

    def test_t_zero_is_distance_between_interarrival_and_stationary(self):
        # oracle: int_0^2 |1/2 - (1 - x/2)| dx = 1/2
        d = Uniform(0.0, 2.0)
        phi = renewal_measure(d, small_grid(d))
        assert tv_to_stationary(d, 0.0, phi=phi) == pytest.approx(0.5, abs=1e-3)

    def test_gamma_decreasing_in_t(self):
        # strict decrease holds while the signal sits above the numerical floor
        d = Gamma(2.0, 1.0)
        phi = renewal_measure(d, default_grid(d, horizon_means=30.0))
        tvs = [tv_to_stationary(d, t, phi=phi) for t in (2.0, 4.0, 5.5)]
        assert tvs[0] > tvs[1] > tvs[2]

    def test_gamma_against_monte_carlo_histogram_oracle(self, rng):
        # binned-TV Monte Carlo oracle at a t where the distance is still large
        d = Gamma(2.0, 1.0)
        t = 2.0
        phi = renewal_measure(d, default_grid(d, horizon_means=10.0))
        tv_grid = tv_to_stationary(d, t, phi=phi)
        n = 200_000
        draws = sample_forward_recurrence(d, t, n, rng)
        edges = np.linspace(0.0, 14.0, 15)
        hist, _ = np.histogram(draws, bins=edges)
        probs = hist / n
        pis = np.array(
            [d.stationary_delay_cdf(b) - d.stationary_delay_cdf(a) for a, b in zip(edges[:-1], edges[1:])]
        )
        tv_mc_binned = np.sum(np.abs(probs - pis)) + (1.0 - pis.sum())
        # binned TV lower-bounds the true TV; noise scale ~ sqrt(bins/n)
        assert tv_mc_binned <= tv_grid + 0.01
        assert tv_grid <= 3.0 * tv_mc_binned + 0.02

    def test_diagnostics_reported(self):
        d = Gamma(2.0, 1.0)
        phi = renewal_measure(d, small_grid(d))
        diag = {}
        tv_to_stationary(d, 3.0, phi=phi, diagnostics=diag)
        assert set(diag) == {"clip_correction", "tail_mass_bt", "tail_mass_stationary"}
        assert 0.0 <= diag["clip_correction"] <= phi.grid.step**2
        assert 0.0 <= diag["tail_mass_bt"] < 1e-4
        assert 0.0 <= diag["tail_mass_stationary"] < 1e-4

    def test_clip_correction_reads_the_uniform_overshoot(self):
        # the uniform read dips below its running max near t = 0.5 means on the
        # default grid: the correction is nonzero there, and within O(h^2)
        d = Uniform(0.0, 2.0)
        phi = renewal_measure(d, default_grid(d))
        diag = {}
        tv_to_stationary(d, 0.5 * d.mean(), phi=phi, diagnostics=diag)
        assert 0.0 < diag["clip_correction"] <= phi.grid.step**2


_NEEDS_PHI = {
    "forward_recurrence_cdf": lambda d: forward_recurrence_cdf(d, 1.0),
    "forward_recurrence_density": lambda d: forward_recurrence_density(d, 1.0),
    "tv_to_stationary": lambda d: tv_to_stationary(d, 1.0),
    "find_common_component": lambda d: find_common_component(d),
    "simulate_coupling": lambda d: simulate_coupling(
        d, CouplingParams(0.5, 1.0, 0.1), np.random.default_rng(0)
    ),
    "krt_error_curve": lambda d: krt_error_curve(d, lambda y: (1.0 + y) ** -2.0, 2.0, [10.0]),
    "tv_decay_curve": lambda d: tv_decay_curve(d, [1.0]),
}


@pytest.mark.parametrize("name", sorted(_NEEDS_PHI))
def test_phi_is_a_required_argument(name):
    # the caller decides which renewal measure a result is read off
    with pytest.raises(TypeError, match="phi"):
        _NEEDS_PHI[name](Gamma(2.0, 1.0))


class TestDefaultGrids:
    def test_default_grid_shape(self, dist):
        grid = default_grid(dist)
        assert grid.step == pytest.approx(dist.mean() / 200.0)
        assert grid.count == 20000

    def test_recurrence_grid_covers_quantile(self, dist):
        grid = default_grid(dist)
        xg = default_recurrence_grid(dist, grid.step)
        assert xg.horizon >= dist.quantile(1.0 - 1e-6) - 1e-12
        assert xg.step == grid.step
