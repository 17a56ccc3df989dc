import numpy as np
import pytest
import scipy.fft

from renewal_lab import (
    Exponential,
    Gamma,
    Grid,
    GridFunction,
    GridMeasure,
    ShiftedPareto,
    Uniform,
    convolve_measure_function,
    convolve_measures,
    measure_from_distribution,
    renewal_measure,
    tv_distance,
)
from renewal_lab.errors import HorizonExceededError, IncompatibleGridsError, IntervalError, NotNormalizedError
from renewal_lab.grids import _convolve_densities, _middle_product, _plateau, convolve_measure_function_at, inverse_cdf


def _convolve_densities_direct(a, b, step):
    """Oracle: the trapezoidal product summed directly by np.convolve."""
    n = a.shape[0]
    full = np.convolve(a, b)[:n]
    full -= 0.5 * (a[0] * b[:n] + b[0] * a[:n])
    full *= step
    full[0] = 0.0
    return full


def bump_measure(grid, center, width, mass=1.0):
    """Smooth compactly supported density vanishing at 0 (clean for mass tests)."""
    x = grid.nodes()
    u = np.clip((x - center) / width, -1.0, 1.0)
    raw = np.where(np.abs(u) < 1.0, np.cos(0.5 * np.pi * u) ** 2, 0.0)
    raw *= mass / np.trapezoid(raw, dx=grid.step)
    return GridMeasure(grid, 0.0, raw)


class TestGrid:
    def test_horizon(self):
        g = Grid(0.01, 500)
        assert g.horizon == pytest.approx(5.0)
        assert g.n_nodes == 501
        assert g.nodes()[-1] == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, 10)
        # an infinite step would give the nodes [nan, inf, inf, inf]
        for step in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"grid step must be finite and > 0, got {step}"):
                Grid(step, 3)
        with pytest.raises(ValueError):
            Grid(0.1, 0)

    def test_index_of_snaps_inside_horizon(self):
        g = Grid(0.1, 10)
        assert g.index_of(0.31) == 3
        assert g.index_of(0.0) == 0
        assert g.index_of(g.horizon) == 10
        # rounding past the horizon reads as the last node
        assert g.index_of(g.horizon * (1.0 + 1e-13)) == g.count

    @pytest.mark.parametrize("x", [-1.0, -1e-300, 99.0, "past", float("nan")])
    def test_index_of_rejects_points_outside_horizon(self, x):
        g = Grid(0.1, 10)
        if x == "past":
            x = g.horizon * (1.0 + 1e-11)
        with pytest.raises(HorizonExceededError, match=r"outside \[0, 1\]"):
            g.index_of(x)

    def test_grid_function_rejects_bad_shapes(self):
        g = Grid(0.1, 10)
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(5))
        with pytest.raises(ValueError):
            GridFunction(g, np.full(11, np.nan))

    def test_grid_measure_rejects_negatives(self):
        g = Grid(0.1, 10)
        with pytest.raises(ValueError):
            GridMeasure(g, -0.1, np.zeros(11))
        with pytest.raises(ValueError):
            GridMeasure(g, 0.0, np.full(11, -1.0))


class TestConvolution:
    def test_dirac_is_identity_on_measures(self):
        grid = Grid(0.01, 400)
        mu = bump_measure(grid, 1.5, 0.8)
        out = convolve_measures(GridMeasure(grid, 1.0, np.zeros(grid.n_nodes)), mu)
        assert out.atom0 == mu.atom0
        assert np.max(np.abs(out.density - mu.density)) == 0.0

    def test_dirac_is_identity_on_functions(self):
        grid = Grid(0.01, 400)
        z = GridFunction.from_callable(grid, lambda x: np.sin(x) + 2.0)
        out = convolve_measure_function(GridMeasure(grid, 1.0, np.zeros(grid.n_nodes)), z)
        assert np.max(np.abs(out.values - z.values)) == 0.0

    def test_constant_density_times_one(self):
        # density 1 convolved with z = 1 gives t + atom at each node
        grid = Grid(0.02, 300)
        mu = GridMeasure(grid, 0.25, np.ones(grid.n_nodes))
        z = GridFunction(grid, np.ones(grid.n_nodes))
        out = convolve_measure_function(mu, z)
        expected = grid.nodes() + 0.25
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_uniform_self_convolution_is_triangular(self):
        # closed form: unit uniforms on [0,1] convolve to the hat peaking at 1
        grid = Grid(0.005, 500)
        f = measure_from_distribution(Uniform(0.0, 1.0), grid)
        conv = convolve_measures(f, f)
        x = grid.nodes()
        hat = np.where(x <= 1.0, x, np.where(x <= 2.0, 2.0 - x, 0.0))
        assert np.max(np.abs(conv.density - hat)) < 2.5 * grid.step

    def test_grid_mismatch_rejected(self):
        a = bump_measure(Grid(0.01, 100), 0.5, 0.3)
        b = bump_measure(Grid(0.02, 100), 0.5, 0.3)
        with pytest.raises(IncompatibleGridsError):
            convolve_measures(a, b)
        with pytest.raises(IncompatibleGridsError):
            convolve_measure_function(a, GridFunction(Grid(0.01, 101), np.zeros(102)))

    @pytest.mark.parametrize("rel", [0.9e-12, -0.9e-12, 1.1e-12, -1.1e-12])
    def test_steps_match_to_a_relative_1e12(self, rel):
        # np.isclose's rule at atol = 0: |step - step'| <= 1e-12 |step'|,
        # step' the second argument's
        a = bump_measure(Grid(0.01 * (1.0 + rel), 100), 0.5, 0.3)
        b = bump_measure(Grid(0.01, 100), 0.5, 0.3)
        if abs(rel) < 1e-12:
            assert convolve_measures(a, b).grid.step == a.grid.step
        else:
            with pytest.raises(IncompatibleGridsError, match="grids differ: step"):
                convolve_measures(a, b)

    def test_mass_multiplicativity_when_supports_fit(self):
        grid = Grid(0.01, 1000)
        mu = bump_measure(grid, 1.0, 0.7, mass=0.8)
        nu = bump_measure(grid, 2.0, 1.0, mass=0.65)
        out = convolve_measures(mu, nu)
        assert out.total_mass() == pytest.approx(0.8 * 0.65, abs=1e-8)

    def test_mass_multiplicative_with_atoms(self):
        grid = Grid(0.01, 1000)
        mu = GridMeasure(grid, 0.3, bump_measure(grid, 1.0, 0.7, 0.5).density)
        nu = GridMeasure(grid, 0.1, bump_measure(grid, 2.0, 1.0, 0.6).density)
        out = convolve_measures(mu, nu)
        assert out.total_mass() == pytest.approx(0.8 * 0.7, abs=1e-8)

    def test_commutativity(self):
        grid = Grid(0.01, 800)
        mu = GridMeasure(grid, 0.2, bump_measure(grid, 1.0, 0.9, 0.5).density)
        nu = GridMeasure(grid, 0.05, bump_measure(grid, 3.0, 0.5, 0.9).density)
        ab = convolve_measures(mu, nu)
        ba = convolve_measures(nu, mu)
        assert np.max(np.abs(ab.density - ba.density)) < 1e-12
        assert ab.atom0 == ba.atom0

    def test_associativity_on_random_triples(self, rng):
        grid = Grid(0.02, 500)
        for _ in range(5):
            mus = []
            for _k in range(3):
                center = rng.uniform(0.5, 2.0)
                width = rng.uniform(0.3, 1.0)
                atom = rng.uniform(0.0, 0.4)
                m = bump_measure(grid, center, width, mass=rng.uniform(0.3, 0.9))
                mus.append(GridMeasure(grid, atom, m.density))
            left = convolve_measures(convolve_measures(mus[0], mus[1]), mus[2])
            right = convolve_measures(mus[0], convolve_measures(mus[1], mus[2]))
            assert np.max(np.abs(left.density - right.density)) < 1e-8
            assert left.atom0 == pytest.approx(right.atom0, abs=1e-15)

    def test_refinement_halves_error_by_four(self):
        # O(h^2) on smooth inputs with active boundary terms: deviations from
        # an h/8 reference shrink ~4.2x per halving
        outs = {}
        for factor in (1, 2, 8):
            grid = Grid(0.04 / factor, 250 * factor)
            mu = measure_from_distribution(Exponential(1.0), grid)
            nu = measure_from_distribution(Exponential(2.0), grid)
            outs[factor] = convolve_measures(mu, nu).density[::factor]
        e1 = np.max(np.abs(outs[1] - outs[8]))
        e2 = np.max(np.abs(outs[2] - outs[8]))
        assert 3.0 < e1 / e2 < 6.0

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 500, 3000])
    def test_matches_direct_sum(self, dist, n):
        # n = 2..65 are summed directly, n = 1 (a length-1 cyclic product) and
        # n >= 500 by FFT; kernel with kernel and kernel with CDF, as the
        # measure and residual products pair them
        grid = Grid(20.0 * dist.mean() / max(n - 1, 1), max(n - 1, 1))
        kernel = measure_from_distribution(dist, grid).density[:n]
        cdf = np.asarray(dist.cdf(grid.nodes()), dtype=float)[:n]
        for a, b in ((kernel, kernel), (kernel, cdf)):
            out = _convolve_densities(a, b, grid.step)
            direct = _convolve_densities_direct(a, b, grid.step)
            assert out.shape == direct.shape == (n,)
            assert np.max(np.abs(out - direct)) <= 1e-12 * max(np.max(np.abs(direct)), 1e-300)

    def test_short_wide_product_is_summed_directly(self, rng):
        # 601 weights and 201 outputs, the shape of the coupling's recurrence
        # reads: 120,801 multiply-adds are within 16 N log2 N at the
        # power-of-two N = 1024, though not at the 5-smooth FFT length 810,
        # so the product is the direct sum, equal to np.convolve bit for bit
        w = rng.random(601)
        vals = rng.random(801)
        np.testing.assert_array_equal(_middle_product(w, vals, 200), np.convolve(w, vals)[600:801])

    def test_spectrum_table_keeps_the_operand_order(self, rng):
        # at s = 16384 a spectrum holds 16385 complex values (262 KB), where
        # numpy reuses a temporary operand for the result, so spec * rfft(w)
        # would be evaluated as W V; with fused multiply-adds that differs
        # from V W in the last bit.  With a table or without, and on the
        # table's first use or a later one, the product is V W
        s = 16384
        size = scipy.fft.next_fast_len(2 * s - 1, real=True)
        vals = rng.random(2 * s - 1)
        spectrum = scipy.fft.rfft(vals, size)
        table = {}
        for _ in range(2):
            w = rng.random(s)
            w_spectrum = scipy.fft.rfft(w, size)
            expected = scipy.fft.irfft(spectrum * w_spectrum, size)[s - 1 : 2 * s - 1]
            np.testing.assert_array_equal(_middle_product(w, vals, s - 1), expected)
            np.testing.assert_array_equal(_middle_product(w, vals, s - 1, table), expected)
        assert list(table) == [len(vals)]

    def test_self_convolution_clips_rounding_only(self, dist):
        # convolve_measures clips the negatives of FFT round-off where the
        # exact F * F is 0; they carry at most 1e-14 of mass
        grid = Grid(dist.mean() / 200.0, 200 * 30)
        f = measure_from_distribution(dist, grid)
        raw = _convolve_densities(f.density, f.density, grid.step)
        clipped = float(np.trapezoid(convolve_measures(f, f).density - raw, dx=grid.step))
        assert clipped <= 1e-14

    @staticmethod
    def general_measure(grid):
        """An atom that is neither 0 nor 1 and a density that is not 0 at 0."""
        return GridMeasure(grid, 0.375, bump_measure(grid, 1.2, 0.8, 0.7).density + 0.1)

    def test_trapezoid_weights(self):
        # the weights of the whole measure on [0, x_k]: the atom plus half the
        # first density weight, the last density weight halved, the atom alone at 0
        grid = Grid(0.02, 400)
        mu = self.general_measure(grid)
        h, d, n = grid.step, mu.density, grid.count
        np.testing.assert_array_equal(mu.trapezoid_weights(0), [0.375])
        np.testing.assert_array_equal(mu.trapezoid_weights(1), [0.375 + 0.5 * h * d[0], 0.5 * h * d[1]])
        w = mu.trapezoid_weights(n)
        np.testing.assert_array_equal(w, np.concatenate(([0.375 + 0.5 * h * d[0]], h * d[1:n], [0.5 * h * d[n]])))
        assert float(np.sum(w)) == pytest.approx(mu.total_mass(), rel=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 400])
    def test_trapezoid_weights_are_a_fresh_array(self, k):
        grid = Grid(0.02, 400)
        mu = self.general_measure(grid)
        before = mu.density.copy(), mu.trapezoid_weights(k)
        w = mu.trapezoid_weights(k)
        w += 1.0
        np.testing.assert_array_equal(mu.density, before[0])
        np.testing.assert_array_equal(mu.trapezoid_weights(k), before[1])

    def test_per_measure_prefixes(self):
        # built once and read-only: the lattice offsets h * arange, and the
        # weights h * density with the first halved and the atom added, whose
        # first k + 1 entries, the last halved, are the trapezoid weights
        grid = Grid(0.02, 400)
        mu = self.general_measure(grid)
        assert mu.node_offsets is mu.node_offsets and mu.weight_prefix is mu.weight_prefix
        np.testing.assert_array_equal(mu.node_offsets, grid.step * np.arange(grid.n_nodes))
        prefix = grid.step * mu.density
        prefix[0] = 0.375 + 0.5 * prefix[0]
        np.testing.assert_array_equal(mu.weight_prefix, prefix)
        for k in (1, 2, 137, grid.count):
            w = prefix[: k + 1].copy()
            w[-1] *= 0.5
            np.testing.assert_array_equal(mu.trapezoid_weights(k), w)
        for prefix in (mu.node_offsets, mu.weight_prefix):
            assert prefix.shape == (grid.n_nodes,)
            with pytest.raises(ValueError, match="read-only"):
                prefix[0] = 1.0

    def test_node_evaluation_matches_full_convolution(self):
        grid = Grid(0.02, 400)
        mu = self.general_measure(grid)
        z = GridFunction.from_callable(grid, lambda x: np.exp(-0.3 * x))
        full = convolve_measure_function(mu, z)
        for k in range(grid.n_nodes):
            assert convolve_measure_function_at(mu, z, k) == pytest.approx(full.values[k], abs=1e-13)


class TestTotalVariation:
    def grid(self):
        return Grid(0.005, 10000)

    def normalized(self, dist):
        return measure_from_distribution(dist, self.grid())

    def test_identical_inputs_give_zero(self):
        p = self.normalized(Exponential(1.0))
        assert tv_distance(p, p) == 0.0

    def test_disjoint_supports_give_two(self):
        grid = Grid(0.005, 2000)
        a = bump_measure(grid, 2.0, 1.0)
        b = bump_measure(grid, 6.0, 1.0)
        assert tv_distance(a, b) == pytest.approx(2.0, abs=1e-9)

    def test_exp1_vs_exp2_quadrature_oracle(self):
        # oracle (scipy.integrate.quad before freezing): int |e^-x - 2 e^-2x| = 0.5
        tv = tv_distance(self.normalized(Exponential(1.0)), self.normalized(Exponential(2.0)))
        assert tv == pytest.approx(0.5, abs=1e-4)

    def test_rejects_unnormalized(self):
        grid = Grid(0.01, 500)
        half = bump_measure(grid, 1.0, 0.5, mass=0.5)
        full = bump_measure(grid, 1.0, 0.5, mass=1.0)
        with pytest.raises(NotNormalizedError):
            tv_distance(half, full)

    def test_overlap_identity(self):
        # |p - q| integrates to 2 (1 - mass(p ^ q)) for probability measures
        p = self.normalized(Exponential(1.0))
        q = self.normalized(Exponential(2.0))
        overlap = min(p.atom0, q.atom0) + float(np.trapezoid(np.minimum(p.density, q.density), dx=p.grid.step))
        assert tv_distance(p, q) == pytest.approx(2.0 * (1.0 - overlap), abs=1e-8)

    def test_symmetry_and_triangle_inequality(self, rng):
        grid = Grid(0.01, 4500)
        dists = [Exponential(1.0), Gamma(2.0, 2.0), Uniform(0.0, 2.0), ShiftedPareto(3.5, 0.4)]
        ms = [measure_from_distribution(d, grid) for d in dists]
        # horizon covers enough mass for each of these parameterizations
        for m in ms:
            assert abs(m.total_mass() - 1.0) < 1e-6
        for _ in range(6):
            i, j, k = rng.choice(len(ms), 3, replace=False)
            dij, dji = tv_distance(ms[i], ms[j]), tv_distance(ms[j], ms[i])
            assert dij == pytest.approx(dji, abs=1e-15)
            assert dij <= tv_distance(ms[i], ms[k]) + tv_distance(ms[k], ms[j]) + 1e-10


class TestDistributionMeasures:
    def test_mass_equals_cdf_at_horizon(self, dist):
        grid = Grid(dist.mean() / 200.0, 200 * 60)
        m = measure_from_distribution(dist, grid)
        assert m.total_mass() == pytest.approx(dist.cdf(grid.horizon), abs=1e-12)

    def test_uniform_interior_nodes_keep_exact_level(self):
        # off-node edges only perturb the two adjacent nodes
        d = Uniform(1.0, 2.0)
        grid = Grid(d.mean() / 200.0, 200 * 30)
        m = measure_from_distribution(d, grid)
        x = grid.nodes()
        interior = (x > 1.0 + 2 * grid.step) & (x < 2.0 - 2 * grid.step)
        assert np.max(np.abs(m.density[interior] - 1.0)) < 1e-12
        assert m.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_osf_node_edges_conserve_mass(self):
        # lo/hi deliberately off the lattice
        d = Uniform(0.337, 1.926)
        grid = Grid(0.01, 400)
        m = measure_from_distribution(d, grid)
        assert m.total_mass() == pytest.approx(1.0, abs=1e-12)
        cum = m.cumulative()
        x = grid.nodes()
        # cumulative tracks the true CDF within one cell of each edge
        assert np.max(np.abs(cum - d.cdf(x))) < 1.5 * grid.step

    @pytest.mark.parametrize("width", [0.2, 0.9, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("lo", [1.0031, 0.9992], ids=["off-node", "straddling"])
    def test_narrow_uniform_keeps_mass_and_mean(self, width, lo):
        # widths in grid steps; both jumps may fall in one cell, where two
        # per-edge corrections of one node lost a quarter of the mass
        grid = Grid(0.01, 400)
        d = Uniform(lo, lo + width * grid.step)
        m = measure_from_distribution(d, grid)
        weights = m.trapezoid_weights(grid.count)
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-12)
        assert float(weights @ grid.nodes()) == pytest.approx(d.mean(), abs=1e-12)

    @pytest.mark.parametrize(
        "step, ia, ib",
        [(0.005, 0, 400), (0.005, 140, 240), (0.16666666666666669, 40, 240), (1.0 / 123.0, 0, 123)],
        ids=["uniform-0-2", "gamma-10-10", "gamma-2-0.06", "exponential-123-per-mean"],
    )
    def test_plateau_with_edges_on_nodes_is_exact(self, step, ia, ib):
        # Stone's windows (edges ia * h and ia * h + (ib - ia) * h), several an
        # ulp off their node in node units: covered nodes carry the level
        # exactly, an edge half of it, all of it at node 0
        grid = Grid(step, 1000)
        level = 1.0 / 2.2
        g = _plateau(grid, ia * step, ia * step + (ib - ia) * step, level)
        expected = np.zeros(grid.n_nodes)
        expected[ia : ib + 1] = level
        expected[ib] = 0.5 * level
        if ia > 0:
            expected[ia] = 0.5 * level
        assert np.array_equal(g, expected)

    @pytest.mark.parametrize("lo, hi", [(0.37, 1.91), (0.1234, 0.9876)])
    def test_uniform_renewal_mass_error_is_second_order(self, lo, hi):
        # Phi([0, 20 means]) at 100..800 points per mean: with off-node jumps
        # the error quarters with each halving of h, so successive
        # differences fall by 4 (they jumped in sign and size before)
        d = Uniform(lo, hi)
        masses = [renewal_measure(d, Grid(d.mean() / p, 20 * p)).total_mass() for p in (100, 200, 400, 800)]
        diffs = np.diff(masses)
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((3.9 <= ratios) & (ratios <= 4.1)), ratios

    def test_cumulative_and_interval_mass(self):
        grid = Grid(0.01, 1000)
        m = measure_from_distribution(Exponential(1.0), grid)
        target = Exponential(1.0).cdf(3.0) - Exponential(1.0).cdf(1.0)
        assert m.interval_mass(1.0, 3.0) == pytest.approx(target, abs=1e-5)

    @pytest.mark.parametrize("lo, hi", [(np.nan, 3.0), (1.0, np.nan), (5.0, 1.0)])
    def test_interval_mass_rejects_nan_and_reversed_endpoints(self, lo, hi):
        # on gamma's Phi a NaN endpoint read NaN and (5, 1] read -1.966
        phi = renewal_measure(Gamma(2.0, 1.0), Grid(0.02, 1000))
        with pytest.raises(IntervalError, match=f"lo = {lo:g}, hi = {hi:g}"):
            phi.interval_mass(lo, hi)

    def test_sampling_from_measure(self, rng):
        grid = Grid(0.005, 3000)
        m = measure_from_distribution(Exponential(1.0), grid)
        draws = inverse_cdf(m, rng.random(20000), m.total_mass())
        from scipy import stats

        res = stats.kstest(draws, lambda v: np.asarray(Exponential(1.0).cdf(v)))
        assert res.statistic < 1.36 / np.sqrt(20000) + 2 * grid.step
