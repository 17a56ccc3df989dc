import numpy as np
import pytest

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
    overlap_mass,
    tv_distance,
)
from renewal_lab.errors import IncompatibleGridsError, NotNormalizedError
from renewal_lab.grids import _convolve_densities, convolve_measure_function_at, inverse_cdf


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
        with pytest.raises(ValueError):
            Grid(0.1, 0)

    def test_index_of_clips(self):
        g = Grid(0.1, 10)
        assert g.index_of(0.31) == 3
        assert g.index_of(-1.0) == 0
        assert g.index_of(99.0) == 10

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
        out = convolve_measures(GridMeasure.dirac(grid), mu)
        assert out.atom0 == mu.atom0
        assert np.max(np.abs(out.density - mu.density)) == 0.0

    def test_dirac_is_identity_on_functions(self):
        grid = Grid(0.01, 400)
        z = GridFunction.from_callable(grid, lambda x: np.sin(x) + 2.0)
        out = convolve_measure_function(GridMeasure.dirac(grid), z)
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

    def test_self_convolution_clips_rounding_only(self, dist):
        # convolve_measures clips the negatives of FFT round-off where the
        # exact F * F is 0; they carry at most 1e-14 of mass
        grid = Grid(dist.mean() / 200.0, 200 * 30)
        f = measure_from_distribution(dist, grid)
        raw = _convolve_densities(f.density, f.density, grid.step)
        clipped = float(np.trapezoid(convolve_measures(f, f).density - raw, dx=grid.step))
        assert clipped <= 1e-14

    def test_node_evaluation_matches_full_convolution(self):
        grid = Grid(0.02, 400)
        mu = GridMeasure(grid, 0.15, bump_measure(grid, 1.2, 0.8, 0.7).density)
        z = GridFunction.from_callable(grid, lambda x: np.exp(-0.3 * x))
        full = convolve_measure_function(mu, z)
        for k in [0, 1, 17, 200, 400]:
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
        assert tv_distance(p, q) == pytest.approx(2.0 * (1.0 - overlap_mass(p, q)), abs=1e-8)

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

    def test_cumulative_and_interval_mass(self):
        grid = Grid(0.01, 1000)
        m = measure_from_distribution(Exponential(1.0), grid)
        target = Exponential(1.0).cdf(3.0) - Exponential(1.0).cdf(1.0)
        assert m.interval_mass(1.0, 3.0) == pytest.approx(target, abs=1e-5)

    def test_sampling_from_measure(self, rng):
        grid = Grid(0.005, 3000)
        m = measure_from_distribution(Exponential(1.0), grid)
        draws = inverse_cdf(m, rng.random(20000), m.total_mass())
        from scipy import stats

        res = stats.kstest(draws, lambda v: np.asarray(Exponential(1.0).cdf(v)))
        assert res.statistic < 1.36 / np.sqrt(20000) + 2 * grid.step


class TestSerialization:
    def test_function_round_trip(self, tmp_path):
        grid = Grid(0.1, 20)
        z = GridFunction.from_callable(grid, lambda x: np.cos(x))
        path = tmp_path / "fn.csv"
        z.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,value"
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(data[:, 1], z.values)

    def test_measure_header_carries_atom(self, tmp_path):
        grid = Grid(0.1, 20)
        m = GridMeasure(grid, 0.375, np.zeros(21))
        path = tmp_path / "measure.csv"
        m.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# atom0=0.375"
        assert lines[1] == "x,density"
