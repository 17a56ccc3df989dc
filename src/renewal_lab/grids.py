"""Uniform-grid functions and measures on [0, T] with trapezoidal calculus.

A ``GridMeasure`` is an atom at 0 plus a density sampled at the nodes; the
atom is what realizes the zeroth convolution power (a unit point mass) in
renewal series.  All integrals and convolutions use the trapezoidal rule,
which keeps the discrete convolution algebra commutative and associative to
rounding error while being O(h^2) accurate on smooth inputs.

Every multi-output trapezoidal product, the Volterra solver's stretch
products included, is one middle product (Hanrot, Quercia & Zimmermann
2004): only the outputs kept are computed, summed directly while that is
cheap and otherwise by one FFT at the smallest 5-smooth length that holds
them.  Convolutions truncate at the horizon; the mass that survives
truncation is always available via ``total_mass`` so callers can detect a
horizon that is too short instead of silently losing tail mass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .distributions import Distribution, Uniform
from .errors import HorizonExceededError, IncompatibleGridsError, IntervalError, NotNormalizedError

__all__ = [
    "Grid",
    "GridFunction",
    "GridMeasure",
    "convolve_measures",
    "convolve_measure_function",
    "tv_distance",
    "measure_from_distribution",
]


@dataclass(frozen=True)
class Grid:
    """Nodes k*step for k = 0..count; horizon = step * count."""

    step: float
    count: int

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"grid step must be finite and > 0, got {self.step}")
        if not self.count >= 1:
            raise ValueError(f"grid count must be >= 1, got {self.count}")

    @property
    def horizon(self) -> float:
        return self.step * self.count

    @property
    def n_nodes(self) -> int:
        return self.count + 1

    def nodes(self) -> np.ndarray:
        return self.step * np.arange(self.count + 1)

    def index_of(self, x: float) -> int:
        """Nearest node index of x, which must lie in [0, horizon] up to a
        relative 1e-12 past the horizon (read as the last node)."""
        if not 0.0 <= x <= self.horizon * (1.0 + 1e-12):
            raise HorizonExceededError(f"t = {x:g} outside [0, {self.horizon:g}]")
        return int(round(x / self.step))

    @staticmethod
    def from_horizon(horizon: float, step: float) -> "Grid":
        return Grid(step, max(1, int(round(horizon / step))))


def _steps_match(step: float, reference: float, rtol: float) -> bool:
    """Whether |step - reference| <= rtol |reference|: np.isclose's rule at
    atol = 0, in float arithmetic, which on two floats is some 200 times
    cheaper than the ufunc call."""
    return abs(step - reference) <= rtol * abs(reference)


def _check_same_grid(a: Grid, b: Grid) -> None:
    if a.count != b.count or not _steps_match(a.step, b.step, 1e-12):
        raise IncompatibleGridsError(
            f"grids differ: step {a.step!r} vs {b.step!r}, count {a.count} vs {b.count}"
        )


@dataclass(frozen=True)
class GridFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_nodes,):
            raise ValueError(f"expected {self.grid.n_nodes} values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")

    @staticmethod
    def from_callable(grid: Grid, fn) -> "GridFunction":
        return GridFunction(grid, np.asarray(fn(grid.nodes()), dtype=float))


@dataclass(frozen=True)
class GridMeasure:
    """atom0 * delta_0 plus density(x) dx on the grid."""

    grid: Grid
    atom0: float
    density: np.ndarray

    def __post_init__(self):
        density = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "density", density)
        if density.shape != (self.grid.n_nodes,):
            raise ValueError(f"expected {self.grid.n_nodes} density values, got {density.shape}")
        if self.atom0 < 0.0:
            raise ValueError(f"atom0 must be >= 0, got {self.atom0}")
        if not np.all(np.isfinite(density)):
            raise ValueError("density values must be finite")
        if np.any(density < 0.0):
            raise ValueError("density values must be >= 0")

    def total_mass(self) -> float:
        """In-horizon mass: atom plus trapezoidal integral of the density."""
        return self.atom0 + float(np.trapezoid(self.density, dx=self.grid.step))

    def trapezoid_weights(self, k: int) -> np.ndarray:
        """Trapezoid weights of the whole measure on [0, x_k] as a fresh array:
        the first k + 1 entries of ``weight_prefix`` with the last halved, so
        the atom is in the first weight; at k = 0 the atom alone.  Every read
        of a measure against a function on its nodes is a dot with these."""
        if k == 0:
            return np.array([self.atom0])
        w = self.weight_prefix[: k + 1].copy()
        w[-1] *= 0.5
        return w

    @functools.cached_property
    def node_offsets(self) -> np.ndarray:
        """h * arange(n_nodes), built on first read and read-only: every
        lattice offset h * arange(k + 1) is a prefix of it."""
        offsets = self.grid.nodes()
        offsets.flags.writeable = False
        return offsets

    @functools.cached_property
    def weight_prefix(self) -> np.ndarray:
        """h * density at every node, built on first read and read-only, with
        the first weight halved and the atom added to it: the weights
        ``trapezoid_weights`` slices."""
        w = self.density * self.grid.step
        w[0] *= 0.5
        w[0] += self.atom0
        w.flags.writeable = False
        return w

    def cumulative(self) -> np.ndarray:
        """Mass of [0, x_k] at every node (the atom is included from k = 0)."""
        h = self.grid.step
        cells = 0.5 * h * (self.density[1:] + self.density[:-1])
        out = np.empty(self.grid.n_nodes)
        out[0] = self.atom0
        np.cumsum(cells, out=out[1:])
        out[1:] += self.atom0
        return out

    def interval_mass(self, lo: float, hi: float) -> float:
        """Mass of (lo, hi] clipped to the horizon (atom counted iff lo < 0)."""
        if not lo <= hi:
            raise IntervalError(f"need lo <= hi, got lo = {lo:g}, hi = {hi:g}")
        cum = self.cumulative()
        xs = self.grid.nodes()

        def value_at(x: float) -> float:
            if x < 0.0:
                return 0.0
            if x >= self.grid.horizon:
                return cum[-1]
            return float(np.interp(x, xs, cum))

        return value_at(hi) - value_at(lo)


# a middle product is summed directly while its multiply-adds stay within
# _CROSSOVER N log2 N, N the power of two its inputs fit in.  Its FFT runs at
# the shorter 5-smooth length, but deciding on that length would send some
# of the coupling's reads (600-1000 weights, 201 outputs) to an FFT 1.5-2.5x
# slower than their direct sum
_CROSSOVER = 16


def _direct_is_cheaper(taps: int, outputs: int, size: int) -> bool:
    """Whether ``outputs`` middle-product outputs over ``taps`` weights are
    cheaper summed directly than by one cyclic product of length ``size``."""
    return taps * outputs <= _CROSSOVER * size * (size.bit_length() - 1)


def _middle_product(w: np.ndarray, vals: np.ndarray, count: int, spectra: dict | None = None) -> np.ndarray:
    """out[j] = sum_i w[i] vals[kt + j - i] for j = 0..count, kt = len(w) - 1.

    These are the count + 1 outputs of np.convolve(w, vals) from index kt on
    (Hanrot, Quercia & Zimmermann 2004), with len(vals) = kt + count + 1.
    They are summed directly where ``_direct_is_cheaper`` says so for the
    power-of-two length >= kt + count + 1, and otherwise taken from one
    cyclic product of ``scipy.fft`` transforms at
    ``next_fast_len(kt + count + 1)``, whose wrap-around stays below index
    kt.  This is the one home of the FFT and of np.convolve.

    ``spectra``, when given, is a table the caller owns for a fixed operand
    (van der Hoeven 2002): the transform of ``vals`` is kept in it under
    ``len(vals)``, which fixes the transform length, and later calls with
    the same length reuse it, so only ``w`` is transformed.  The spectrum
    of ``vals`` is always the left factor of the product: with fused
    multiply-adds a complex product is not commutative bit for bit, and the
    order keeps every output independent of whether a table is passed.
    """
    kt = len(w) - 1
    if _direct_is_cheaper(kt + 1, count + 1, 1 << (kt + count).bit_length()):
        return np.convolve(vals, w, mode="valid")
    size = scipy.fft.next_fast_len(kt + count + 1, real=True)
    if spectra is None:
        spectra = {}
    spec = spectra.get(len(vals))
    if spec is None:
        spec = spectra[len(vals)] = scipy.fft.rfft(vals, size)
    prod = scipy.fft.rfft(w, size)
    np.multiply(spec, prod, out=prod)
    return scipy.fft.irfft(prod, size)[kt : kt + count + 1]


def _convolve_densities(a: np.ndarray, b: np.ndarray, step: float) -> np.ndarray:
    """Trapezoidal (f * g)(x_k) = int_0^{x_k} f(u) g(x_k - u) du, truncated at the horizon.

    Outputs 0..n-1 of the linear product, as the middle product of a with b
    zero-padded by n - 1 nodes, with the two endpoint terms half-weighted.
    The Volterra solver's residual is recomputed through this path.  It
    shares ``_middle_product`` with the solver's stretch products, but not
    their blocking: it is one product over the whole history, with its own
    endpoint weights and no triangular solve, so it checks how the solver
    splits and assembles the sum.  The solver's independent oracle
    is the per-node forward substitution ``_volterra_direct`` of the tests.
    """
    n = a.shape[0]
    full = _middle_product(a, np.concatenate((np.zeros(n - 1), b)), n - 1)
    full -= 0.5 * (a[0] * b[:n] + b[0] * a[:n])
    full *= step
    full[0] = 0.0
    return full


def convolve_measures(mu: GridMeasure, nu: GridMeasure) -> GridMeasure:
    """Measure convolution (mu * nu) truncated at the shared horizon."""
    _check_same_grid(mu.grid, nu.grid)
    density = (
        mu.atom0 * nu.density
        + nu.atom0 * mu.density
        + _convolve_densities(mu.density, nu.density, mu.grid.step)
    )
    # clip parasitic negatives from cancellation and FFT round-off (at most
    # 1e-14 of mass on the four kinds' kernels, checked in tests)
    np.clip(density, 0.0, None, out=density)
    return GridMeasure(mu.grid, mu.atom0 * nu.atom0, density)


def convolve_measure_function(mu: GridMeasure, z: GridFunction) -> GridFunction:
    """(mu * z)(t_k) = atom0 z(t_k) + int_0^{t_k} z(t_k - u) density(u) du."""
    _check_same_grid(mu.grid, z.grid)
    conv = _convolve_densities(mu.density, z.values, mu.grid.step)
    return GridFunction(mu.grid, mu.atom0 * z.values + conv)


def convolve_measure_function_at(mu: GridMeasure, z: GridFunction, k: int) -> float:
    """Single node (mu * z)(t_k) without forming the whole output."""
    _check_same_grid(mu.grid, z.grid)
    return float(np.dot(mu.trapezoid_weights(k), z.values[k::-1]))


def tv_distance(p: GridMeasure, q: GridMeasure) -> float:
    """Total variation distance |atom difference| + int |density difference|.

    Both arguments must be probability measures (mass within 1e-6 of 1).
    """
    _check_same_grid(p.grid, q.grid)
    for name, m in (("first", p), ("second", q)):
        mass = m.total_mass()
        if abs(mass - 1.0) > 1e-6:
            raise NotNormalizedError(f"{name} argument has mass {mass!r}, expected 1 +/- 1e-06")
    dens_part = float(np.trapezoid(np.abs(p.density - q.density), dx=p.grid.step))
    return abs(p.atom0 - q.atom0) + dens_part


def inverse_cdf(measure: GridMeasure, u: np.ndarray, mass: float) -> np.ndarray:
    """Quantiles of measure / mass at the uniforms u (linear within cells).

    ``mass`` is passed in so sub-probability parts, such as the residual of
    a maximal coupling, can be drawn from at their own normalization.
    """
    cum = measure.cumulative() / mass
    return np.where(u <= cum[0], 0.0, np.interp(u, cum, measure.grid.nodes()))


def _plateau(grid: Grid, lo: float, hi: float, level: float) -> np.ndarray:
    """level * 1[lo, hi] on the nodes: node k carries level * int phi_k 1[lo, hi]
    over its trapezoid weight, phi_k the hat at node k, hi clipped at the horizon.

    The hats sum to 1 and interpolate x, so the trapezoid mass is
    level * (min(hi, T) - lo) and the mean is the plateau's, at every width.
    An edge within 1e-9 node units of a node is that node and the half-hat
    integrals are factored, so covered nodes carry level exactly, an edge on
    a node level / 2 (level at node 0), and no entry rounds below 0.
    """
    edges = np.clip(np.array([lo, hi]) / grid.step, 0.0, grid.count)
    nearest = np.rint(edges)
    u_lo, u_hi = np.where(np.abs(edges - nearest) <= 1e-9, nearest, edges)
    # the hats that meet [lo, hi], and the covered part of each half hat as
    # positions within its cell
    first, last = int(u_lo), int(np.ceil(u_hi))
    k = np.arange(first, last + 1)
    l0, l1 = (np.clip(u - k + 1.0, 0.0, 1.0) for u in (u_lo, u_hi))
    r0, r1 = (np.clip(u - k, 0.0, 1.0) for u in (u_lo, u_hi))
    cover = np.zeros(grid.n_nodes)
    cover[first : last + 1] = (l1 - l0) * (l1 + l0) / 2.0 + (r1 - r0) * (1.0 - (r0 + r1) / 2.0)
    cover[[0, -1]] *= 2.0
    return level * cover


def measure_from_distribution(dist: Distribution, grid: Grid) -> GridMeasure:
    """Grid realization of an interarrival law F restricted to [0, horizon].

    The density is sampled at the nodes and then rescaled so its trapezoidal
    mass equals F(horizon) exactly; without that correction the O(h^2)
    quadrature bias of the sampled density leaks into every renewal-series
    mass identity downstream.  A uniform law is instead its plateau's hat
    projection ``_plateau``, whose mass and mean are exact at every width
    and whose covered nodes keep the exact level for window scans.
    """
    if isinstance(dist, Uniform):
        return GridMeasure(grid, 0.0, _plateau(grid, dist.lo, dist.hi, 1.0 / (dist.hi - dist.lo)))
    density = np.asarray(dist.density(grid.nodes()), dtype=float)
    raw_mass = float(np.trapezoid(density, dx=grid.step))
    target = float(dist.cdf(grid.horizon))
    if raw_mass > 0.0:
        density = density * (target / raw_mass)
    return GridMeasure(grid, 0.0, density)
