"""Deterministic solvers for the renewal function, the renewal equation,
and the forward-recurrence-time law.

Everything runs on a uniform grid.  The renewal measure solves
Phi = delta_0 + F * Phi with the trapezoidal rule and an implicit diagonal
term, which is unconditionally stable for subprobability kernels and O(h^2)
accurate.  The discrete equation is a lower-triangular Toeplitz system; it
is solved by relaxed (online) convolution in O(n log^2 n): dense 64-node
blocks, with the effect of each solved stretch on the next pushed forward
by one cyclic FFT product (Hairer, Lubich & Schlichte 1985; van der Hoeven
2002).  The forward recurrence law at time t is evaluated from the identity
P(B_t <= x) = int_0^t F((t-u, t+x-u]) Phi(du), and its density the same way
with f: on the X + 1 x-nodes each is one ``grids._middle_product`` of the
trapezoid weights of Phi on [0, t] with F or f on the lattice.  The total
variation distance to the stationary delay law compares that CDF with the
closed-form stationary CDF cell by cell, so no density is formed for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

from .distributions import Distribution
from .errors import HorizonExceededError, IncompatibleGridsError, StepTooCoarseError
from .grids import (
    Grid,
    GridFunction,
    GridMeasure,
    _direct_is_cheaper,
    _middle_product,
    convolve_measure_function,
    measure_from_distribution,
)

__all__ = [
    "RenewalSolution",
    "default_grid",
    "default_recurrence_grid",
    "renewal_measure",
    "solve_renewal_equation",
    "linear_forcing",
    "forward_recurrence_cdf",
    "forward_recurrence_density",
    "recurrence_density_at",
    "tv_to_stationary",
    "volterra_renewal_density",
]


def default_grid(dist: Distribution, horizon_means: float = 100.0) -> Grid:
    """h = mean/200, horizon = 100 * mean: resolves the density scale and
    reaches the asymptotic regime of the rate experiments."""
    return Grid(dist.mean() / 200, int(round(200 * horizon_means)))


def default_recurrence_grid(dist: Distribution, step: float) -> Grid:
    """x-grid for B_t laws: [0, x_q] with x_q the 1 - 1e-6 quantile of F.

    Mass beyond x_q is the tail cell [x_q, inf) of ``tv_to_stationary``; the
    x-step must match the time grid so the two lattices stay commensurate.
    """
    x_q = float(dist.quantile(1.0 - 1e-6))
    return Grid(step, max(4, int(math.ceil(x_q / step))))


# nodes solved together by one dense triangular solve
_BLOCK = 64


def volterra_renewal_density(kernel: np.ndarray, rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve X(t) = rhs(t) + int_0^t k(t-u) X(u) du on the grid nodes.

    The trapezoidal unknowns x[1..n] form a lower-triangular Toeplitz system
    with diagonal 1 - h k(0) / 2 (the implicit u = t term) and sub-diagonals
    -h k(d); the solve fails as step-too-coarse when the diagonal is <= 0.
    Blocks of 64 nodes are solved left to right against one 64 x 64
    triangular matrix.  After the block ending at node i, with s = 64 * 2^v
    the largest such size dividing i (i / s odd), the stretch x[i-s:i] adds
    its effect on the next s nodes through one cyclic middle product of
    length 2s: every node pair then meets exactly once, in O(n log^2 n).
    The spectrum of h k[1:2s] is computed once per size s and call.
    """
    h = grid.step
    n = grid.count
    diag = 1.0 - 0.5 * h * kernel[0]
    if diag <= 0.0:
        raise StepTooCoarseError(
            f"kernel density {kernel[0]:g} at 0 needs step < {2.0 / kernel[0]:g}, got {h:g}"
        )
    x = np.empty(n + 1)
    x[0] = rhs[0]
    hk = h * kernel[: n + 1]
    y = x[1:]
    # right-hand side of the node equations, plus the history pushed in so far
    acc = rhs[1 : n + 1] + (0.5 * x[0]) * hk[1:]
    m = min(_BLOCK, n)
    block = toeplitz(np.concatenate(([diag], -hk[1:m])), np.zeros(m))
    spectra: dict[int, np.ndarray] = {}
    for start in range(0, n, m):
        stop = min(start + m, n)
        width = stop - start
        y[start:stop] = solve_triangular(
            block[:width, :width], acc[start:stop], lower=True, check_finite=False
        )
        if stop == n:
            break
        blocks = stop // m
        s = m * (blocks & -blocks)
        out = min(s, n - stop)
        taps = hk[1 : 2 * s]
        if _direct_is_cheaper(s, s, 2 * s):
            middle = np.convolve(taps, y[stop - s : stop], mode="valid")
        else:
            spectrum = spectra.get(s)
            if spectrum is None:
                spectrum = spectra[s] = np.fft.rfft(taps, 2 * s)
            middle = np.fft.irfft(np.fft.rfft(y[stop - s : stop], 2 * s) * spectrum, 2 * s)[s - 1 :]
        acc[stop : stop + out] += middle[:out]
    return x


def renewal_measure(dist: Distribution, grid: Grid) -> GridMeasure:
    """Renewal measure Phi = sum of convolution powers of F, as atom 1 at 0
    plus a density, solved from Phi = delta_0 + F * Phi."""
    kernel = measure_from_distribution(dist, grid)
    density = volterra_renewal_density(kernel.density, kernel.density, grid)
    return GridMeasure(grid, 1.0, np.maximum(density, 0.0))


@dataclass(frozen=True)
class RenewalSolution:
    """Solution Z of Z = z + F * Z with its forcing and solver residual."""

    Z: GridFunction
    forcing: GridFunction
    residual: float


def solve_renewal_equation(dist: Distribution, forcing: GridFunction) -> RenewalSolution:
    """Solution of the discrete renewal equation by the Volterra solver.

    The residual reported is sup |Z - z - F * Z| recomputed through the
    measure-function convolution, so it checks the solver against an
    independently coded quadrature path.
    """
    grid = forcing.grid
    kernel = measure_from_distribution(dist, grid)
    values = volterra_renewal_density(kernel.density, forcing.values, grid)
    Z = GridFunction(grid, values)
    conv = convolve_measure_function(GridMeasure(grid, 0.0, kernel.density), Z)
    residual = float(np.max(np.abs(values - forcing.values - conv.values)))
    return RenewalSolution(Z, forcing, residual)


def linear_forcing(dist: Distribution, grid: Grid) -> GridFunction:
    """The forcing z(t) = m int_0^t (1 - F(x)) dx whose solution is exactly m t,
    built by trapezoidal cumulative integration of m * survival."""
    g = dist.rate() * (1.0 - np.asarray(dist.cdf(grid.nodes()), dtype=float))
    h = grid.step
    z = np.empty(grid.n_nodes)
    z[0] = 0.0
    np.cumsum(0.5 * h * (g[1:] + g[:-1]), out=z[1:])
    return GridFunction(grid, z)


def _recurrence_weights(phi: GridMeasure, t: float) -> tuple[int, np.ndarray]:
    """Snapped node index of t and trapezoid weights of Phi's density on [0, t]."""
    if t < 0.0 or t > phi.grid.horizon * (1.0 + 1e-12):
        raise HorizonExceededError(f"t = {t:g} outside [0, {phi.grid.horizon:g}]")
    kt = phi.grid.index_of(t)
    w = phi.density[: kt + 1] * phi.grid.step
    if kt >= 1:
        w[0] *= 0.5
        w[-1] *= 0.5
    else:
        w[:] = 0.0
    return kt, w


def _check_steps_match(x_grid: Grid, phi: GridMeasure) -> None:
    if not np.isclose(x_grid.step, phi.grid.step, rtol=1e-9, atol=0.0):
        raise IncompatibleGridsError(
            f"x-grid step {x_grid.step!r} must match the time grid step {phi.grid.step!r}"
        )


def _recurrence_read(
    values_at, dist: Distribution, t: float, x_grid: Grid | None, phi: GridMeasure
) -> tuple[Grid, float, np.ndarray, np.ndarray]:
    """x-grid, atom of Phi at 0, g(t + x) and int_(0,t] g(t + x - u) Phi(du)
    at the x-grid nodes, for g evaluated on the lattice by ``values_at``."""
    if x_grid is None:
        x_grid = default_recurrence_grid(dist, phi.grid.step)
    _check_steps_match(x_grid, phi)
    kt, w = _recurrence_weights(phi, t)
    nodes = np.asarray(values_at(phi.grid.step * np.arange(kt + x_grid.count + 1)), dtype=float)
    return x_grid, phi.atom0, nodes[kt:], _middle_product(w, nodes, x_grid.count)


def forward_recurrence_cdf(
    dist: Distribution, t: float, x_grid: Grid | None = None, *, phi: GridMeasure
) -> GridFunction:
    """CDF of the forward recurrence time B_t of the zero-delayed process,
    P(B_t <= x) = int_0^t F((t-u, t+x-u]) Phi(du).

    Phi is the renewal measure on the time grid; t snaps to its nearest
    node.  The x-grid (by default ``default_recurrence_grid``) must share the
    time grid's step so every F evaluation lands on one common lattice; the
    integral over the X + 1 x-nodes is one middle product of the trapezoid
    weights of Phi with F on the lattice, in (kt + 1)(X + 1) multiply-adds
    or, where those exceed 16 N log2 N for the FFT length N, by FFT.
    """
    x_grid, atom0, f, conv = _recurrence_read(dist.cdf, dist, t, x_grid, phi)
    values = atom0 * (f - f[0]) + (conv - conv[0])
    values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
    return GridFunction(x_grid, values)


def forward_recurrence_density(
    dist: Distribution, t: float, x_grid: Grid | None = None, *, phi: GridMeasure
) -> GridFunction:
    """Density of B_t evaluated directly (no differencing):
    p_t(x) = f(t + x) + int_0^t f(t + x - u) Phi(du), read as the same
    middle product as the CDF."""
    x_grid, atom0, dens, conv = _recurrence_read(dist.density, dist, t, x_grid, phi)
    return GridFunction(x_grid, np.maximum(atom0 * dens + conv, 0.0))


def recurrence_density_at(
    dist: Distribution, t: np.ndarray, x: np.ndarray, *, phi: GridMeasure
) -> np.ndarray:
    """Pointwise densities of B_t at off-grid x: the same integral,
    f(t + x) + int_0^t f(t + x - u) Phi(du), one dot per (t, x) row.

    ``t`` and ``x`` are equal-length 1-D arrays (one density per row).  Each
    t snaps to its nearest node; Phi's atom at 0 is folded into the first
    trapezoid weight, and the lattices of all rows are read with one
    ``dist.density`` call.
    """
    ts = np.asarray(t, dtype=float)
    xs = np.asarray(x, dtype=float)
    if ts.ndim != 1 or ts.shape != xs.shape:
        raise ValueError(f"t and x must be equal-length 1-D arrays, got shapes {ts.shape} and {xs.shape}")
    if ts.size == 0:
        return np.empty(0)
    h = phi.grid.step
    rows = [_recurrence_weights(phi, t_row) for t_row in ts.tolist()]
    lattices = [kt * h + x_row - h * np.arange(kt + 1) for (kt, _), x_row in zip(rows, xs.tolist())]
    values = np.asarray(dist.density(np.concatenate(lattices)), dtype=float)
    out = np.empty(len(rows))
    start = 0
    for row, (kt, w) in enumerate(rows):
        w[0] += phi.atom0
        out[row] = np.dot(w, values[start : start + kt + 1])
        start += kt + 1
    return out


def tv_to_stationary(
    dist: Distribution,
    t: float,
    x_grid: Grid | None = None,
    *,
    phi: GridMeasure,
    diagnostics: dict | None = None,
) -> float:
    """Total variation distance between the law of B_t and the stationary
    delay law, both pushed onto the x-grid cells and the tail cell [X, inf).

    With C_B the ``forward_recurrence_cdf`` read and C_pi the closed-form
    stationary delay CDF at the x-nodes, the distance is
    sum_k |dC_B[k] - dC_pi[k]| + |C_B[X] - C_pi[X]| (L1, twice the sup over
    sets).  Both CDFs are 0 at x = 0, so no atom term is needed, and no
    density is formed: nothing is clipped, renormalized or lumped.
    """
    cdf = forward_recurrence_cdf(dist, t, x_grid, phi=phi)
    c_b = cdf.values
    c_pi = np.asarray(dist.stationary_delay_cdf(cdf.grid.nodes()), dtype=float)
    if diagnostics is not None:
        diagnostics["tail_mass_bt"] = 1.0 - float(c_b[-1])
        diagnostics["tail_mass_stationary"] = 1.0 - float(c_pi[-1])
    return float(np.sum(np.abs(np.diff(c_b) - np.diff(c_pi))) + abs(c_b[-1] - c_pi[-1]))
