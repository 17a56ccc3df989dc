"""Deterministic solvers for the renewal function, the renewal equation,
and the forward-recurrence-time law.

Everything runs on a uniform grid.  The renewal measure solves
Phi = delta_0 + F * Phi with the trapezoidal rule and an implicit diagonal
term, which is unconditionally stable for subprobability kernels and O(h^2)
accurate.  The discrete equation is a lower-triangular Toeplitz system; it
is solved by relaxed (online) convolution in O(n log^2 n): dense 256-node
blocks, each one LAPACK ``dtrtrs`` call, with the effect of each solved
stretch on the next pushed forward by one ``grids._middle_product`` (Hairer,
Lubich & Schlichte 1985; van der Hoeven 2002), the product every
multi-output trapezoidal sum goes through.  The kernel is the fixed
operand of those products, so a solve transforms it once per stretch
length.  The forward recurrence law at time t is evaluated from the
identity P(B_t <= x) = int_0^t F((t-u, t+x-u]) Phi(du), and its density
the same way with f: on the X + 1 x-nodes each is one middle product of
the trapezoid weights of Phi on [0, t] with F or f on the lattice.  The total
variation distance to the stationary delay law compares that CDF with the
closed-form stationary CDF cell by cell, so no density is formed for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.lapack import dtrtrs

from .distributions import Distribution
from .errors import IncompatibleGridsError, SingularBlockError, StepTooCoarseError
from .grids import (
    Grid,
    GridFunction,
    GridMeasure,
    _middle_product,
    _steps_match,
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


# nodes solved together by one dense triangular solve: of 64, 128, 256 and
# 512, 256 gave the fastest grid-solve benchmark pass (0.18, 0.15, 0.14 and
# 0.16 s on 2 vCPUs)
_BLOCK = 256


def _solve_block(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with upper.T @ x = rhs, by LAPACK ``dtrtrs`` on the upper-triangular
    Fortran-ordered ``upper``: the call scipy's ``solve_triangular`` makes for
    a C-ordered lower-triangular matrix, without its argument checks."""
    x, info = dtrtrs(upper, rhs, lower=0, trans=1)
    if info != 0:
        raise SingularBlockError(f"LAPACK dtrtrs returned info = {info} on a {len(rhs)}-node block")
    return x


def volterra_renewal_density(kernel: np.ndarray, rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve X(t) = rhs(t) + int_0^t k(t-u) X(u) du on the grid nodes.

    The trapezoidal unknowns x[1..n] form a lower-triangular Toeplitz system
    with diagonal 1 - h k(0) / 2 (the implicit u = t term) and sub-diagonals
    -h k(d); the solve fails as step-too-coarse when the diagonal is <= 0.
    Blocks of 256 nodes are solved left to right against one 256 x 256
    triangular matrix, each by one direct LAPACK ``dtrtrs`` call
    (``_solve_block``).  After the block ending at node i, with s = 256 * 2^v
    the largest such size dividing i (i / s odd), the stretch x[i-s:i] adds
    its effect on the next out = min(s, n - i) nodes through one
    ``grids._middle_product`` of its s values with h k[1 : s + out]: every
    node pair then meets exactly once, in O(n log^2 n).  Only the out
    outputs kept are computed, so the last product of a solve is as short
    as what is left of the grid.  The kernel slice depends only on the
    product length s + out - 1, so the solve keeps one spectrum table for
    all its products: full stretches of one size share a kernel spectrum,
    the shorter last product has its own, and nothing outlives the call.
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
    # the lower-triangular Toeplitz block in C order; its transpose is the
    # Fortran-ordered upper-triangular array LAPACK reads without a copy
    upper = toeplitz(np.concatenate(([diag], -hk[1:m])), np.zeros(m)).T
    # kernel spectra of this solve's stretch products, by product length
    spectra = {}
    for start in range(0, n, m):
        stop = min(start + m, n)
        width = stop - start
        y[start:stop] = _solve_block(upper[:width, :width], acc[start:stop])
        if stop == n:
            break
        blocks = stop // m
        s = m * (blocks & -blocks)
        out = min(s, n - stop)
        acc[stop : stop + out] += _middle_product(y[stop - s : stop], hk[1 : s + out], out - 1, spectra)
    return x


def renewal_measure(dist: Distribution, grid: Grid) -> GridMeasure:
    """Renewal measure Phi = sum of convolution powers of F, as atom 1 at 0
    plus a density, solved from Phi = delta_0 + F * Phi."""
    kernel = measure_from_distribution(dist, grid)
    density = volterra_renewal_density(kernel.density, kernel.density, grid)
    return GridMeasure(grid, 1.0, np.maximum(density, 0.0))


@dataclass(frozen=True)
class RenewalSolution:
    """Solution Z of Z = z + F * Z with its solver residual."""

    Z: GridFunction
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
    conv = convolve_measure_function(kernel, Z)
    residual = float(np.max(np.abs(values - forcing.values - conv.values)))
    return RenewalSolution(Z, residual)


def linear_forcing(dist: Distribution, grid: Grid) -> GridFunction:
    """The forcing z(t) = m int_0^t (1 - F(x)) dx whose solution is exactly m t,
    built by trapezoidal cumulative integration of the stationary delay density."""
    pi = dist.stationary_delay_density(grid.nodes())
    return GridFunction(grid, GridMeasure(grid, 0.0, pi).cumulative())


def _check_steps_match(x_grid: Grid, phi: GridMeasure) -> None:
    if not _steps_match(x_grid.step, phi.grid.step, 1e-9):
        raise IncompatibleGridsError(
            f"x-grid step {x_grid.step!r} must match the time grid step {phi.grid.step!r}"
        )


def _recurrence_read(
    values_at, dist: Distribution, t: float, x_grid: Grid | None, phi: GridMeasure
) -> tuple[Grid, np.ndarray]:
    """x-grid and int_[0,t] g(t + x - u) Phi(du) at the x-grid nodes, for g
    evaluated on the lattice h * arange by ``values_at``, a law's bare
    formula: every lattice point is >= 0."""
    if x_grid is None:
        x_grid = default_recurrence_grid(dist, phi.grid.step)
    _check_steps_match(x_grid, phi)
    kt = phi.grid.index_of(t)
    nodes = values_at(phi.grid.step * np.arange(kt + x_grid.count + 1))
    return x_grid, _middle_product(phi.trapezoid_weights(kt), nodes, x_grid.count)


def _recurrence_cdf(
    dist: Distribution, t: float, x_grid: Grid | None, phi: GridMeasure
) -> tuple[Grid, np.ndarray, np.ndarray]:
    """x-grid, the B_t CDF clipped to [0, 1] and made nondecreasing, and the
    CDF as read, before that correction."""
    x_grid, conv = _recurrence_read(dist._cdf, dist, t, x_grid, phi)
    raw = conv - conv[0]
    return x_grid, np.maximum.accumulate(np.clip(raw, 0.0, 1.0)), raw


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
    or, where those exceed 16 N log2 N for N the power of two that holds
    the kt + X + 1 lattice values, by FFT.
    """
    x_grid, values, _ = _recurrence_cdf(dist, t, x_grid, phi)
    return GridFunction(x_grid, values)


def forward_recurrence_density(
    dist: Distribution, t: float, x_grid: Grid | None = None, *, phi: GridMeasure
) -> GridFunction:
    """Density of B_t evaluated directly (no differencing):
    p_t(x) = int_[0,t] f(t + x - u) Phi(du), whose atom at 0 gives the
    f(t + x) term, read as the same middle product as the CDF."""
    x_grid, conv = _recurrence_read(dist._density, dist, t, x_grid, phi)
    return GridFunction(x_grid, np.maximum(conv, 0.0))


def recurrence_density_at(dist: Distribution, t: np.ndarray, x: np.ndarray, *, phi: GridMeasure) -> np.ndarray:
    """Pointwise densities of B_t at off-grid x: the same integral,
    int_[0,t] f(t + x - u) Phi(du), one dot per (t, x) row of the
    equal-length 1-D arrays ``t`` and ``x``, x >= 0; each t snaps to its
    nearest node."""
    ts = np.asarray(t, dtype=float)
    xs = np.asarray(x, dtype=float)
    if ts.ndim != 1 or ts.shape != xs.shape:
        raise ValueError(f"t and x must be equal-length 1-D arrays, got shapes {ts.shape} and {xs.shape}")
    if (xs < 0.0).any():
        raise ValueError(f"x must be >= 0, the support of B_t, got x = {xs[xs < 0.0][0]:g}")
    if ts.size == 0:
        return np.empty(0)
    kts = [phi.grid.index_of(t_row) for t_row in ts.tolist()]
    return np.array(_density_rows(dist, kts, xs.tolist(), phi))


def _density_rows(dist: Distribution, kts: list, xs: list, phi: GridMeasure) -> list:
    """``recurrence_density_at``'s rows at the snapped nodes ``kts``, as floats.
    Every row's lattice offsets are ``phi.node_offsets[: kt + 1]``, all
    lattices are one call of the bare formula ``dist._density``, and each row
    is one dot with ``phi.trapezoid_weights(kt)``.  Each entry
    fl(fl(kt h + x) - j h) is >= 0 for x >= 0, so the formula needs no
    below-zero rule."""
    h = phi.grid.step
    offsets = phi.node_offsets
    lattice = np.empty(sum(kts) + len(kts))
    start = 0
    for kt, x_row in zip(kts, xs):
        np.subtract(kt * h + x_row, offsets[: kt + 1], out=lattice[start : start + kt + 1])
        start += kt + 1
    values = dist._density(lattice)
    out = []
    start = 0
    for kt in kts:
        out.append(float(np.dot(phi.trapezoid_weights(kt), values[start : start + kt + 1])))
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
    density is formed: nothing is renormalized or lumped.

    ``diagnostics``, when given, receives the two tail masses 1 - C[X] and
    ``clip_correction``, the sup over the x-nodes of what clipping C_B to
    [0, 1] and making it nondecreasing moved; the trapezoid read is O(h^2)
    accurate, so a larger correction flags a read gone wrong.
    """
    x_grid, c_b, raw = _recurrence_cdf(dist, t, x_grid, phi)
    c_pi = np.asarray(dist.stationary_delay_cdf(x_grid.nodes()), dtype=float)
    if diagnostics is not None:
        diagnostics["clip_correction"] = float(np.max(np.abs(c_b - raw)))
        diagnostics["tail_mass_bt"] = 1.0 - float(c_b[-1])
        diagnostics["tail_mass_stationary"] = 1.0 - float(c_pi[-1])
    return float(np.sum(np.abs(np.diff(c_b) - np.diff(c_pi))) + abs(c_b[-1] - c_pi[-1]))
