"""Constructive decomposition of the renewal measure into a bounded part and
an absolutely continuous part with density converging to the renewal rate.

The construction detects a uniform sub-component of a convolution power of
the interarrival law, subtracts it, and resolves the remainder by a Volterra
solve; because the discrete trapezoidal convolution algebra is associative,
the defining identities hold on the grid to rounding error, not just O(h^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import NegativeComponentError, NoComponentFoundError
from .grids import (
    Grid,
    GridFunction,
    GridMeasure,
    convolve_measure_function,
    convolve_measures,
    measure_from_distribution,
)
from .renewal import renewal_measure, volterra_renewal_density

__all__ = ["UniformComponent", "StoneDecomposition", "find_uniform_component", "stone_decompose", "phi2_tail"]

# candidate windows in units of the mean; the decomposition is not unique,
# so we take the feasible window maximizing the component mass (larger mass
# means a smaller bounded part and better-conditioned numerics)
_A_LATTICE = [0.1 * j for j in range(41)]
_B_LATTICE = [0.25, 0.5, 1.0]
_SAFETY = 0.9
_MIN_MASS = 0.05
# highest convolution power scanned for a component
_N_MAX = 6


@dataclass(frozen=True)
class UniformComponent:
    """A constant-density sub-measure of the n0-th convolution power on (a, a+b)."""

    n0: int
    a: float
    b: float
    mass: float

    @property
    def level(self) -> float:
        return self.mass / self.b

    def grid_density(self, grid: Grid) -> np.ndarray:
        """Node realization with half-level edge nodes so the trapezoidal mass
        is exactly ``mass`` (a plateau sampled naively would carry level*(b+h))."""
        ia, ib = grid.index_of(self.a), grid.index_of(self.a + self.b)
        g = np.zeros(grid.n_nodes)
        g[ia : ib + 1] = self.level
        g[ib] = 0.5 * self.level
        if ia > 0:
            g[ia] = 0.5 * self.level
        return g


def _scan_windows(density: np.ndarray, grid: Grid, mean: float) -> tuple[float, float, float] | None:
    """Best (a, b, mass) over the candidate lattice, windows snapped to nodes."""
    best = None
    for b_rel in _B_LATTICE:
        b = b_rel * mean
        for a_rel in _A_LATTICE:
            a = a_rel * mean
            if a + b >= grid.horizon:
                continue
            ia, ib = grid.index_of(a), grid.index_of(a + b)
            if ib <= ia:
                continue
            a_snap, b_snap = ia * grid.step, (ib - ia) * grid.step
            level = float(np.min(density[ia : ib + 1]))
            mass = _SAFETY * b_snap * level
            if mass <= 0.0:
                continue
            if best is None or mass > best[2]:
                best = (a_snap, b_snap, mass)
    return best


def _first_component(dist: Distribution, grid: Grid) -> tuple[UniformComponent, GridMeasure, GridMeasure]:
    """The first component found, with the kernel F and the power F^{*n0} it sits in."""
    kernel = measure_from_distribution(dist, grid)
    power = kernel
    mean = dist.mean()
    for n in range(1, _N_MAX + 1):
        if n > 1:
            power = convolve_measures(power, kernel)
        best = _scan_windows(power.density, grid, mean)
        if best is not None and best[2] >= _MIN_MASS:
            a, b, mass = best
            return UniformComponent(n, a, b, mass), kernel, power
    raise NoComponentFoundError(
        f"no uniform component of mass >= {_MIN_MASS} in powers 1..{_N_MAX}; "
        "the grid is likely too coarse for the density scale"
    )


def find_uniform_component(dist: Distribution, grid: Grid) -> UniformComponent:
    """First convolution power with a uniform component of mass >= 0.05.

    The 0.9 safety factor on b * (minimum density over the window) keeps the
    component strictly below the power's density despite grid interpolation.
    """
    return _first_component(dist, grid)[0]


@dataclass(frozen=True)
class StoneDecomposition:
    """Phi = Phi1 + Phi2 with Phi2 bounded and Phi1 = phi1(x) dx, phi1 -> m."""

    component: UniformComponent
    phi2: GridMeasure
    phi1: GridFunction
    phi0_2: GridMeasure
    phi: GridMeasure
    phi1_crosscheck_dev: float
    truncation_bound: float


def stone_decompose(dist: Distribution, grid: Grid) -> StoneDecomposition:
    """Decompose the renewal measure from a detected uniform component.

    phi1 is defined by subtraction (so reconstruction is exact on the grid)
    and cross-checked against the convolution form
    Phi0^(2) * (Phi * g0); the sup relative deviation of the two routes is
    reported on the result.
    """
    component, kernel, power = _first_component(dist, grid)
    g0 = component.grid_density(grid)
    h_density = power.density - g0
    worst = float(np.min(h_density))
    if worst < -1e-8:
        raise NegativeComponentError(
            f"component exceeds the convolution power by {-worst:g}; inconsistent window"
        )
    np.clip(h_density, 0.0, None, out=h_density)

    # Phi0^(2) = sum of convolution powers of H, via one Volterra pass
    phi0_2 = GridMeasure(grid, 1.0, np.maximum(volterra_renewal_density(h_density, h_density, grid), 0.0))

    phi2 = term = phi0_2
    for _ in range(component.n0 - 1):
        term = convolve_measures(term, kernel)
        phi2 = GridMeasure(grid, phi2.atom0 + term.atom0, phi2.density + term.density)

    phi = renewal_measure(dist, grid)
    phi1 = GridFunction(grid, phi.density - phi2.density)

    alt = convolve_measure_function(phi0_2, convolve_measure_function(phi, GridFunction(grid, g0)))
    scale = max(float(np.max(np.abs(phi1.values))), 1e-300)
    crosscheck = float(np.max(np.abs(alt.values - phi1.values))) / scale

    truncation = max(0.0, component.n0 / component.mass - phi2.total_mass())
    return StoneDecomposition(component, phi2, phi1, phi0_2, phi, crosscheck, truncation)


def phi2_tail(dec: StoneDecomposition, x: float) -> float:
    """Upper estimate of Phi2([x, infinity)): in-horizon mass beyond x plus the
    truncation bound for whatever escaped the horizon."""
    phi2 = dec.phi2
    if x <= 0.0:
        return phi2.total_mass() + dec.truncation_bound
    if x >= phi2.grid.horizon:
        return dec.truncation_bound
    cum = phi2.cumulative()
    at_x = float(np.interp(x, phi2.grid.nodes(), cum))
    return phi2.total_mass() - at_x + dec.truncation_bound
