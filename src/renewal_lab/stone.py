"""Constructive decomposition of the renewal measure into a bounded part and
an absolutely continuous part with density converging to the renewal rate.

The construction detects a uniform sub-component of the interarrival law
itself, in windows that shrink with the law's scale, subtracts it as the
``grids`` plateau rule and resolves the remainder by one Volterra solve;
because the discrete trapezoidal convolution algebra is associative, the
defining identities hold on the grid to rounding error, not just O(h^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import IntervalError, NegativeComponentError, NoComponentFoundError
from .grids import (
    Grid,
    GridFunction,
    GridMeasure,
    _plateau,
    convolve_measure_function,
    measure_from_distribution,
)
from .renewal import renewal_measure, volterra_renewal_density

__all__ = ["UniformComponent", "StoneDecomposition", "find_uniform_component", "stone_decompose", "phi2_tail"]

# window lengths in units of the scale mean / 2^k; the decomposition is not
# unique, so we take the feasible window maximizing the component mass (larger
# mass means a smaller bounded part and better-conditioned numerics)
_B_LATTICE = [0.25, 0.5, 1.0]
_SAFETY = 0.9
_MIN_MASS = 0.05


@dataclass(frozen=True)
class UniformComponent:
    """A constant-density sub-measure of the interarrival law on (a, a+b)."""

    a: float
    b: float
    mass: float
    n0 = 1  # the convolution power holding the component: F itself

    @property
    def level(self) -> float:
        return self.mass / self.b


def _scan_windows(density: np.ndarray, grid: Grid, scale: float, k: int) -> tuple[float, float, float] | None:
    """Best (a, b, mass) over the windows of length {0.25, 0.5, 1} * scale
    starting at (0.1 j) * scale, j = 0..40 * 2^k, windows snapped to nodes:
    the first strict maximum in that order, one array pass per length."""
    best = None
    starts = (0.1 * np.arange((40 << k) + 1)) * scale
    # a sentinel past the last node, so the window bounds ib + 1 index into it
    padded = np.append(density, np.inf)
    for b_rel in _B_LATTICE:
        b = b_rel * scale
        a = starts[starts + b < grid.horizon]
        # Grid.index_of's rounding: np.rint and round both go half to even
        ia, ib = np.rint(a / grid.step).astype(int), np.rint((a + b) / grid.step).astype(int)
        ia, ib = ia[ib > ia], ib[ib > ia]
        if ia.size == 0:
            continue
        level = np.minimum.reduceat(padded, np.stack((ia, ib + 1), axis=1).ravel())[::2]
        mass = _SAFETY * ((ib - ia) * grid.step) * level
        i = int(np.argmax(mass))
        if mass[i] > 0.0 and (best is None or mass[i] > best[2]):
            best = (float(ia[i] * grid.step), float((ib[i] - ia[i]) * grid.step), float(mass[i]))
    return best


def _first_component(dist: Distribution, grid: Grid) -> tuple[UniformComponent, GridMeasure]:
    """The first component found and F: windows in the scale mean / 2^k for
    k = 0, 1, ... while the shortest window spans a grid step."""
    kernel = measure_from_distribution(dist, grid)
    scale, k = dist.mean(), 0
    while True:
        best = _scan_windows(kernel.density, grid, scale, k)
        if best is not None and best[2] >= _MIN_MASS:
            return UniformComponent(*best), kernel
        if 0.125 * scale < grid.step:
            raise NoComponentFoundError(
                f"no uniform component of mass >= {_MIN_MASS} in windows down to {0.25 * scale:g}; "
                f"a shorter one would be under the grid step {grid.step:g}"
            )
        scale, k = 0.5 * scale, k + 1


def find_uniform_component(dist: Distribution, grid: Grid) -> UniformComponent:
    """F's best uniform window of mass >= 0.05 at the coarsest scale holding one.

    The 0.9 safety factor on b * (minimum density over the window) keeps the
    component strictly below F's density despite grid interpolation.
    """
    return _first_component(dist, grid)[0]


@dataclass(frozen=True)
class StoneDecomposition:
    """Phi = Phi1 + Phi2 with Phi2 bounded and Phi1 = phi1(x) dx, phi1 -> m."""

    component: UniformComponent
    phi2: GridMeasure
    phi1: GridFunction
    phi: GridMeasure
    phi1_crosscheck_dev: float
    truncation_bound: float


def stone_decompose(dist: Distribution, grid: Grid) -> StoneDecomposition:
    """Decompose the renewal measure from a detected uniform component.

    Phi2 = Phi0^(2), the sum of the powers of F - G0, is one Volterra solve.
    phi1 is defined by subtraction (so reconstruction is exact on the grid)
    and cross-checked against the convolution form Phi0^(2) * (Phi * g0);
    the sup relative deviation of the two routes is reported on the result.
    """
    component, kernel = _first_component(dist, grid)
    g0 = _plateau(grid, component.a, component.a + component.b, component.level)
    h_density = kernel.density - g0
    worst = float(np.min(h_density))
    if worst < -1e-8:
        raise NegativeComponentError(
            f"component exceeds the interarrival density by {-worst:g}; inconsistent window"
        )
    np.clip(h_density, 0.0, None, out=h_density)

    phi2 = GridMeasure(grid, 1.0, np.maximum(volterra_renewal_density(h_density, h_density, grid), 0.0))
    phi = renewal_measure(dist, grid)
    phi1 = GridFunction(grid, phi.density - phi2.density)

    alt = convolve_measure_function(phi2, convolve_measure_function(phi, GridFunction(grid, g0)))
    scale = max(float(np.max(np.abs(phi1.values))), 1e-300)
    crosscheck = float(np.max(np.abs(alt.values - phi1.values))) / scale

    truncation = max(0.0, 1.0 / component.mass - phi2.total_mass())
    return StoneDecomposition(component, phi2, phi1, phi, crosscheck, truncation)


def phi2_tail(dec: StoneDecomposition, x: float) -> float:
    """Upper estimate of Phi2([x, infinity)): in-horizon mass beyond x plus the
    truncation bound for whatever escaped the horizon."""
    if np.isnan(x):
        raise IntervalError(f"x = {x:g} is not a number")
    phi2 = dec.phi2
    if x <= 0.0:
        return phi2.total_mass() + dec.truncation_bound
    if x >= phi2.grid.horizon:
        return dec.truncation_bound
    cum = phi2.cumulative()
    at_x = float(np.interp(x, phi2.grid.nodes(), cum))
    return phi2.total_mass() - at_x + dec.truncation_bound
