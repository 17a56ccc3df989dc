"""Decay-rate experiments: error curves for the renewal-convolution limit,
total-variation decay of the recurrence law, and log-log slope fits.

Little-o claims are tested in their strongest falsifiable desk-scale form:
the fitted log-log slope must sit below the negated exponent (plus a fixed
tolerance), with points under a caller-supplied numerical floor excluded so
the fit never chases discretization noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats

from .distributions import Distribution
from .errors import InsufficientPointsError
from .grids import Grid, GridFunction, GridMeasure, convolve_measure_function_at
from .renewal import tv_to_stationary

__all__ = ["DecayCurve", "SlopeFit", "krt_error_curve", "tv_decay_curve", "fit_slope"]


@dataclass(frozen=True)
class DecayCurve:
    xs: np.ndarray
    errs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        errs = np.asarray(self.errs, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "errs", errs)
        if xs.shape != errs.shape or xs.ndim != 1:
            raise ValueError("xs and errs must be 1-d arrays of equal length")
        if np.any(np.diff(xs) <= 0.0) or np.any(xs <= 0.0):
            raise ValueError("xs must be positive and strictly increasing")
        if not np.all(np.isfinite(errs)) or np.any(errs < 0.0):
            raise ValueError("errs must be finite and nonnegative")


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float
    n_points: int


def limit_integral(z_fn, tail_exponent: float, split: float) -> float:
    """int_0^inf z by adaptive quadrature on [0, split] plus the analytic tail
    of the power family z(y) ~ (1+y)^(-r): int_split^inf = z(split)(1+split)/(r-1)."""
    head, _ = integrate.quad(z_fn, 0.0, split, limit=400)
    tail = float(z_fn(split)) * (1.0 + split) / (tail_exponent - 1.0)
    return head + tail


def krt_error_curve(
    dist: Distribution,
    z_fn,
    tail_exponent: float,
    xs,
    *,
    phi: GridMeasure,
    grid: Grid | None = None,
) -> DecayCurve:
    """err(x) = |(Phi * z)(x) - m int_0^inf z| at the requested points.

    ``z_fn`` must be integrable and bounded with a known power-law tail
    exponent ``tail_exponent`` > 1 (used for the analytic tail of the limit
    integral).  ``grid`` defaults to Phi's own grid.  Points snap to grid
    nodes; a point outside [0, horizon] raises ``HorizonExceededError``.
    """
    if grid is None:
        grid = phi.grid
    z = GridFunction.from_callable(grid, z_fn)
    target = dist.rate() * limit_integral(z_fn, tail_exponent, grid.horizon)
    xs = np.asarray(xs, dtype=float)
    errs = np.empty_like(xs)
    snapped = np.empty_like(xs)
    for i, x in enumerate(xs):
        k = grid.index_of(float(x))
        snapped[i] = k * grid.step
        errs[i] = abs(convolve_measure_function_at(phi, z, k) - target)
    return DecayCurve(snapped, errs)


def tv_decay_curve(
    dist: Distribution,
    ts,
    *,
    phi: GridMeasure,
    x_grid: Grid | None = None,
) -> DecayCurve:
    """err(t) = total variation between the recurrence law at t and the
    stationary delay law, read off the renewal measure Phi."""
    ts = np.asarray(ts, dtype=float)
    errs = np.asarray([tv_to_stationary(dist, float(t), x_grid, phi=phi) for t in ts])
    return DecayCurve(ts, errs)


def fit_slope(curve: DecayCurve, window: tuple[float, float], floor: float = 0.0) -> SlopeFit:
    """Ordinary least squares of log err against log x inside the window.

    Points with err <= floor are excluded; fewer than five usable points is
    an error, which counts the excluded ones, rather than a silent bad fit.
    """
    lo, hi = window
    in_window = (curve.xs >= lo) & (curve.xs <= hi)
    usable = in_window & (curve.errs > floor)
    n_points = int(np.sum(usable))
    if n_points < 5:
        raise InsufficientPointsError(
            f"{n_points} usable points in window [{lo:g}, {hi:g}] "
            f"({int(np.sum(in_window)) - n_points} below the floor {floor:g}); need >= 5"
        )
    lx = np.log(curve.xs[usable])
    ly = np.log(curve.errs[usable])
    res = stats.linregress(lx, ly)
    return SlopeFit(
        slope=float(res.slope),
        intercept=float(res.intercept),
        r2=float(res.rvalue**2),
        n_points=n_points,
    )
