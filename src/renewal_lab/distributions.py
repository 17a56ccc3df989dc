"""Parametric interarrival laws with exact density, CDF, hazard and sampling.

Four families are supported: exponential, gamma (shape >= 1), uniform on
[lo, hi] with lo >= 0, and the shifted Pareto (Lomax) law with density
r c^r (c+x)^(-r-1).  Together they cover the all-moments-finite and the
finitely-many-moments regimes needed by the rate experiments.

All objects are immutable after construction; samplers take an explicit
``numpy.random.Generator`` owned by the caller.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln

from .errors import ConfigError, SupportExhaustedError

__all__ = [
    "Distribution",
    "Exponential",
    "Gamma",
    "Uniform",
    "ShiftedPareto",
    "MomentReport",
    "distribution_from_config",
]


@dataclass(frozen=True)
class MomentReport:
    """Raw moment E[tau^order]; ``value`` is ``math.inf`` for divergent moments."""

    order: float
    value: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


class Distribution(ABC):
    """A positive interarrival law with density, no atom at 0, finite mean."""

    kind: str

    # -- core analytic functions -------------------------------------------

    @abstractmethod
    def density(self, x):
        """Density f(x); 0 for x < 0."""

    @abstractmethod
    def cdf(self, x):
        """F(x) = P(tau <= x); 0 for x < 0."""

    @abstractmethod
    def quantile(self, u):
        """Inverse CDF, u in [0, 1)."""

    @abstractmethod
    def moment(self, order: float) -> MomentReport:
        """Raw moment E[tau^order] for order >= 1, closed form per family."""

    @abstractmethod
    def mean(self) -> float:
        ...

    def support_end(self) -> float:
        """Right end of the support (inf unless the law is bounded)."""
        return math.inf

    def rate(self) -> float:
        """Renewal rate m = 1 / mean."""
        return 1.0 / self.mean()

    # -- derived functions --------------------------------------------------

    def hazard(self, x):
        """mu(x) = f(x) / (1 - F(x)); fails where the support is exhausted."""
        x = np.asarray(x, dtype=float)
        sf = 1.0 - self.cdf(x)
        if np.any(sf <= 0.0):
            raise SupportExhaustedError(
                f"hazard undefined at x >= {self.support_end():g} for {self.kind}"
            )
        out = self.density(x) / sf
        return float(out) if np.ndim(out) == 0 else out

    def cumulative_hazard(self, x):
        """-log(1 - F(x)); nondecreasing, equals the integrated hazard."""
        x = np.asarray(x, dtype=float)
        cdf = self.cdf(x)
        if np.any(cdf >= 1.0):
            raise SupportExhaustedError(
                f"cumulative hazard diverges at x >= {self.support_end():g} "
                f"for {self.kind}"
            )
        out = -np.log1p(-cdf)
        return float(out) if np.ndim(out) == 0 else out

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF transform of uniform draws; reproducible given the rng."""
        u = rng.random(size)
        return self.quantile(u)

    @abstractmethod
    def _interarrival_draw(self, rng: np.random.Generator, size):
        """Draws from numpy's native sampler for the kind (not inverse-CDF)."""

    # -- stationary delay ----------------------------------------------------

    def stationary_delay_density(self, x):
        """pi(x) = m (1 - F(x)), the delay density that makes increments stationary."""
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0.0, 0.0, self.rate() * (1.0 - self.cdf(x)))
        return float(out) if np.ndim(out) == 0 else out

    def stationary_delay_cdf(self, x):
        """Integral of the stationary delay density: m * int_0^x (1-F)."""
        x = np.asarray(x, dtype=float)
        out = np.clip(self._stationary_cdf_impl(np.maximum(x, 0.0)), 0.0, 1.0)
        out = np.where(x < 0.0, 0.0, out)
        return float(out) if np.ndim(out) == 0 else out

    @abstractmethod
    def _stationary_cdf_impl(self, x):
        ...

    def sample_stationary_delay(self, rng: np.random.Generator, size=None):
        """Exact draws from the stationary delay law, in closed form.

        The stationary delay is U * tau~, with U uniform on (0, 1) and tau~
        the size-biased interarrival of density x f(x) / mean (Asmussen,
        Applied Probability and Queues, 2003, Ch. V); each kind draws it
        with numpy's native samplers.  A float when ``size`` is None, an
        array otherwise.
        """
        out = self._stationary_delay_draw(rng, size)
        return float(out) if size is None else out

    @abstractmethod
    def _stationary_delay_draw(self, rng: np.random.Generator, size):
        ...

    # -- config round trip ----------------------------------------------------

    @abstractmethod
    def to_config(self) -> dict:
        ...

    def __repr__(self) -> str:  # pragma: no cover
        fields = ", ".join(f"{k}={v:g}" for k, v in self.to_config().items() if k != "kind")
        return f"{type(self).__name__}({fields})"


@dataclass(frozen=True, repr=False)
class Exponential(Distribution):
    rate_: float

    kind = "exponential"

    def __post_init__(self):
        if not self.rate_ > 0.0:
            raise ValueError(f"exponential rate must be > 0, got {self.rate_}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0.0, 0.0, self.rate_ * np.exp(-self.rate_ * np.maximum(x, 0.0)))
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0.0, 0.0, -np.expm1(-self.rate_ * np.maximum(x, 0.0)))
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        out = -np.log1p(-u) / self.rate_
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return 1.0 / self.rate_

    def moment(self, order: float) -> MomentReport:
        value = math.exp(gammaln(order + 1.0)) / self.rate_**order
        return MomentReport(order, value)

    def _stationary_cdf_impl(self, x):
        # memorylessness: the stationary delay law coincides with F
        return self.cdf(x)

    def _interarrival_draw(self, rng, size):
        return rng.exponential(1.0 / self.rate_, size)

    def _stationary_delay_draw(self, rng, size):
        return rng.exponential(1.0 / self.rate_, size)

    def to_config(self) -> dict:
        return {"kind": self.kind, "rate": self.rate_}


@dataclass(frozen=True, repr=False)
class Gamma(Distribution):
    shape: float
    rate_: float

    kind = "gamma"

    def __post_init__(self):
        if not self.shape >= 1.0:
            raise ValueError(f"gamma shape must be >= 1, got {self.shape}")
        if not self.rate_ > 0.0:
            raise ValueError(f"gamma rate must be > 0, got {self.rate_}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        out = np.zeros_like(x, dtype=float)
        xp = np.where(pos, x, 1.0)
        log_pdf = (
            self.shape * math.log(self.rate_)
            + (self.shape - 1.0) * np.log(xp)
            - self.rate_ * xp
            - gammaln(self.shape)
        )
        out = np.where(pos, np.exp(log_pdf), 0.0)
        if self.shape == 1.0:
            out = np.where(x == 0.0, self.rate_, out)
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0.0, 0.0, gammainc(self.shape, self.rate_ * np.maximum(x, 0.0)))
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        out = gammaincinv(self.shape, u) / self.rate_
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return self.shape / self.rate_

    def moment(self, order: float) -> MomentReport:
        value = math.exp(gammaln(self.shape + order) - gammaln(self.shape))
        return MomentReport(order, value / self.rate_**order)

    def _stationary_cdf_impl(self, x):
        # integrate by parts: int_0^x (1-F) = x(1-F(x)) + int_0^x u f(u) du
        x = np.asarray(x, dtype=float)
        partial_mean = (self.shape / self.rate_) * gammainc(self.shape + 1.0, self.rate_ * x)
        return self.rate_ / self.shape * (x * (1.0 - gammainc(self.shape, self.rate_ * x)) + partial_mean)

    def _interarrival_draw(self, rng, size):
        return rng.gamma(self.shape, 1.0 / self.rate_, size)

    def _stationary_delay_draw(self, rng, size):
        # the size-biased Gamma(k, rate) law is Gamma(k + 1, rate)
        return rng.random(size) * rng.gamma(self.shape + 1.0, 1.0 / self.rate_, size)

    def to_config(self) -> dict:
        return {"kind": self.kind, "shape": self.shape, "rate": self.rate_}


@dataclass(frozen=True, repr=False)
class Uniform(Distribution):
    lo: float
    hi: float

    kind = "uniform"

    def __post_init__(self):
        if not self.lo >= 0.0:
            raise ValueError(f"uniform lo must be >= 0, got {self.lo}")
        if not self.hi > self.lo:
            raise ValueError(f"uniform needs hi > lo, got [{self.lo}, {self.hi}]")
        if self.lo == 0.0 and self.hi == 0.0:
            raise ValueError("degenerate uniform")

    def support_end(self) -> float:
        return self.hi

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        out = np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        out = np.where(x < 0.0, 0.0, out)
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        out = self.lo + u * (self.hi - self.lo)
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def moment(self, order: float) -> MomentReport:
        s = order
        value = (self.hi ** (s + 1.0) - self.lo ** (s + 1.0)) / ((s + 1.0) * (self.hi - self.lo))
        return MomentReport(order, value)

    def _stationary_cdf_impl(self, x):
        x = np.asarray(x, dtype=float)
        m = self.rate()
        width = self.hi - self.lo
        below = m * x
        inside = m * (self.lo + (width**2 - np.square(np.maximum(self.hi - x, 0.0))) / (2.0 * width))
        return np.where(x <= self.lo, below, np.where(x >= self.hi, 1.0, inside))

    def _interarrival_draw(self, rng, size):
        return rng.uniform(self.lo, self.hi, size)

    def _stationary_delay_draw(self, rng, size):
        # the size-biased law has CDF (x^2 - lo^2) / (hi^2 - lo^2) on [lo, hi]
        u = rng.random(size)
        v = rng.random(size)
        return u * np.sqrt(self.lo**2 + v * (self.hi**2 - self.lo**2))

    def to_config(self) -> dict:
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True, repr=False)
class ShiftedPareto(Distribution):
    """Lomax law: density r c^r (c+x)^(-r-1), tail index r > 1, scale c > 0."""

    tail: float
    scale: float

    kind = "shifted-pareto"

    def __post_init__(self):
        if not self.tail > 1.0:
            raise ValueError(f"shifted-pareto tail index must be > 1, got {self.tail}")
        if not self.scale > 0.0:
            raise ValueError(f"shifted-pareto scale must be > 0, got {self.scale}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        r, c = self.tail, self.scale
        out = np.where(x < 0.0, 0.0, r / c * np.power(1.0 + np.maximum(x, 0.0) / c, -r - 1.0))
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0.0, 0.0, 1.0 - np.power(1.0 + np.maximum(x, 0.0) / self.scale, -self.tail))
        return float(out) if np.ndim(out) == 0 else out

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        out = self.scale * (np.power(1.0 - u, -1.0 / self.tail) - 1.0)
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return self.scale / (self.tail - 1.0)

    def moment(self, order: float) -> MomentReport:
        if order >= self.tail:
            return MomentReport(order, math.inf)
        log_val = gammaln(order + 1.0) + gammaln(self.tail - order) - gammaln(self.tail)
        return MomentReport(order, self.scale**order * math.exp(log_val))

    def _stationary_cdf_impl(self, x):
        # the equilibrium law of a Lomax(r, c) is Lomax(r-1, c)
        x = np.asarray(x, dtype=float)
        return 1.0 - np.power(1.0 + x / self.scale, -(self.tail - 1.0))

    def _interarrival_draw(self, rng, size):
        return self.scale * rng.pareto(self.tail, size)

    def _stationary_delay_draw(self, rng, size):
        return self.scale * rng.pareto(self.tail - 1.0, size)

    def to_config(self) -> dict:
        return {"kind": self.kind, "tail": self.tail, "scale": self.scale}


_REQUIRED_FIELDS = {
    "exponential": ("rate",),
    "gamma": ("shape", "rate"),
    "uniform": ("lo", "hi"),
    "shifted-pareto": ("tail", "scale"),
}


def _config_number(field: str, value) -> float:
    """A finite JSON number as a float; booleans, strings, inf and nan raise
    ``ConfigError`` naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(field, f"expected a finite number, got {value!r}")
    return float(value)


def distribution_from_config(cfg: dict) -> Distribution:
    """Build a distribution from its JSON form, e.g. {"kind": "gamma", "shape": 2, "rate": 1}."""
    if not isinstance(cfg, dict):
        raise ConfigError("distribution", "expected an object")
    kind = cfg.get("kind")
    if kind not in _REQUIRED_FIELDS:
        raise ConfigError("distribution.kind", f"unknown kind {kind!r}; expected one of {sorted(_REQUIRED_FIELDS)}")
    fields = _REQUIRED_FIELDS[kind]
    extra = set(cfg) - {"kind", *fields}
    if extra:
        raise ConfigError("distribution", f"unexpected fields {sorted(extra)} for kind {kind!r}")
    values = []
    for name in fields:
        if name not in cfg:
            raise ConfigError(f"distribution.{name}", f"required for kind {kind!r}")
        values.append(_config_number(f"distribution.{name}", cfg[name]))
    try:
        if kind == "exponential":
            return Exponential(*values)
        if kind == "gamma":
            return Gamma(*values)
        if kind == "uniform":
            return Uniform(*values)
        return ShiftedPareto(*values)
    except ValueError as exc:
        raise ConfigError("distribution", str(exc)) from None
