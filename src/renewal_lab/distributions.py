"""Parametric interarrival laws with exact density, CDF, cumulative hazard and sampling.

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
import dataclasses
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

    value: float


def _scalar(out):
    """A float for 0-d output; arrays pass through."""
    return float(out) if np.ndim(out) == 0 else out


def _on_support(formula, x):
    """``formula`` on x as a float array, 0 below 0: it reads x as is while no
    entry has its sign bit set, else max(x, 0), so -0.0 reads as +0.0."""
    x = np.asarray(x, dtype=float)
    if not np.signbit(x).any():
        return formula(x)
    return np.where(x < 0.0, 0.0, formula(np.maximum(x, 0.0)))


class Distribution(ABC):
    """A positive interarrival law with density, no atom at 0, finite mean."""

    kind: str
    # the config names of the dataclass fields, in field order
    config_fields: tuple[str, ...]

    # -- core analytic functions -------------------------------------------
    # A float in gives a float out; an array keeps its shape.  Each kind
    # supplies ``_quantile`` and, as bare formulas on x >= 0, ``_density`` and
    # ``_cdf``; every read of those two here goes through ``_on_support``, the
    # one home of the rule that both are 0 below 0.

    def density(self, x):
        """Density f(x); 0 for x < 0, NaN at NaN."""
        return _scalar(_on_support(self._density, x))

    def cdf(self, x):
        """F(x) = P(tau <= x); 0 for x < 0."""
        return _scalar(_on_support(self._cdf, x))

    def quantile(self, u):
        """Inverse CDF, u in [0, 1)."""
        return _scalar(self._quantile(np.asarray(u, dtype=float)))

    @abstractmethod
    def _density(self, x): ...

    @abstractmethod
    def _cdf(self, x): ...

    @abstractmethod
    def _quantile(self, u): ...

    @abstractmethod
    def moment(self, order: float) -> MomentReport:
        """Raw moment E[tau^order] for order >= 1, closed form per family."""

    @abstractmethod
    def mean(self) -> float: ...

    def support_end(self) -> float:
        """Right end of the support (inf unless the law is bounded)."""
        return math.inf

    def rate(self) -> float:
        """Renewal rate m = 1 / mean."""
        return 1.0 / self.mean()

    # -- derived functions --------------------------------------------------

    def cumulative_hazard(self, x):
        """-log(1 - F(x)), the integrated hazard; nondecreasing.

        Raises for the first x with F(x) = 1: at or past the end of a bounded
        support, or in the tail of an unbounded law, where F(x) rounds to 1.
        """
        x = np.asarray(x, dtype=float)
        cdf = _on_support(self._cdf, x)
        exhausted = cdf >= 1.0
        if exhausted.any():
            first = float(x[exhausted][0])
            end = self.support_end()
            if first >= end:
                raise SupportExhaustedError(f"cumulative hazard diverges at x >= {end:g} for {self.kind}")
            raise SupportExhaustedError(
                f"cumulative hazard diverges at x = {first:g} for {self.kind}: F(x) rounds to 1 in double precision"
            )
        return _scalar(-np.log1p(-cdf))

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF transform of uniform draws; reproducible given the rng."""
        u = rng.random(size)
        return self.quantile(u)

    @abstractmethod
    def _interarrival_draw(self, rng: np.random.Generator, size):
        """Draws from numpy's native sampler for the kind, or from its formula
        evaluated as array passes (not inverse-CDF); ``size`` is an int or a shape."""

    # -- stationary delay ----------------------------------------------------

    def stationary_delay_density(self, x):
        """pi(x) = m (1 - F(x)), the delay density that makes increments stationary."""
        m = self.rate()
        return _scalar(_on_support(lambda y: m * (1.0 - self._cdf(y)), x))

    def stationary_delay_cdf(self, x):
        """Integral of the stationary delay density: m * int_0^x (1-F)."""
        impl = self._stationary_cdf_impl
        return _scalar(_on_support(lambda y: np.clip(impl(y), 0.0, 1.0), x))

    @abstractmethod
    def _stationary_cdf_impl(self, x): ...

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
    def _stationary_delay_draw(self, rng: np.random.Generator, size): ...

    # -- config round trip ----------------------------------------------------

    def to_config(self) -> dict:
        """The JSON form that ``distribution_from_config`` reads back."""
        values = (getattr(self, f.name) for f in dataclasses.fields(self))
        return {"kind": self.kind, **dict(zip(self.config_fields, values))}

    def __repr__(self) -> str:  # pragma: no cover
        fields = ", ".join(f"{k}={v:g}" for k, v in self.to_config().items() if k != "kind")
        return f"{type(self).__name__}({fields})"


@dataclass(frozen=True, repr=False)
class Exponential(Distribution):
    rate_: float

    kind = "exponential"
    config_fields = ("rate",)

    def __post_init__(self):
        if not self.rate_ > 0.0:
            raise ValueError(f"exponential rate must be > 0, got {self.rate_}")

    def _density(self, x):
        return self.rate_ * np.exp(-self.rate_ * x)

    def _cdf(self, x):
        return -np.expm1(-self.rate_ * x)

    def _quantile(self, u):
        return -np.log1p(-u) / self.rate_

    def mean(self) -> float:
        return 1.0 / self.rate_

    def moment(self, order: float) -> MomentReport:
        value = math.exp(gammaln(order + 1.0)) / self.rate_**order
        return MomentReport(value)

    def _stationary_cdf_impl(self, x):
        # memorylessness: the stationary delay law coincides with F
        return self._cdf(x)

    def _interarrival_draw(self, rng, size):
        return rng.exponential(1.0 / self.rate_, size)

    def _stationary_delay_draw(self, rng, size):
        return rng.exponential(1.0 / self.rate_, size)


@dataclass(frozen=True, repr=False)
class Gamma(Distribution):
    shape: float
    rate_: float

    kind = "gamma"
    config_fields = ("shape", "rate")

    def __post_init__(self):
        if not self.shape >= 1.0:
            raise ValueError(f"gamma shape must be >= 1, got {self.shape}")
        if not self.rate_ > 0.0:
            raise ValueError(f"gamma rate must be > 0, got {self.rate_}")
        object.__setattr__(self, "_log_gamma_shape", gammaln(self.shape))

    def _density(self, x):
        # exp(k log(lam) + (k - 1) log(x) - lam x - log Gamma(k)), summed in
        # that order in one buffer; the x = 0 masks run only when x has an
        # entry <= 0 (or NaN, which passes through them), never on the probe
        # chain's positive lattices
        k, lam = self.shape, self.rate_
        zero = None if x.size and x.min() > 0.0 else x <= 0.0
        xp = x if zero is None else np.where(zero, 1.0, x)
        out = np.asarray(np.log(xp))  # an array also for a 0-d x
        out *= k - 1.0
        out += k * math.log(lam)
        out -= lam * xp
        out -= self._log_gamma_shape
        np.exp(out, out=out)
        if zero is not None:
            out[zero] = 0.0
            if k == 1.0:
                out[x == 0.0] = lam
        return out

    def _cdf(self, x):
        return gammainc(self.shape, self.rate_ * x)

    def _quantile(self, u):
        return gammaincinv(self.shape, u) / self.rate_

    def mean(self) -> float:
        return self.shape / self.rate_

    def moment(self, order: float) -> MomentReport:
        value = math.exp(gammaln(self.shape + order) - self._log_gamma_shape)
        return MomentReport(value / self.rate_**order)

    def _stationary_cdf_impl(self, x):
        # integrate by parts: int_0^x (1-F) = x(1-F(x)) + int_0^x u f(u) du
        partial_mean = (self.shape / self.rate_) * gammainc(self.shape + 1.0, self.rate_ * x)
        return self.rate_ / self.shape * (x * (1.0 - gammainc(self.shape, self.rate_ * x)) + partial_mean)

    def _interarrival_draw(self, rng, size):
        return rng.gamma(self.shape, 1.0 / self.rate_, size)

    def _stationary_delay_draw(self, rng, size):
        # the size-biased Gamma(k, rate) law is Gamma(k + 1, rate)
        return rng.random(size) * rng.gamma(self.shape + 1.0, 1.0 / self.rate_, size)


@dataclass(frozen=True, repr=False)
class Uniform(Distribution):
    lo: float
    hi: float

    kind = "uniform"
    config_fields = ("lo", "hi")

    def __post_init__(self):
        if not self.lo >= 0.0:
            raise ValueError(f"uniform lo must be >= 0, got {self.lo}")
        if not self.hi > self.lo:
            raise ValueError(f"uniform needs hi > lo, got [{self.lo}, {self.hi}]")

    def support_end(self) -> float:
        return self.hi

    def _density(self, x):
        inside = np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)
        return np.where(np.isnan(x), x, inside)

    def _cdf(self, x):
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _quantile(self, u):
        return self.lo + u * (self.hi - self.lo)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def moment(self, order: float) -> MomentReport:
        s = order
        value = (self.hi ** (s + 1.0) - self.lo ** (s + 1.0)) / ((s + 1.0) * (self.hi - self.lo))
        return MomentReport(value)

    def _stationary_cdf_impl(self, x):
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


@dataclass(frozen=True, repr=False)
class ShiftedPareto(Distribution):
    """Lomax law: density r c^r (c+x)^(-r-1), tail index r > 1, scale c > 0."""

    tail: float
    scale: float

    kind = "shifted-pareto"
    config_fields = ("tail", "scale")

    def __post_init__(self):
        if not self.tail > 1.0:
            raise ValueError(f"shifted-pareto tail index must be > 1, got {self.tail}")
        if not self.scale > 0.0:
            raise ValueError(f"shifted-pareto scale must be > 0, got {self.scale}")

    def _density(self, x):
        # r / c * (1 + x / c)^(-r - 1), in one buffer
        r, c = self.tail, self.scale
        out = np.asarray(x / c)  # an array also for a 0-d x
        out += 1.0
        np.power(out, -r - 1.0, out=out)
        out *= r / c
        return out

    def _cdf(self, x):
        return 1.0 - np.power(1.0 + x / self.scale, -self.tail)

    def _quantile(self, u):
        return self.scale * (np.power(1.0 - u, -1.0 / self.tail) - 1.0)

    def mean(self) -> float:
        return self.scale / (self.tail - 1.0)

    def moment(self, order: float) -> MomentReport:
        if order >= self.tail:
            return MomentReport(math.inf)
        log_val = gammaln(order + 1.0) + gammaln(self.tail - order) - gammaln(self.tail)
        return MomentReport(self.scale**order * math.exp(log_val))

    def _stationary_cdf_impl(self, x):
        # the equilibrium law of a Lomax(r, c) is Lomax(r-1, c)
        return 1.0 - np.power(1.0 + x / self.scale, -(self.tail - 1.0))

    def _interarrival_draw(self, rng, size):
        """numpy's own Pareto formula, scale * expm1(E / tail) with E standard
        exponential, as three array passes instead of one C call per element.

        It consumes the stream exactly as ``rng.pareto(tail, size)`` does and
        agrees with ``rng.pareto(tail, size) * scale`` to rounding: the
        vectorized ``np.expm1`` loop may round the last bit differently.
        """
        draws = rng.standard_exponential(size)
        draws /= self.tail
        np.expm1(draws, out=draws)
        draws *= self.scale
        return draws

    def _stationary_delay_draw(self, rng, size):
        return self.scale * rng.pareto(self.tail - 1.0, size)


_KINDS = {cls.kind: cls for cls in (Exponential, Gamma, Uniform, ShiftedPareto)}


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
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError("distribution.kind", f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
    cls = _KINDS[kind]
    extra = set(cfg) - {"kind", *cls.config_fields}
    if extra:
        raise ConfigError("distribution", f"unexpected fields {sorted(extra)} for kind {kind!r}")
    values = []
    for name in cls.config_fields:
        if name not in cfg:
            raise ConfigError(f"distribution.{name}", f"required for kind {kind!r}")
        values.append(_config_number(f"distribution.{name}", cfg[name]))
    try:
        return cls(*values)
    except ValueError as exc:
        raise ConfigError("distribution", str(exc)) from None
