"""Span tracing of renewal_lab's public functions, from outside the package.

A ``Tracer`` rebinds each traced function in every ``renewal_lab`` module
namespace that holds it (and, for the two ``Distribution`` methods, on the
class), records one span per call, and restores the originals on exit.
Spans are ``[name, start, end, parent]`` records kept in memory; self times
and per-layer sums are computed from them after the run.

A function's layer is the module that defines it.  Besides ``calls`` and
``self_s``, some functions carry size or outcome counters ("extras"), summed
over calls and turned into ratios where the metric is one.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("renewal", "grids", "stone", "coupling", "distributions", "compensator", "asymptotics")
# asymptotics raises no typed error on the traced calls, so it gets no errors metric
ERROR_LAYERS = LAYERS[:-1]
ROOT = "root"


def _size(size) -> int:
    if size is None:
        return 1
    return int(np.prod(size))


# -- extras: each hook returns {field: amount} for one call; ``drawn`` is the
# number of interarrivals drawn inside the call ------------------------------


def _volterra(tracer, args, kwargs, result, drawn):
    kernel, rhs, grid = args[:3]
    n = grid.count
    key = (hashlib.blake2b(kernel.tobytes(), digest_size=16).digest(),
           hashlib.blake2b(rhs.tobytes(), digest_size=16).digest())
    repeat = key in tracer.volterra_seen
    tracer.volterra_seen.add(key)
    return {"nodes": grid.n_nodes, "direct_madds": n * (n + 1) // 2, "repeat_calls": int(repeat)}


def _recurrence(tracer, args, kwargs, result, drawn):
    from renewal_lab.renewal import default_recurrence_grid

    dist, t = args[0], args[1]
    x_grid = args[2] if len(args) > 2 else kwargs.get("x_grid")
    phi = kwargs["phi"]
    if x_grid is None:
        x_grid = default_recurrence_grid(dist, phi.grid.step)
    kt = phi.grid.index_of(t)
    return {"direct_madds": (kt + 1) * (kt + x_grid.count + 1)}


def _convolve_pair(tracer, args, kwargs, result, drawn):
    n = args[0].grid.n_nodes
    return {"direct_madds": n * n}


def _coupling(tracer, args, kwargs, result, drawn):
    return {"trials": len(result.indicators), "traces": 1}


def _stationary_draws(tracer, args, kwargs, result, drawn):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return {"draws": _size(size)}


def _interarrivals(tracer, args, kwargs, result, drawn):
    draws = _size(args[1] if len(args) > 1 else kwargs["size"])
    tracer.total_draws += draws
    return {"draws": draws}


def _path(tracer, args, kwargs, result, drawn):
    return {"events_kept": len(result.events), "interarrivals_drawn": drawn}


def _forward_samples(tracer, args, kwargs, result, drawn):
    return {"draws": drawn, "samples": len(result)}


@dataclass(frozen=True)
class Spec:
    """One traced function: its defining module, name and optional extras hook.

    ``owner`` names a class when the function is a method; ``count_only``
    records a call count and no span.
    """

    layer: str
    name: str
    extras: object = None
    owner: str | None = None
    count_only: bool = False

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


SPECS = (
    Spec("renewal", "volterra_renewal_density", _volterra),
    Spec("renewal", "renewal_measure"),
    Spec("renewal", "solve_renewal_equation"),
    Spec("renewal", "forward_recurrence_cdf", _recurrence),
    Spec("renewal", "forward_recurrence_density", _recurrence),
    Spec("renewal", "tv_to_stationary"),
    Spec("renewal", "recurrence_density_at"),
    Spec("grids", "measure_from_distribution"),
    Spec("grids", "convolve_measures", _convolve_pair),
    Spec("grids", "convolve_measure_function", _convolve_pair),
    Spec("grids", "convolve_measure_function_at"),
    Spec("stone", "find_uniform_component"),
    Spec("stone", "stone_decompose"),
    Spec("coupling", "find_common_component"),
    Spec("coupling", "verify_common_component"),
    Spec("coupling", "simulate_coupling", _coupling),
    Spec("distributions", "sample_stationary_delay", _stationary_draws, owner="Distribution"),
    Spec("distributions", "stationary_delay_cdf", owner="Distribution", count_only=True),
    Spec("compensator", "draw_interarrivals", _interarrivals),
    Spec("compensator", "simulate_path", _path),
    Spec("compensator", "sample_forward_recurrence", _forward_samples),
    Spec("compensator", "compensator_at"),
    Spec("compensator", "cycle_hazards"),
    Spec("compensator", "scaled_compensator_sup"),
    Spec("compensator", "scaled_recurrence_sup"),
    Spec("compensator", "path_max_statistic"),
    Spec("compensator", "rootzen_uniform_error"),
    Spec("asymptotics", "krt_error_curve"),
    Spec("asymptotics", "tv_decay_curve"),
    Spec("asymptotics", "fit_slope"),
)

# derived per-function metrics: name -> (function, numerator extra, denominator extra)
RATIOS = {
    "coupling.simulate_coupling.accept_ratio": ("coupling.simulate_coupling", "traces", "trials"),
    "compensator.simulate_path.draw_use_ratio": ("compensator.simulate_path", "events_kept", "interarrivals_drawn"),
    "compensator.sample_forward_recurrence.draws_per_sample": ("compensator.sample_forward_recurrence", "draws", "samples"),
}
# extras reported as metrics directly (the others only feed a ratio)
REPORTED_EXTRAS = {
    "renewal.volterra_renewal_density": ("nodes", "direct_madds", "repeat_calls"),
    "renewal.forward_recurrence_cdf": ("direct_madds",),
    "renewal.forward_recurrence_density": ("direct_madds",),
    "grids.convolve_measures": ("direct_madds",),
    "grids.convolve_measure_function": ("direct_madds",),
    "coupling.simulate_coupling": ("trials",),
    "distributions.sample_stationary_delay": ("draws",),
    "compensator.draw_interarrivals": ("draws",),
}


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its children's intervals.

    ``spans`` is a sequence of ``(name, start, end, parent)`` with ``parent``
    the index of the enclosing span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


@dataclass
class Tracer:
    """Collects spans, call counts and extras while installed (``with tracer:``)."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    volterra_seen: set = field(default_factory=set)
    total_draws: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _errors_seen: set = field(default_factory=set)

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), math.nan, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, spec: Spec, fn):
        from renewal_lab.errors import RenewalLabError

        key = spec.key
        self.counts[key] = 0
        if spec.count_only:
            def counted(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            self.counts[key] += 1
            drawn_before = self.total_draws
            index = self.open(key)
            try:
                result = fn(*args, **kwargs)
            except RenewalLabError as exc:
                if (id(exc), spec.layer) not in self._errors_seen:
                    self._errors_seen.add((id(exc), spec.layer))
                    self.errors[spec.layer] = self.errors.get(spec.layer, 0) + 1
                raise
            finally:
                self.close(index)
            if spec.extras is not None:
                amounts = spec.extras(self, args, kwargs, result, self.total_draws - drawn_before)
                bucket = self.extras.setdefault(key, {})
                for k, v in amounts.items():
                    bucket[k] = bucket.get(k, 0) + v
            return result
        return traced

    # -- installing and removing the wrappers ---------------------------------

    def __enter__(self):
        import renewal_lab

        modules = [renewal_lab] + [
            importlib.import_module(f"renewal_lab.{m}")
            for m in ("distributions", "grids", "renewal", "stone", "coupling",
                      "compensator", "asymptotics", "acceptance", "cli")
        ]
        for spec in SPECS:
            home = importlib.import_module(f"renewal_lab.{spec.layer}")
            if spec.owner is not None:
                cls = getattr(home, spec.owner)
                owners = [c for c in _subclasses(cls) if spec.name in vars(c)]
                for c in owners:
                    original = vars(c)[spec.name]
                    self._patches.append((c, spec.name, original))
                    setattr(c, spec.name, self._wrap(spec, original))
                continue
            original = getattr(home, spec.name)
            wrapped = self._wrap(spec, original)
            for module in modules:
                if vars(module).get(spec.name) is original:
                    self._patches.append((module, spec.name, original))
                    setattr(module, spec.name, wrapped)
        self.open(ROOT)
        return self

    def __exit__(self, *exc):
        while self._stack:
            self.close(self._stack[-1])
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()
        return False

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-function, per-layer and trace-level numbers of the recorded run."""
        selfs = self_times(self.spans)
        by_name: dict[str, float] = {}
        for (name, *_), s in zip(self.spans, selfs):
            by_name[name] = by_name.get(name, 0.0) + s
        root = self.spans[0]
        out = {}
        for spec in SPECS:
            key = spec.key
            out[f"{key}.calls"] = (self.counts.get(key, 0), "count")
            if spec.count_only:
                continue
            out[f"{key}.self_s"] = (by_name.get(key, 0.0), "s")
            for extra in REPORTED_EXTRAS.get(key, ()):
                out[f"{key}.{extra}"] = (self.extras.get(key, {}).get(extra, 0), "count")
        for name, (key, num, den) in RATIOS.items():
            bucket = self.extras.get(key, {})
            denominator = bucket.get(den, 0)
            out[name] = (bucket.get(num, 0) / denominator if denominator else 0.0, "1")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(by_name.get(s.key, 0.0) for s in SPECS if s.layer == layer), "s")
        for layer in ERROR_LAYERS:
            out[f"{layer}.errors"] = (self.errors.get(layer, 0), "count")
        out["trace.unattributed_s"] = (by_name.get(ROOT, 0.0), "s")
        out["trace.wall_s"] = (root[2] - root[1], "s")
        return out


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)
