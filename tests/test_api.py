"""The package surface: each library module's ``__all__`` is pinned here, the
top level re-exports exactly their union, and every pinned function, every
public method of a pinned class and every field of a pinned dataclass is named
by code outside the tests.  Source scans also pin the one home of the FFT
and of np.convolve, ``grids._middle_product``, of the generators,
``acceptance._stream``, and of a measure's trapezoid weights,
``GridMeasure.trapezoid_weights``.

A reader is ``cli.py``, ``acceptance.py``, the benchmark harness
(``perfbench/*.py``) or another library module; a method or
a field may also be read in its own module.  The package sources are read
from wherever ``renewal_lab`` is imported from, so the test also checks an
installed copy.
"""

import ast
import dataclasses
import functools
import inspect
import re
import types
from pathlib import Path

import pytest

import renewal_lab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(renewal_lab.__file__).parent

SURFACE = {
    "distributions": {
        "Distribution",
        "Exponential",
        "Gamma",
        "Uniform",
        "ShiftedPareto",
        "MomentReport",
        "distribution_from_config",
    },
    "grids": {
        "Grid",
        "GridFunction",
        "GridMeasure",
        "convolve_measures",
        "convolve_measure_function",
        "tv_distance",
        "measure_from_distribution",
    },
    "renewal": {
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
    },
    "stone": {"UniformComponent", "StoneDecomposition", "find_uniform_component", "stone_decompose", "phi2_tail"},
    "coupling": {
        "CouplingParams",
        "CouplingTrace",
        "TailEstimate",
        "MomentEstimate",
        "maximal_coupling_sample",
        "find_common_component",
        "verify_common_component",
        "simulate_coupling",
        "coupled_event_sequences",
        "coupling_tail",
        "coupling_moment",
    },
    "compensator": {
        "RenewalPath",
        "PathBlock",
        "CycleHazards",
        "simulate_path",
        "simulate_paths",
        "draw_interarrivals",
        "sample_forward_recurrence",
        "compensator_at",
        "cycle_hazards",
        "scaled_compensator_sup",
        "scaled_recurrence_sup",
        "path_max_statistic",
        "rootzen_uniform_error",
    },
    "asymptotics": {"DecayCurve", "SlopeFit", "krt_error_curve", "tv_decay_curve", "fit_slope"},
}

READERS = "\n".join(
    p.read_text()
    for p in (PACKAGE / "cli.py", PACKAGE / "acceptance.py", *sorted((ROOT / "perfbench").glob("*.py")))
)
LIBRARY = {m: (PACKAGE / f"{m}.py").read_text() for m in SURFACE}


# "module.name" -> the pinned object
PINNED = {f"{m}.{name}": getattr(getattr(renewal_lab, m), name) for m in SURFACE for name in sorted(SURFACE[m])}


def _function(member):
    """The function behind a method, static or class method, or property."""
    if isinstance(member, property):
        return member.fget
    if isinstance(member, functools.cached_property):
        return member.func
    if isinstance(member, (staticmethod, classmethod)):
        return member.__func__
    return member if inspect.isfunction(member) else None


FUNCTIONS = [q for q, obj in PINNED.items() if inspect.isfunction(obj)]
CLASSES = [q for q, obj in PINNED.items() if inspect.isclass(obj)]
METHODS = {
    f"{q.split('.')[1]}.{attr}": fn
    for q in CLASSES
    for attr, member in vars(PINNED[q]).items()
    if not attr.startswith("_") and (fn := _function(member)) is not None
}
FIELDS = [
    f"{q.split('.')[1]}.{field.name}"
    for q in CLASSES
    if dataclasses.is_dataclass(PINNED[q])
    for field in dataclasses.fields(PINNED[q])
]
# fields that only the tests read, each kept for the reason given
KEPT_FIELDS = {
    "StoneDecomposition.phi0_2": "Stone's bounded part Phi0^(2), which the ROADMAP keeps; the mass-identity test reads it",
    "CouplingTrace.accepted_draw": "the pre-thinning pair that test_accepted_pair_is_product_uniform checks",
}
# the return annotations of every pinned function and public method
RETURNS = " ".join(
    str(inspect.signature(fn).return_annotation) for fn in [*(PINNED[q] for q in FUNCTIONS), *METHODS.values()]
)


def _named(pattern: str, home: str | None = None) -> bool:
    """Whether ``pattern`` occurs in a reader or in a library module other than ``home``."""
    return any(re.search(pattern, text) for text in (READERS, *(t for m, t in LIBRARY.items() if m != home)))


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_module_all_is_pinned(module):
    names = getattr(renewal_lab, module).__all__
    assert len(names) == len(set(names)), "duplicate names"
    assert set(names) == SURFACE[module]


def test_top_level_is_the_union_of_the_module_surfaces():
    union = set().union(*SURFACE.values())
    assert set(renewal_lab.__all__) == union
    public = {
        name
        for name, obj in vars(renewal_lab).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == union
    for qualname, obj in PINNED.items():
        assert getattr(renewal_lab, qualname.split(".")[1]) is obj, qualname


@pytest.mark.parametrize("qualname", FUNCTIONS)
def test_every_pinned_function_has_a_reader(qualname):
    module, name = qualname.split(".")
    assert _named(rf"\b{name}\b", home=module)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_public_method_has_a_reader(method):
    # a read ".attr" cannot match the method's own "def attr", so its module counts too
    assert _named(rf"\.{method.split('.')[1]}\b")


@pytest.mark.parametrize("qualname", CLASSES)
def test_every_pinned_class_has_a_reader(qualname):
    # a class is also read where a pinned function or public method returns it
    module, name = qualname.split(".")
    assert _named(rf"\b{name}\b", home=module) or re.search(rf"\b{name}\b", RETURNS)


def _field_read(field: str) -> bool:
    # the rule of the method check: ".name" in a reader or in any library module
    return _named(rf"\.{field.split('.')[1]}\b")


@pytest.mark.parametrize("field", FIELDS)
def test_every_dataclass_field_has_a_reader(field):
    assert _field_read(field) or field in KEPT_FIELDS


@pytest.mark.parametrize("field", sorted(KEPT_FIELDS))
def test_kept_fields_have_no_other_reader(field):
    # a kept field that gains a reader leaves the list
    assert field in FIELDS and not _field_read(field)


def _calls_outside(pattern: re.Pattern, module: str, function: str) -> list[str]:
    """Package lines matching ``pattern`` outside ``function`` of ``module``,
    which must itself match: the source scan that pins one home of a call."""
    sources = {p.name: p.read_text().splitlines() for p in sorted(PACKAGE.glob("*.py"))}
    lines = sources[module]
    home = next(
        node
        for node in ast.parse("\n".join(lines)).body
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    assert pattern.search("\n".join(lines[home.lineno - 1 : home.end_lineno]))
    del lines[home.lineno - 1 : home.end_lineno]
    return [f"{name}: {line.strip()}" for name, text in sources.items() for line in text if pattern.search(line)]


# the FFT and the direct sum of a trapezoidal product (ROADMAP aim 2)
PRODUCT_CALLS = re.compile(r"\b(?:i?rfft|np\.fft|np\.convolve)\b")

# a generator's construction from a seed (ROADMAP aim 3)
STREAM_CALLS = re.compile(r"\b(?:default_rng|SeedSequence)\b")

# the rule that a density or CDF is 0 below 0 (ROADMAP aim 2)
BELOW_ZERO_RULE = re.compile(r"np\.where\(x < 0|np\.maximum\(x, 0")


def test_one_trapezoidal_product():
    # every FFT and np.convolve of the package is in grids._middle_product
    assert not _calls_outside(PRODUCT_CALLS, "grids.py", "_middle_product")


def test_one_stream_key():
    # every generator of the package is keyed [seed, domain, index] by acceptance._stream
    assert not _calls_outside(STREAM_CALLS, "acceptance.py", "_stream")


def test_one_weight_rule():
    # every read of a measure takes its weights, the atom in the first, from
    # GridMeasure.trapezoid_weights: only grids names the prefix it slices,
    # and renewal never adds Phi's atom itself
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, text in sources.items() if re.search(r"\bweight_prefix\b", text)] == ["grids.py"]
    assert "atom0" not in sources["renewal.py"]


def test_one_below_zero_rule():
    # every law's formulas are bare on x >= 0: the rule lives in distributions._on_support
    assert not _calls_outside(BELOW_ZERO_RULE, "distributions.py", "_on_support")
