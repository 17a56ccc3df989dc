"""The package surface: each library module's ``__all__`` is pinned here, the
top level re-exports exactly their union, and every pinned function and every
public method of a pinned class is named by code outside the tests.

A reader is ``cli.py``, ``acceptance.py``, the benchmark harness
(``perfbench/*.py``), ``README.md``, or another library module; a method may
also be read in its own module.  The package sources are read from wherever
``renewal_lab`` is imported from, so the test also checks an installed copy.
"""

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
        "overlap_mass",
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
        "CycleHazards",
        "simulate_path",
        "draw_interarrivals",
        "sample_forward_recurrence",
        "recurrence_times",
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
    for p in (PACKAGE / "cli.py", PACKAGE / "acceptance.py", *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md")
)
LIBRARY = {m: (PACKAGE / f"{m}.py").read_text() for m in SURFACE}


# "module.name" -> the pinned object
PINNED = {f"{m}.{name}": getattr(getattr(renewal_lab, m), name) for m in SURFACE for name in sorted(SURFACE[m])}


def _function(member):
    """The function behind a method, static method or property."""
    if isinstance(member, property):
        return member.fget
    if isinstance(member, functools.cached_property):
        return member.func
    if isinstance(member, staticmethod):
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
