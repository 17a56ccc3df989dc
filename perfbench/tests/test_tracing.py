"""Self-time arithmetic of the benchmark tracer.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from tracing import LAYERS, Tracer, self_times  # noqa: E402


def test_self_times_on_hand_built_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("d", 5.0, 6.0, 3),
        ("e", 6.5, 8.0, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    # nested spans partition the root interval, so self times sum to its duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_count_their_union_once():
    spans = [("p", 0.0, 4.0, -1), ("x", 0.5, 2.0, 0), ("y", 1.5, 3.0, 0), ("z", 3.5, 9.0, 0)]
    # children cover [0.5, 3.0] and [3.5, 4.0] inside the parent
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.5 - 0.5)


def test_tracer_layers_sum_to_wall_and_restores_functions():
    from renewal_lab import renewal, stone
    from renewal_lab.distributions import Distribution, Gamma
    from renewal_lab.grids import Grid

    original = renewal.volterra_renewal_density
    original_cdf = Distribution.stationary_delay_cdf
    dist = Gamma(2.0, 1.0)
    with Tracer() as tracer:
        assert renewal.volterra_renewal_density is not original
        assert stone.volterra_renewal_density is renewal.volterra_renewal_density
        stone.stone_decompose(dist, Grid(0.02, 400))
        dist.stationary_delay_cdf(1.0)
    assert renewal.volterra_renewal_density is original
    assert stone.volterra_renewal_density is original
    assert Distribution.stationary_delay_cdf is original_cdf

    m = tracer.metrics()
    wall = m["trace.wall_s"][0]
    layer_sum = sum(m[f"{layer}.self_s"][0] for layer in LAYERS) + m["trace.unattributed_s"][0]
    assert layer_sum == pytest.approx(wall, abs=1e-9)
    assert m["stone.stone_decompose.calls"][0] == 1
    assert m["renewal.volterra_renewal_density.calls"][0] == 2
    assert m["renewal.volterra_renewal_density.direct_madds"][0] == 2 * 400 * 401 // 2
    assert m["distributions.stationary_delay_cdf.calls"][0] == 1
