import numpy as np
import pytest

from renewal_lab import Exponential, Gamma, ShiftedPareto, Uniform

ALL_KINDS = [
    Exponential(1.0),
    Gamma(2.0, 1.0),
    Uniform(0.0, 2.0),
    ShiftedPareto(3.5, 1.0),
]


def trapezoid_weights_oracle(measure, k):
    """The trapezoid weights of a grid measure on [0, x_k], written out: the
    atom plus half the first density weight, then h * density with the last
    halved; the atom alone at k = 0."""
    w = measure.density[: k + 1] * measure.grid.step
    if k:
        w[0] = measure.atom0 + 0.5 * w[0]
        w[-1] *= 0.5
    else:
        w[0] = measure.atom0
    return w


@pytest.fixture(params=ALL_KINDS, ids=lambda d: d.kind)
def dist(request):
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
