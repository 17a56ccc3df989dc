"""renewal_lab: numerical renewal theory at desk scale.

Renewal-equation solvers, Stone's decomposition, the pure/stationary
coupling construction, point-process compensators, and rate-fitting
harnesses for the associated convergence theorems, all deterministic
under explicit seeds.

Each library module's ``__all__`` is its public surface; the package
re-exports exactly their union.
"""

from .distributions import *
from .grids import *
from .renewal import *
from .stone import *
from .coupling import *
from .compensator import *
from .asymptotics import *
from . import asymptotics, compensator, coupling, distributions, grids, renewal, stone

__all__ = [
    *distributions.__all__,
    *grids.__all__,
    *renewal.__all__,
    *stone.__all__,
    *coupling.__all__,
    *compensator.__all__,
    *asymptotics.__all__,
]

__version__ = "0.1.0"
