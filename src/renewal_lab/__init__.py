"""renewal_lab: numerical renewal theory at desk scale.

Renewal-equation solvers, Stone's decomposition, the pure/stationary
coupling construction, point-process compensators, and rate-fitting
harnesses for the associated convergence theorems, all deterministic
under explicit seeds.
"""

from .distributions import (
    Distribution,
    Exponential,
    Gamma,
    MomentReport,
    ShiftedPareto,
    Uniform,
    distribution_from_config,
)
from .grids import (
    Grid,
    GridFunction,
    GridMeasure,
    convolve_measure_function,
    convolve_measures,
    measure_from_distribution,
    overlap_mass,
    tv_distance,
)
from .renewal import (
    RenewalSolution,
    default_grid,
    default_recurrence_grid,
    forward_recurrence_cdf,
    forward_recurrence_density,
    linear_forcing,
    renewal_measure,
    solve_renewal_equation,
    tv_to_stationary,
)
from .stone import StoneDecomposition, UniformComponent, find_uniform_component, phi2_tail, stone_decompose
from .coupling import (
    CouplingParams,
    CouplingTrace,
    coupled_event_sequences,
    coupling_moment,
    coupling_tail,
    find_common_component,
    maximal_coupling_sample,
    simulate_coupling,
)
from .compensator import (
    CycleHazards,
    RenewalPath,
    compensator_at,
    cycle_hazards,
    path_max_statistic,
    recurrence_times,
    rootzen_uniform_error,
    sample_forward_recurrence,
    scaled_compensator_sup,
    scaled_recurrence_sup,
    simulate_path,
)
from .asymptotics import DecayCurve, SlopeFit, fit_slope, krt_error_curve, tv_decay_curve

__version__ = "0.1.0"
