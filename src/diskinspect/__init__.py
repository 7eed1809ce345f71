"""Optimal average-case disk-inspection trajectories.

A mobile agent starts at the center of a unit disk and must eventually
see every perimeter point from outside the disk.  This package computes
the trajectory minimizing the expected first-visibility arclength for a
uniformly random target: a least-time (refraction) recursion for the
discretized problem, its continuum ODE limit, the reduction to a
one-parameter minimization over the start value tau0, convex lower
bounds restricting the deployment angle, and a brute-force geometric
oracle certifying the analytic numbers.  Optimal average cost:
3.5492596 (six certified digits).
"""

from .bounds import (
    NlpSolution,
    analytic_lower_bound,
    analytic_lower_bound_derivative,
    nlp_lower_bound,
    theta_window,
)
from .continuum import (
    OdeSolution,
    Pencil,
    integrate,
    integrate_pencil,
    self_check_init,
    series_start,
)
from .cost import CostBreakdown, full_cost_from_partial, inspection_integral, partial_cost, total_cost
from .errors import (
    AngleDomain,
    CostDiverges,
    DiskInspectError,
    EmptySweep,
    NoCrossing,
    NotUnimodal,
    OutOfRange,
    QuadratureNoConverge,
    StepFailure,
    TriangleDegenerate,
    WindowViolated,
    XiOutOfRange,
)
from .feasibility import (
    FeasibilityReport,
    assess,
    clearance_certificate,
    deployment_parameter,
    feasibility_sweep,
)
from .geometry import (
    NEVER,
    Polyline,
    first_inspection_arclength,
    first_inspection_arclengths,
    inspects,
    perimeter_point,
    tangent_point,
)
from .optimizer import OptimalSolution, cost_at, refine_minimum, sweep_cost
from .oracle import (
    OracleResult,
    assemble_trajectory,
    average_cost_full,
    average_cost_partial,
    exact_angle_cost,
    is_inspective,
)
from .refraction import (
    DiscreteTrajectory,
    RefractionInstance,
    discrete_cost,
    forward_recursion,
    refraction_optimum,
    shoot_theta,
)

__version__ = "0.1.0"
