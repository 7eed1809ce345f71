"""Brute-force average-cost evaluation straight from the visibility definition.

Independent of the recursion, the ODE, and the quadrature: costs come from
first-visibility arclengths along an explicit polyline, averaged over
midpoint-sampled perimeter angles.  Midpoint sampling avoids double
counting the seam phi = 0 == 2*pi and the measure-zero tangency at the
partial problem's arc boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuum import OdeSolution, curve_points
from .geometry import Polyline, first_inspection_arclengths

TWO_PI = 2.0 * math.pi

#: Worst-case inspection optimum (tangent + arc + final leg construction);
#: any inspective path must cost at least this much at its worst angle.
WORST_CASE_COST = 1.0 + math.sqrt(3.0) + 7.0 * math.pi / 6.0
#: Best spiral-heuristic average cost from the early literature, kept as a
#: sanity reference.
HEURISTIC_UPPER_BOUND = 3.63489


@dataclass
class OracleResult:
    """Sampled first-visibility statistics for one trajectory."""

    mean_cost: float
    samples: int
    never_count: int
    max_cost: float
    trajectory_length: float


def _collect(traj: Polyline, phis: np.ndarray) -> OracleResult:
    arcs = first_inspection_arclengths(traj, phis)
    finite = np.isfinite(arcs)
    never = int((~finite).sum())
    seen = arcs[finite]
    return OracleResult(
        mean_cost=float(seen.mean()) if len(seen) else math.nan,
        samples=len(phis),
        never_count=never,
        max_cost=float(seen.max()) if len(seen) else math.nan,
        trajectory_length=traj.length,
    )


def average_cost_full(traj: Polyline, samples: int) -> OracleResult:
    """Mean first-visibility arclength over the full circle (midpoint rule).

    The trajectory must start at the origin.  Angles that are never seen
    are excluded from the mean and counted in ``never_count``.
    """
    if not np.allclose(traj.vertices[0], 0.0, atol=1e-12):
        raise ValueError("full-problem trajectory must start at the origin")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    phis = TWO_PI * (np.arange(samples) + 0.5) / samples
    return _collect(traj, phis)


def average_cost_partial(traj: Polyline, theta: float, samples: int) -> OracleResult:
    """Partial-problem mean over phi in [2*theta, 2*pi], midpoint-sampled.

    The trajectory starts at its deployment anchor (1, tan theta); costs
    are arclengths from that start vertex.
    """
    v0 = traj.vertices[0]
    if abs(v0[0] - 1.0) > 1e-9 or abs(v0[1] - math.tan(theta)) > 1e-9:
        raise ValueError("partial-problem trajectory must start at (1, tan theta)")
    span = TWO_PI - 2.0 * theta
    phis = 2.0 * theta + span * (np.arange(samples) + 0.5) / samples
    return _collect(traj, phis)


def exact_angle_cost(traj: Polyline, phis: np.ndarray) -> OracleResult:
    """Mean first-visibility arclength at explicitly given angles.

    Used to compare a discrete chain against its weighted-length formula:
    evaluated at the chain's own tangency angles the two must agree to
    rounding.
    """
    return _collect(traj, np.asarray(phis, dtype=float) % TWO_PI)


def is_inspective(traj: Polyline, resolution: int) -> bool:
    """True iff every midpoint-sampled angle is eventually seen."""
    phis = TWO_PI * (np.arange(resolution) + 0.5) / resolution
    arcs = first_inspection_arclengths(traj, phis)
    return bool(np.all(np.isfinite(arcs)))


def assemble_trajectory(sol: OdeSolution, xi: float, segments: int = 10_000) -> Polyline:
    """Full inspection path: origin -> (1, tan theta) -> curve back to x0.

    The curve is sampled at ``segments`` parameters from xi down to the
    series start; its first sample coincides with the deployment anchor up
    to root-finding error, and near-duplicate corner vertices are dropped.
    """
    theta = (1.0 - xi) * math.pi
    xs = np.linspace(xi, sol.x0, segments)
    pts = curve_points(sol, xs)
    anchor = np.array([1.0, math.tan(theta)])
    verts = [np.zeros(2), anchor]
    if np.linalg.norm(pts[0] - anchor) <= 1e-12:
        pts = pts[1:]
    verts = np.concatenate([verts, pts])
    return Polyline(verts)
