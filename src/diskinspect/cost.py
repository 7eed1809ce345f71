"""Average inspection cost of a feasible trajectory.

For a curve with deployment parameter xi (deployment angle
theta = (1-xi)*pi), the average cost splits into three parts:

    total = (1/2pi) * log((1 + sin(xi*pi)) / (1 - sin(xi*pi)))   [deployment sweep]
          + xi / cos((1-xi)*pi)                                  [deployment length share]
          + 2*pi * int_0^xi x*tau(x)/sin(psi(x)) dx              [inspection integral]

The same value factors through the deployment angle as
full_cost_from_partial(theta, s) with s the partial average cost
(2*pi/xi) * integral; both forms are computed and must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .continuum import OdeSolution
from .errors import CostDiverges, QuadratureNoConverge, XiOutOfRange
from .feasibility import deployment_angle

QUAD_RTOL = 1e-12
QUAD_ATOL = 1e-14
#: Gauss-Legendre nodes per step of the rule and of its companion in the
#: error estimate, which has twice as many.
GAUSS_NODES = 10
#: Most times inspection_integral halves every segment before it gives up.
QUAD_HALVINGS = 6
_NODES_N, _WEIGHTS_N = leggauss(GAUSS_NODES)
_NODES_2N, _WEIGHTS_2N = leggauss(2 * GAUSS_NODES)
_NODES = np.concatenate([_NODES_N, _NODES_2N])


@dataclass
class CostBreakdown:
    """The three cost terms and their sum for one (tau0, xi) pair."""

    log_term: float
    deployment_term: float
    integral: float
    total: float
    xi: float
    theta: float


def inspection_integral(
    sol: OdeSolution,
    xi: float,
    rtol: float = QUAD_RTOL,
    atol: float = QUAD_ATOL,
) -> float:
    """Quadrature of 2*pi*x*tau(x)/sin(psi(x)) over [0, xi].

    The integrand extends continuously by 0 at x=0; on [0, x0] it is below
    2*pi*x0*tau0 ~ 1e-5 and its integral is O(tau0*x0^2) ~ 1e-11, treated
    as exactly zero.  The quadrature therefore runs on [x0, xi] against the
    dense output, with Gauss-Legendre rules of GAUSS_NODES and of twice as
    many nodes on each of the solve's steps, the last one cut at xi: the
    interpolant is one polynomial per step, so the integrand is smooth on
    each.  The value is the finer rule's; the sum over the segments of the
    two rules' differences is its error estimate.  While that exceeds
    max(atol, rtol * |value|), every segment is halved, at most
    QUAD_HALVINGS times (only the long steps of a coarse solve need it);
    then QuadratureNoConverge is raised.  The contract is the tolerance
    pair, not the rule.
    """
    if xi <= sol.x0:
        return 0.0
    edges = np.append(sol.grid[sol.grid < xi], xi)
    for _ in range(QUAD_HALVINGS + 1):
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        xs = mid[:, None] + half[:, None] * _NODES
        psi, tau = sol.values(xs)
        f = math.tau * xs * tau / np.sin(psi)
        coarse = half * (f[:, :GAUSS_NODES] @ _WEIGHTS_N)
        fine = half * (f[:, GAUSS_NODES:] @ _WEIGHTS_2N)
        value = float(fine.sum())
        error = float(np.abs(fine - coarse).sum())
        if error <= max(atol, rtol * abs(value)):
            return value
        edges = np.append(np.stack([edges[:-1], mid], axis=1).ravel(), edges[-1])
    raise QuadratureNoConverge(
        f"integral error estimate {error:.3e} over {len(half)} segments exceeds "
        f"max(atol={atol:.3g}, rtol={rtol:.3g} * |{value:.6g}|)"
    )


def _sweep_term(s: float) -> float:
    """(1/2pi) * log((1 + s) / (1 - s)) at s = sin(theta) = sin(pi xi);
    CostDiverges where 1 - s rounds to 0."""
    if s == 1.0:
        raise CostDiverges("1 - sin(theta) rounds to 0 (theta within about 1.5e-8 "
                           "of pi/2): the deployment sweep's log term diverges")
    return math.log((1.0 + s) / (1.0 - s)) / math.tau


def log_term(xi: float) -> float:
    return _sweep_term(math.sin(xi * math.pi))


def deployment_term(xi: float) -> float:
    return xi / math.cos(deployment_angle(xi))


def closed_form_slope(xi: float) -> float:
    """d/dxi of log_term + deployment_term: sec(pi xi) + D'(xi), D(xi) = xi / cos((1 - xi) pi)."""
    theta = deployment_angle(xi)
    return 1.0 / math.cos(math.pi * xi) + (1.0 - xi * math.pi * math.tan(theta)) / math.cos(theta)


def total_cost(sol: OdeSolution, xi: float) -> CostBreakdown:
    """Assemble the three-term average cost at deployment parameter xi."""
    _check_xi(xi)
    return cost_breakdown(xi, inspection_integral(sol, xi))


def _check_xi(xi: float) -> None:
    if not 0.5 < xi <= 1.0:
        raise XiOutOfRange(f"deployment parameter xi={xi!r} must lie in (1/2, 1]")


def cost_breakdown(xi: float, integral: float) -> CostBreakdown:
    """The three terms at deployment parameter xi, given the inspection integral."""
    _check_xi(xi)
    lt = log_term(xi)
    dt = deployment_term(xi)
    return CostBreakdown(
        log_term=lt,
        deployment_term=dt,
        integral=integral,
        total=lt + dt + integral,
        xi=xi,
        theta=deployment_angle(xi),
    )


def partial_cost(sol: OdeSolution, xi: float) -> float:
    """Average cost of the inspection phase alone: inspection_integral / xi."""
    return inspection_integral(sol, xi) / xi


def full_cost_from_partial(theta: float, s: float) -> float:
    """Compose a partial-inspection average cost s into a full average cost.

    (1/2pi)*log((1+sin theta)/(1-sin theta)) + (1 - theta/pi)*(sec theta + s);
    increasing in s since 1 - theta/pi > 0 on [0, pi/2).  A theta so close
    to pi/2 that sin(theta) rounds to 1 raises CostDiverges.
    """
    if not 0.0 <= theta < math.pi / 2.0:
        raise ValueError("theta must lie in [0, pi/2)")
    lt = _sweep_term(math.sin(theta))
    return lt + (1.0 - theta / math.pi) * (1.0 / math.cos(theta) + s)
