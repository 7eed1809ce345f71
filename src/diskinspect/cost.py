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

from scipy.integrate import quad

from .continuum import OdeSolution
from .errors import QuadratureNoConverge, XiOutOfRange
from .feasibility import deployment_angle

QUAD_RTOL = 1e-12
QUAD_ATOL = 1e-14


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
    """Adaptive quadrature of 2*pi*x*tau(x)/sin(psi(x)) over [0, xi].

    The integrand extends continuously by 0 at x=0; on [0, x0] it is below
    2*pi*x0*tau0 ~ 1e-5 and its integral is O(tau0*x0^2) ~ 1e-11, treated
    as exactly zero.  The quadrature therefore runs on [x0, xi] against the
    dense output (Gauss-Kronrod panels; the contract is the tolerance pair,
    not the rule).
    """
    if xi <= sol.x0:
        return 0.0

    def integrand(x):
        psi, tau = sol.values(x)
        return math.tau * x * tau / math.sin(psi)

    value, abserr, info, *rest = quad(
        integrand, sol.x0, xi, epsabs=atol, epsrel=rtol, limit=200, full_output=1
    )
    if rest:
        raise QuadratureNoConverge(
            f"integral error estimate {abserr:.3e} after {info['last']} panels: {rest[0]}"
        )
    return float(value)


def log_term(xi: float) -> float:
    s = math.sin(xi * math.pi)
    return math.log((1.0 + s) / (1.0 - s)) / math.tau


def deployment_term(xi: float) -> float:
    return xi / math.cos(deployment_angle(xi))


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
    increasing in s since 1 - theta/pi > 0 on [0, pi/2).
    """
    if not 0.0 <= theta < math.pi / 2.0:
        raise ValueError("theta must lie in [0, pi/2)")
    lt = math.log((1.0 + math.sin(theta)) / (1.0 - math.sin(theta))) / math.tau
    return lt + (1.0 - theta / math.pi) * (1.0 / math.cos(theta) + s)
