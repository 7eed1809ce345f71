"""One-parameter minimization of the average inspection cost over tau0.

The cost is evaluated per start value through the full pipeline
(integrate -> deployment parameter -> three-term cost) and minimized over
the certified feasible window.  The landscape near the optimum is a steep
parabola (curvature ~ 2e8 in tau0) riding on a feasibility cliff just left
of the window, so the grid sweep only brackets the minimum; golden-section
refinement inside the bracketing cell does the real work.  The sweep runs
the pipeline on lockstep batches of start values, with the inspection
integral carried as a third ODE component; the refinement evaluates one
start value at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cost as cost_mod
from .continuum import ODE_ATOL, ODE_RTOL, X0_REF, integrate, integrate_many
from .errors import DiskInspectError, NoCrossing, NotUnimodal, XiOutOfRange
from .feasibility import (
    FeasibilityReport,
    assess,
    deployment_parameter,
    deployment_parameters,
    golden_min,
    sweep_blocks,
)

#: Abscissa tolerance of the golden-section refinement.  Far below the
#: nominal 1e-9 requirement because theta moves ~8e3 times faster than
#: tau0 near the optimum; the cost curve is smooth at this scale.
REFINE_XATOL = 2e-11
#: Cost differences below this are treated as noise by the unimodality scan.
SWEEP_NOISE_TOL = 1e-8


@dataclass
class OptimalSolution:
    """Minimizer of the window cost with its feasibility certificate."""

    tau0_star: float
    xi_star: float
    theta_star: float
    cost_star: float
    clearance_star: float
    bracket: tuple[float, float]
    grid_resolution: int
    certificate: FeasibilityReport
    breakdown: cost_mod.CostBreakdown


def cost_at(
    tau0: float,
    x0: float = X0_REF,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> float:
    """Total cost of the trajectory labeled tau0."""
    sol = integrate(tau0, x0=x0, rtol=rtol, atol=atol)
    xi, _ = deployment_parameter(sol)
    return cost_mod.total_cost(sol, xi).total


def _cost_row(tau0: float, x0: float, rtol: float, atol: float):
    try:
        return tau0, cost_at(tau0, x0=x0, rtol=rtol, atol=atol), None
    except DiskInspectError as exc:
        return tau0, math.nan, exc.kind


def _cost_block(taus, x0: float, rtol: float, atol: float):
    """Cost rows of one lockstep batch; I(xi) comes from the dense output."""
    bsol = integrate_many(taus, x0=x0, rtol=rtol, atol=atol)
    xi, _ = deployment_parameters(bsol)
    cols = np.flatnonzero(~np.isnan(xi))
    integral = np.full(xi.shape, math.nan)
    integral[cols] = bsol.values(xi[cols], 2, cols)
    rows = []
    for tau0, x, i in zip(taus, xi, integral):
        if math.isnan(x):
            rows.append((float(tau0), math.nan, NoCrossing.kind))
            continue
        try:
            total = cost_mod.cost_breakdown(float(x), float(i)).total
            rows.append((float(tau0), total, None))
        except XiOutOfRange as exc:
            rows.append((float(tau0), math.nan, exc.kind))
    return rows


def sweep_cost(
    lo: float,
    hi: float,
    grid: int,
    x0: float = X0_REF,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> list[tuple[float, float, str | None]]:
    """(tau0, cost, error) rows over a uniform grid, sorted by tau0.

    The batch integrates the inspection integral with the ODE and makes no
    quadrature call.
    """
    if not (lo < hi and grid >= 2):
        raise ValueError("need lo < hi and grid >= 2")
    return sweep_blocks(
        np.linspace(lo, hi, grid),
        lambda block: _cost_block(block, x0, rtol, atol),
        lambda tau0: _cost_row(tau0, x0, rtol, atol),
    )


def _check_unimodal(costs: np.ndarray, noise_tol: float) -> int:
    """Index of the minimum after verifying a single descent/ascent pattern.

    Differences smaller than noise_tol in magnitude are ignored: adjacent
    grid costs near the flat bottom differ by less than the evaluation
    noise, and literal sign counting would see spurious minima there.
    Error rows (NaN) may only form runs at either end of the sweep, such as
    the NoCrossing cliff; one between two valid rows could hide an ascent.
    """
    valid = np.flatnonzero(~np.isnan(costs))
    if len(valid) == 0:
        raise NotUnimodal("every sweep row is an error row; nothing to refine")
    first = int(valid[0])
    run = costs[first : valid[-1] + 1]
    if np.any(np.isnan(run)):
        raise NotUnimodal(
            "error rows lie between valid sweep rows; refusing to refine"
        )
    j = int(np.argmin(run))
    diffs = np.diff(run)
    if np.any(diffs[:j] > noise_tol) or np.any(diffs[j:] < -noise_tol):
        raise NotUnimodal(
            "sweep is not unimodal beyond noise level; refusing to refine"
        )
    return first + j


def refine_minimum(
    lo: float,
    hi: float,
    grid: int = 2000,
    sweep: list | None = None,
    x0: float = X0_REF,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> OptimalSolution:
    """Golden-section refinement of the sweep minimum over [lo, hi].

    The sweep (reused if passed in) must be unimodal up to evaluation
    noise; the minimum's grid cell provides the refinement bracket.
    """
    if sweep is None:
        sweep = sweep_cost(lo, hi, grid, x0=x0, rtol=rtol, atol=atol)
    taus = np.array([r[0] for r in sweep])
    costs = np.array([r[1] for r in sweep])
    j = _check_unimodal(costs, SWEEP_NOISE_TOL)
    a = taus[max(j - 1, 0)]
    b = taus[min(j + 1, len(taus) - 1)]

    def f(tau0):
        return cost_at(float(tau0), x0=x0, rtol=rtol, atol=atol)

    tau_star = float(golden_min(f, float(a), float(b), REFINE_XATOL)[0])
    sol = integrate(tau_star, x0=x0, rtol=rtol, atol=atol)
    certificate = assess(tau_star, sol=sol)
    breakdown = cost_mod.total_cost(sol, certificate.xi)
    return OptimalSolution(
        tau0_star=tau_star,
        xi_star=certificate.xi,
        theta_star=certificate.theta,
        cost_star=breakdown.total,
        clearance_star=certificate.clearance,
        bracket=(float(a), float(b)),
        grid_resolution=len(taus),
        certificate=certificate,
        breakdown=breakdown,
    )
