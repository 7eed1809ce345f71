"""One-parameter minimization of the average inspection cost over tau0.

The cost is evaluated per start value through the full pipeline
(deployment parameter -> three-term cost) and minimized over the certified
feasible window.  The landscape near the optimum is a steep parabola
(curvature ~ 2e8 in tau0) riding on a feasibility cliff just left of the
window, so the grid sweep only brackets the minimum; golden-section
refinement inside the bracketing cell does the real work.  Both read
their costs off one tau0 pencil solve per window
(``feasibility.window_pencil``), with the inspection integral carried by
the ODE, so the choice of tau0* makes no further ODE solve or quadrature
call.  The optimum itself is certified on the scalar path: integrate,
assess and total_cost with adaptive quadrature.  Every solve, pencil or
scalar, takes the same series start x0 and ODE tolerance tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cost as cost_mod
from .bounds import THETA_HI, THETA_LO
from .continuum import ODE_TOL, X0_REF, Pencil, integrate
from .errors import NotUnimodal, WindowViolated, XiOutOfRange
from .feasibility import (
    FeasibilityReport,
    assess,
    deployment_parameter,
    deployment_parameters,
    golden_min,
    window_pencil,
)

#: Abscissa tolerance of the golden-section refinement.  Far below the
#: nominal 1e-9 requirement because theta moves ~8e3 times faster than
#: tau0 near the optimum; the cost curve is smooth at this scale.
REFINE_XATOL = 2e-11
#: Cost differences below this are treated as noise by the unimodality scan.
SWEEP_NOISE_TOL = 1e-8
#: A refined tau0* within this many REFINE_XATOL of a window edge is taken
#: to have run into the edge: the golden section ends within REFINE_XATOL/2
#: of an edge whenever the cost still falls beyond it.
EDGE_XATOLS = 3


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


def cost_at(tau0: float, x0: float = X0_REF, tol: float = ODE_TOL) -> float:
    """Total cost of the trajectory labeled tau0."""
    sol = integrate(tau0, x0=x0, tol=tol)
    xi, _ = deployment_parameter(sol)
    return cost_mod.total_cost(sol, xi).total


def _cost_rows(pencil: Pencil, taus: np.ndarray) -> list[tuple[float, float, str | None]]:
    """(tau0, cost, error) rows of the labels taus, read off the pencil.

    The inspection integral is carried by the ODE and no quadrature runs.
    """
    xi, _, error = deployment_parameters(pencil, taus)
    found = ~np.isnan(xi)
    integral = np.full(xi.shape, math.nan)
    integral[found] = pencil.state(xi[found], taus[found])[2]
    rows = []
    for tau0, x, i, kind in zip(taus, xi, integral, error):
        if kind is not None:
            rows.append((float(tau0), math.nan, kind))
            continue
        try:
            total = cost_mod.cost_breakdown(float(x), float(i)).total
            rows.append((float(tau0), total, None))
        except XiOutOfRange as exc:
            rows.append((float(tau0), math.nan, exc.kind))
    return rows


def sweep_cost(
    lo: float, hi: float, grid: int, x0: float = X0_REF, tol: float = ODE_TOL
) -> list[tuple[float, float, str | None]]:
    """(tau0, cost, error) rows over a uniform grid, sorted by tau0.

    Every row is read off one pencil solve centred at the window midpoint.
    """
    pencil, taus = window_pencil(lo, hi, grid, x0=x0, tol=tol)
    return _cost_rows(pencil, taus)


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
    x0: float = X0_REF,
    tol: float = ODE_TOL,
) -> OptimalSolution:
    """Golden-section refinement of the sweep minimum over [lo, hi].

    One pencil solve serves the sweep and the refinement.  The sweep must
    be unimodal up to evaluation noise; the minimum's grid cell provides
    the refinement bracket, in which an error row (such as a label past the
    NoCrossing cliff) counts as infinite cost.  The optimum is certified on
    the scalar path (integrate -> assess -> total_cost) and raises
    WindowViolated when it sits on the window's edge, its angle leaves
    [THETA_LO, THETA_HI] or its clearance certificate fails.
    """
    pencil, taus = window_pencil(lo, hi, grid, x0=x0, tol=tol)
    costs = np.array([total for _, total, _ in _cost_rows(pencil, taus)])
    j = _check_unimodal(costs, SWEEP_NOISE_TOL)
    a = taus[max(j - 1, 0)]
    b = taus[min(j + 1, len(taus) - 1)]

    def cost(tau0):
        (_, total, _), = _cost_rows(pencil, np.array([tau0]))
        return math.inf if math.isnan(total) else total

    tau_star = float(golden_min(cost, float(a), float(b), REFINE_XATOL)[0])
    if min(tau_star - lo, hi - tau_star) <= EDGE_XATOLS * REFINE_XATOL:
        raise WindowViolated(
            f"refined tau0*={tau_star!r} lies on the edge of [{lo!r}, {hi!r}]: "
            "the minimum may lie outside the window"
        )
    sol = integrate(tau_star, x0=x0, tol=tol)
    certificate = assess(sol)
    breakdown = cost_mod.total_cost(sol, certificate.xi)
    if not THETA_LO <= certificate.theta <= THETA_HI:
        raise WindowViolated(
            f"theta*={certificate.theta!r} lies outside the deployment-angle "
            f"window [{THETA_LO}, {THETA_HI}]"
        )
    if not certificate.feasible:
        raise WindowViolated(
            f"tau0*={tau_star!r} fails its clearance certificate: "
            f"tau_min={certificate.tau_min!r}"
        )
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
