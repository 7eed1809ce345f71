"""One-parameter minimization of the average inspection cost over tau0.

The cost is evaluated per start value through the full pipeline (deployment
parameter -> three-term cost) and minimized over the certified feasible
window.  The landscape near the optimum is a steep parabola (curvature ~ 2e8
in tau0) riding on a feasibility cliff just left of the window, so the grid
sweep only brackets the minimum; a regula falsi on the analytic dcost/dtau0
in the bracketing cell does the real work.  Both read their values off one
tau0 pencil solve per window (``window_pencil``), with the inspection
integral and its tau0-derivative carried by the ODE, so the choice of tau0*
makes no further ODE solve or quadrature call.  The optimum itself is
certified on the scalar path: integrate, assess and total_cost with adaptive
quadrature, on a solve that ends at its crossing, past which none of them
reads.  Every solve, pencil or scalar, takes the same series start x0 and
ODE tolerance tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cost as cost_mod
from .bounds import THETA_HI, THETA_LO
from .continuum import ODE_TOL, X0_REF, Pencil, integrate
from .errors import MaxIterations, NotUnimodal, OutOfRange, WindowViolated, XiOutOfRange
from .feasibility import (
    PROBE_XI_STEP,
    FeasibilityReport,
    assess,
    crossed,
    deployment_parameter,
    deployment_parameters,
    g_and_slope,
    window_pencil,
)

#: Final bracket width of the refinement in tau0.  Far below the
#: nominal 1e-9 requirement because theta moves ~8e3 times faster than
#: tau0 near the optimum; the cost curve is smooth at this scale.
REFINE_XATOL = 2e-11
#: Cost differences below this are treated as noise by the unimodality scan.
SWEEP_NOISE_TOL = 1e-8
#: Regula falsi probe cap (window refinements make 9-18), Newton steps per probe,
#: the largest probe-to-certificate xi gap.  A probe's xi is a root once its
#: Newton step is at most feasibility.PROBE_XI_STEP.
REFINE_MAX_PROBES = 40
PROBE_NEWTON_STEPS = 12
PROBE_XI_TOL = 1e-8


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
    """Total cost of the trajectory labeled tau0, solved up to its crossing."""
    sol = integrate(tau0, x0=x0, tol=tol, stop=crossed)
    xi, _ = deployment_parameter(sol)
    return cost_mod.total_cost(sol, xi).total


def _cost_rows(pencil: Pencil, taus: np.ndarray) -> tuple[list, np.ndarray]:
    """(tau0, cost, error) rows of the labels taus read off the pencil, and their xi.

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
    return rows, xi


def sweep_cost(
    lo: float, hi: float, grid: int, x0: float = X0_REF, tol: float = ODE_TOL
) -> list[tuple[float, float, str | None]]:
    """(tau0, cost, error) rows over a uniform grid, sorted by tau0.

    Every row is read off one pencil solve centred at the window midpoint.
    """
    pencil, taus = window_pencil(lo, hi, grid, x0=x0, tol=tol)
    return _cost_rows(pencil, taus)[0]


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


def _probe(pencil: Pencil, tau0: float, xi: float, polished: bool = False):
    """(dcost/dtau0, xi) of the label tau0: Newton from xi, else the xi of
    deployment_parameters as is."""
    d = tau0 - pencil.tau_bar
    for _ in range(PROBE_NEWTON_STEPS):
        if not pencil.x0 <= xi <= pencil.x_end:
            break
        psi, t, b, _, i_b = pencil.point(xi)
        tau, s = t + d * b, math.sin(math.tau * xi)
        g, g_x = g_and_slope(tau, math.cos(psi) / math.sin(psi), math.sin(math.pi * xi),
                             math.cos(math.pi * xi))
        step = g / g_x
        if polished or abs(step) <= PROBE_XI_STEP:
            dcost_dxi = cost_mod.closed_form_slope(xi) + math.tau * xi * tau / math.sin(psi)
            return dcost_dxi * b * s / g_x + i_b, xi
        xi -= step
    (xi,), _, (kind,) = deployment_parameters(pencil, np.array([tau0]))
    if kind == OutOfRange.kind:
        raise OutOfRange(f"the Newton polish of the label tau0={tau0!r} fails")
    return (-math.inf, math.nan) if kind else _probe(pencil, tau0, float(xi), polished=True)


def refine_minimum(
    lo: float,
    hi: float,
    grid: int = 2000,
    x0: float = X0_REF,
    tol: float = ODE_TOL,
) -> OptimalSolution:
    """Minimum of the cost over [lo, hi]: the root of dcost/dtau0 in the
    sweep minimum's grid cell.  On the pencil dtau/dtau0 = B, dI/dtau0 = I_B
    and, differentiating g = cos 2 pi x - tau sin 2 pi x - 1 = 0 implicitly,
    dxi/dtau0 = B sin(2 pi xi) / g_x; with D(xi) = xi / cos((1 - xi) pi),

        dcost/dtau0 = (sec(pi xi) + D'(xi) + 2 pi xi tau / sin psi) dxi/dtau0 + I_B.

    A probe polishes xi by Newton's method from the nearer bracket end's (the
    ends from the sweep's), else by deployment_parameters on that one label
    when Newton does not converge or leaves [x0, x_end]; a label past the
    cliff has slope < 0.  The same sign at both ends puts the minimum on the
    window's edge or beyond (WindowViolated); else a safeguarded Illinois
    regula falsi shrinks the bracket below REFINE_XATOL, or raises
    MaxIterations.  tau0* is its last probe, certified on the scalar path
    (integrate -> assess -> total_cost): OutOfRange when the certificate's xi
    differs from the last probe's by more than PROBE_XI_TOL (a probe followed
    a root other than the first, or, at a coarse tol, the certificate solve
    and the pencil step differently: by 2.5e-8 in xi at tol 1e-10),
    WindowViolated when theta* leaves [THETA_LO, THETA_HI] or the clearance
    certificate fails.
    """
    pencil, taus = window_pencil(lo, hi, grid, x0=x0, tol=tol)
    rows, xis = _cost_rows(pencil, taus)
    j = _check_unimodal(np.array([total for _, total, _ in rows]), SWEEP_NOISE_TOL)
    ia, ib = max(j - 1, 0), min(j + 1, len(taus) - 1)
    a, b = float(taus[ia]), float(taus[ib])
    (fa, xa), (fb, xb) = _probe(pencil, a, float(xis[ia])), _probe(pencil, b, float(xis[ib]))
    if not fa < 0.0 < fb:
        raise WindowViolated(f"dcost/dtau0 is {fa!r} at {a!r} and {fb!r} at {b!r}: the "
                             f"minimum lies on the edge of [{lo!r}, {hi!r}] or beyond")
    m, xm, probes, side = a, xa, 2, 0
    while b - a > REFINE_XATOL:
        if probes == REFINE_MAX_PROBES:
            raise MaxIterations(f"bracket [{a!r}, {b!r}] after {probes} probes", iterate=m)
        m = b - fb * (b - a) / (fb - fa)  # b when a is past the cliff: bisect
        m = m if a < m < b else 0.5 * (a + b)
        fm, xm = _probe(pencil, m, xa if m - a < b - m else xb)
        probes += 1
        if fm < 0.0:  # Illinois: halve the end value kept twice in a row
            a, fa, xa, fb, side = m, fm, xm, fb * (0.5 if side < 0 else 1.0), -1
        else:
            b, fb, xb, fa, side = m, fm, xm, fa * (0.5 if side > 0 else 1.0), 1
    sol = integrate(m, x0=x0, tol=tol, stop=crossed)
    certificate = assess(sol)
    if (gap := abs(certificate.xi - xm)) > PROBE_XI_TOL:
        raise OutOfRange(
            f"xi={certificate.xi!r} at tau0*={m!r} differs from the last probe's {xm!r} by "
            f"{gap:.3g}, more than PROBE_XI_TOL={PROBE_XI_TOL:g}: either a probe followed a "
            f"root other than the first, or at tol={tol:g} the certificate solve and the "
            f"pencil take steps different enough to move xi")
    breakdown = cost_mod.total_cost(sol, certificate.xi)
    if not THETA_LO <= certificate.theta <= THETA_HI:
        raise WindowViolated(
            f"theta*={certificate.theta!r} lies outside the deployment-angle "
            f"window [{THETA_LO}, {THETA_HI}]"
        )
    if not certificate.feasible:
        raise WindowViolated(
            f"tau0*={m!r} fails its clearance certificate: "
            f"tau_min={certificate.tau_min!r}"
        )
    return OptimalSolution(
        tau0_star=m,
        xi_star=certificate.xi,
        theta_star=certificate.theta,
        cost_star=breakdown.total,
        clearance_star=certificate.clearance,
        bracket=(float(taus[ia]), float(taus[ib])),
        grid_resolution=len(taus),
        certificate=certificate,
        breakdown=breakdown,
    )
