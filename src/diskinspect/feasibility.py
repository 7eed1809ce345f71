"""Deployment parameter, deployment angle, and disk-clearance certificates.

A start value tau0 is usable when its curve stays strictly outside the
unit disk and returns to the vertical line x=1: the smallest root xi > x0
of T1(x) = 1 is the deployment parameter, and theta = (1 - xi)*pi the
deployment angle of the straight segment that completes the trajectory.
Clearance is sqrt(1 + tau_min^2) - 1 with tau_min the minimum of tau on
[x0, xi], since ||T(x)|| = sqrt(1 + tau(x)^2).

``assess`` certifies one solved trajectory, so its report always names
the start value that trajectory was solved for.

Window sweeps run the same pipeline on every start value of one tau0
pencil: ``window_pencil`` checks the window, solves the pencil centred at
its midpoint (``continuum.integrate_pencil``) and lays the uniform grid of
labels on it.  The crossing scan reads tau off the pencil's columns
sampled once at the scan abscissae, and the bisections, Newton steps and
clearance minima evaluate its dense output for all labels at once.  The
scalar functions stay the reference the sweeps are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

# integrate is unused here but stays importable as feasibility.integrate,
# the name the perfbench tracer patches and its harness test looks up
from .continuum import ODE_TOL, X0_REF, OdeSolution, Pencil, integrate, integrate_pencil
from .errors import NoCrossing, OutOfRange

#: Root scan and refinement tolerances.
SCAN_GRID = 10_000
BISECT_TOL = 1e-8
BISECT_TOL_CHECK = 5e-10
#: The Newton polish may leave |T1 - 1| above its value at the bisection
#: root by at most a few ulps of the O(1) terms that make it up.
NEWTON_G_SLACK = 8 * np.finfo(float).eps
#: A start value counts as feasible when the curve clears the disk by at
#: least this much in tau; the certified window has margin >= 0.2.
FEASIBLE_TAU_MIN = 1e-6
#: Brent tolerance for the tau minimum.
BRENT_XATOL = 1e-10

#: Certified feasible window for the start value.
WINDOW_LO = 1.64697
WINDOW_HI = 1.6525

#: Scan abscissae per label evaluated at once by the pencil scans; no scan
#: builds a matrix over every abscissa and every label.
SCAN_CHUNK = 250

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def deployment_angle(xi: float) -> float:
    """Deployment angle theta = (1 - xi) * pi of deployment parameter xi."""
    return (1.0 - xi) * math.pi


def _first_coord_minus_one(sol: OdeSolution, x: float) -> float:
    tau = sol.tau_at(x)
    return math.cos(math.tau * x) - tau * math.sin(math.tau * x) - 1.0


def _bisect_root(sol: OdeSolution, a: float, b: float, tol: float) -> float:
    fa = _first_coord_minus_one(sol, a)
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = _first_coord_minus_one(sol, mid)
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def deployment_parameter(sol: OdeSolution) -> tuple[float, float]:
    """Smallest root xi > x0 of T1(x) = 1, plus the bisection self-check gap.

    Scan a uniform grid for the first sign change of g = T1 - 1 from
    strictly negative (g < -1e-9, which excludes the trivial near-root at
    x0 where g ~ -2*pi*tau0*x0) to nonnegative; bisect the bracket at 1e-8,
    re-bisect at 5e-10 and report the discrepancy; finish with Newton steps
    on the dense output so the returned root is smooth in tau0 (the
    optimizer differentiates through it; a bisection staircase of height
    5e-10 would contaminate the minimum through dT1/dxi ~ O(1)).

    The polish is guarded: OutOfRange when an iterate leaves the scan
    bracket, or when |g| at the last iterate it evaluates exceeds |g| at
    the bisection root by more than NEWTON_G_SLACK.
    """
    xs = np.linspace(sol.x0, sol.x_end, SCAN_GRID)
    vals = sol.values(xs)
    g = np.cos(math.tau * xs) - vals[1] * np.sin(math.tau * xs) - 1.0
    hits = np.where((g[:-1] < -1e-9) & (g[1:] >= 0.0))[0]
    if len(hits) == 0:
        raise NoCrossing(
            f"curve with tau0={sol.tau0!r} never returns to the line x=1"
        )
    a, b = xs[hits[0]], xs[hits[0] + 1]
    xi_coarse = _bisect_root(sol, a, b, BISECT_TOL)
    xi_check = _bisect_root(sol, a, b, BISECT_TOL_CHECK)
    gap = abs(xi_coarse - xi_check)
    xi = xi_check
    gvals = []
    for _ in range(3):
        _check_polish_bracket(sol, xi, a, b)
        psi, tau = sol.values(xi)
        dtau = math.tau * (tau * math.cos(psi) / math.sin(psi) - 1.0)
        s, c = math.sin(math.tau * xi), math.cos(math.tau * xi)
        gval = c - tau * s - 1.0
        gprime = -math.tau * s - dtau * s - math.tau * tau * c
        gvals.append(abs(gval))
        xi -= gval / gprime
    _check_polish_bracket(sol, xi, a, b)
    if gvals[-1] > gvals[0] + NEWTON_G_SLACK:
        raise OutOfRange(
            f"Newton polish for tau0={sol.tau0!r} raised |T1 - 1| from "
            f"{gvals[0]!r} at the bisection root to {gvals[-1]!r}"
        )
    return float(xi), float(gap)


def _check_polish_bracket(sol: OdeSolution, xi: float, a: float, b: float) -> None:
    if not a <= xi <= b:
        raise OutOfRange(
            f"Newton polish for tau0={sol.tau0!r} left the scan bracket "
            f"[{a!r}, {b!r}] at xi={xi!r}"
        )


def clearance_certificate(sol: OdeSolution, xi: float) -> tuple[float, float]:
    """Minimum of tau on [x0, xi] (bounded Brent) and the radial clearance.

    A coarse grid pre-scan brackets the interior minimum before Brent runs,
    guarding against endpoint traps.  Bounded Brent only samples the
    bracket's interior, so a minimum at x0 or xi (a curve that dives into
    the disk) is taken from the bracket's end values.
    """
    xs = np.linspace(sol.x0, xi, 2001)
    tau = sol.values(xs)[1]
    j = int(np.argmin(tau))
    lo, hi = max(j - 1, 0), min(j + 1, len(xs) - 1)
    res = minimize_scalar(
        lambda x: sol.tau_at(x),
        bounds=(xs[lo], xs[hi]),
        method="bounded",
        options={"xatol": BRENT_XATOL},
    )
    tau_min = float(min(res.fun, tau[lo], tau[hi]))
    return tau_min, clearance_from_tau(tau_min)


def clearance_from_tau(tau_min: float) -> float:
    """Radial clearance sqrt(1 + tau_min^2) - 1 (exactly 0 at tau_min = 0)."""
    return math.sqrt(1.0 + tau_min * tau_min) - 1.0


def golden_min(f, a, b):
    """Golden-section search for the minimum of f on [a, b].

    Returns the midpoint of the final bracket and the smallest value of f
    seen at its two interior points.  a and b may be floats or arrays of
    independent brackets (f is then evaluated elementwise); every bracket
    keeps shrinking until the widest is below BRENT_XATOL.
    """
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while np.any(b - a > BRENT_XATOL):
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        probe = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fp = f(probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return 0.5 * (a + b), np.minimum(fc, fd)


def _g_many(pencil: Pencil, x: np.ndarray, tau0s: np.ndarray) -> np.ndarray:
    """T1 - 1 of the labels tau0s at abscissae x (see Pencil.state)."""
    tau = pencil.state(x, tau0s)[1]
    return np.cos(math.tau * x) - tau * np.sin(math.tau * x) - 1.0


def _first_crossings(pencil: Pencil, tau0s: np.ndarray):
    """Per label, the first scan index i with g[i] < -1e-9 and g[i+1] >= 0.

    -1 marks a label without such a crossing.  Also returns the scan
    abscissae, deployment_parameter's grid; tau and the trigonometric
    factors there are the pencil's, sampled once per pencil.
    """
    xs, cos, sin, (_, t, b, _, _) = pencil.sample(SCAN_GRID)
    d = tau0s - pencil.tau_bar
    first = np.full(tau0s.shape, -1)
    for lo in range(0, len(xs) - 1, SCAN_CHUNK):
        rows = slice(lo, lo + SCAN_CHUNK + 1)
        tau = t[rows, None] + d * b[rows, None]
        g = cos[rows, None] - tau * sin[rows, None] - 1.0
        hit = (g[:-1] < -1e-9) & (g[1:] >= 0.0)
        new = (first < 0) & hit.any(axis=0)
        first[new] = lo + np.argmax(hit[:, new], axis=0)
        if np.all(first >= 0):
            break
    return xs, first


def _bisect_many(pencil: Pencil, tau0s, a, b, tol: float) -> np.ndarray:
    """_bisect_root for every label, each with its own stopping test."""
    fa = _g_many(pencil, a, tau0s)
    while True:
        active = b - a > tol
        if not np.any(active):
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        fm = _g_many(pencil, mid, tau0s)
        flip = (fa < 0.0) != (fm < 0.0)
        b = np.where(active & flip, mid, b)
        move = active & ~flip
        a = np.where(move, mid, a)
        fa = np.where(move, fm, fa)


def deployment_parameters(pencil: Pencil, tau0s):
    """deployment_parameter for every label: (xi, self-check gap, error) arrays.

    The same scan, bisections and three guarded Newton steps, vectorized
    across labels.  Where the scalar version raises, xi and gap are NaN and
    the error entry holds the kind: NoCrossing where the scan finds no
    crossing, OutOfRange where a Newton iterate leaves the label's scan
    bracket (which lies inside the solved range) or where |g| at the last
    Newton evaluation exceeds |g| at the bisection root by more than
    NEWTON_G_SLACK.  The other entries of error are None.
    """
    tau0s = np.asarray(tau0s, dtype=float)
    xs, first = _first_crossings(pencil, tau0s)
    found = first >= 0
    taus = tau0s[found]
    a, b = xs[first[found]], xs[first[found] + 1]
    xi_coarse = _bisect_many(pencil, taus, a, b, BISECT_TOL)
    xi = _bisect_many(pencil, taus, a, b, BISECT_TOL_CHECK)
    gap = np.abs(xi_coarse - xi)
    abs_g = np.full((3, len(taus)), math.nan)
    for step in range(3):
        inside = (xi >= a) & (xi <= b)
        xi = np.where(inside, xi, math.nan)
        psi, tau, _ = pencil.state(xi[inside], taus[inside])
        dtau = math.tau * (tau * np.cos(psi) / np.sin(psi) - 1.0)
        s, c = np.sin(math.tau * xi[inside]), np.cos(math.tau * xi[inside])
        g = c - tau * s - 1.0
        abs_g[step, inside] = np.abs(g)
        xi[inside] -= g / (-math.tau * s - dtau * s - math.tau * tau * c)
    ok = (xi >= a) & (xi <= b) & ~(abs_g[-1] > abs_g[0] + NEWTON_G_SLACK)
    out_xi = np.full(tau0s.shape, math.nan)
    out_gap = np.full(tau0s.shape, math.nan)
    error = np.full(tau0s.shape, NoCrossing.kind, dtype=object)
    out_xi[found] = np.where(ok, xi, math.nan)
    out_gap[found] = np.where(ok, gap, math.nan)
    error[found] = np.where(ok, None, OutOfRange.kind)
    return out_xi, out_gap, error


def clearance_minima(pencil: Pencil, xi: np.ndarray, tau0s: np.ndarray) -> np.ndarray:
    """tau_min of clearance_certificate for each label tau0s[k] on [x0, xi[k]].

    The same 2001-point pre-scan brackets each minimum, then a
    golden-section search shrinks every bracket below BRENT_XATOL; as
    there, a bracket end below the interior minimum is the minimum.
    """
    xs = np.linspace(pencil.x0, xi, 2001)
    k = np.arange(len(tau0s))
    j = np.zeros(len(tau0s), dtype=int)
    best = np.full(len(tau0s), np.inf)
    for lo in range(0, len(xs), SCAN_CHUNK):
        tau = pencil.state(xs[lo : lo + SCAN_CHUNK], tau0s)[1]
        i = np.argmin(tau, axis=0)
        better = tau[i, k] < best
        j[better] = lo + i[better]
        best = np.minimum(best, tau[i, k])
    lo = xs[np.maximum(j - 1, 0), k]
    hi = xs[np.minimum(j + 1, len(xs) - 1), k]
    ends = np.minimum(pencil.state(lo, tau0s)[1], pencil.state(hi, tau0s)[1])
    inner = golden_min(lambda x: pencil.state(x, tau0s)[1], lo, hi)[1]
    return np.minimum(inner, ends)


@dataclass
class FeasibilityReport:
    """Per-start certificate: deployment parameter, angle, and clearance."""

    tau0: float
    xi: float
    theta: float
    tau_min: float
    clearance: float
    feasible: bool
    xi_selfcheck_gap: float
    error: str | None = None


def assess(sol: OdeSolution) -> FeasibilityReport:
    """Full feasibility report for the start value sol.tau0 that sol solves."""
    xi, gap = deployment_parameter(sol)
    tau_min, clearance = clearance_certificate(sol, xi)
    return FeasibilityReport(
        tau0=sol.tau0,
        xi=xi,
        theta=deployment_angle(xi),
        tau_min=tau_min,
        clearance=clearance,
        feasible=tau_min > FEASIBLE_TAU_MIN,
        xi_selfcheck_gap=gap,
    )


def _error_report(tau0: float, kind: str) -> FeasibilityReport:
    return FeasibilityReport(
        tau0=tau0,
        xi=math.nan,
        theta=math.nan,
        tau_min=math.nan,
        clearance=math.nan,
        feasible=False,
        xi_selfcheck_gap=math.nan,
        error=kind,
    )


def window_pencil(
    lo: float, hi: float, grid: int, x0: float = X0_REF, tol: float = ODE_TOL
) -> tuple[Pencil, np.ndarray]:
    """The pencil centred at the window midpoint and the uniform grid of labels on it."""
    if not (0.0 < lo < hi and grid >= 2):
        raise ValueError("need 0 < lo < hi and grid >= 2")
    return integrate_pencil(0.5 * (lo + hi), x0=x0, tol=tol), np.linspace(lo, hi, grid)


def feasibility_sweep(
    tau0_lo: float, tau0_hi: float, grid: int, x0: float = X0_REF, tol: float = ODE_TOL
) -> list[FeasibilityReport]:
    """Reports over a uniform tau0 grid; per-point errors recorded inline.

    One pencil solve, centred at the window midpoint, covers every point; a
    point whose deployment parameter fails (NoCrossing, OutOfRange) is an
    error row of that kind.
    """
    pencil, tau0s = window_pencil(tau0_lo, tau0_hi, grid, x0=x0, tol=tol)
    xi, gap, error = deployment_parameters(pencil, tau0s)
    found = ~np.isnan(xi)
    tau_min = np.full(xi.shape, math.nan)
    tau_min[found] = clearance_minima(pencil, xi[found], tau0s[found])
    reports = []
    for k, tau0 in enumerate(tau0s):
        if not found[k]:
            reports.append(_error_report(float(tau0), error[k]))
            continue
        t = float(tau_min[k])
        reports.append(FeasibilityReport(
            tau0=float(tau0),
            xi=float(xi[k]),
            theta=deployment_angle(float(xi[k])),
            tau_min=t,
            clearance=clearance_from_tau(t),
            feasible=t > FEASIBLE_TAU_MIN,
            xi_selfcheck_gap=float(gap[k]),
        ))
    return reports

