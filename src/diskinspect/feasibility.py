"""Deployment parameter, deployment angle, and disk-clearance certificates.

A start value tau0 is usable when its curve stays strictly outside the
unit disk and returns to the vertical line x=1: the smallest root xi > x0
of T1(x) = 1 is the deployment parameter, and theta = (1 - xi)*pi the
deployment angle of the straight segment that completes the trajectory.
Clearance is sqrt(1 + tau_min^2) - 1 with tau_min the minimum of tau on
[x0, xi], since ||T(x)|| = sqrt(1 + tau(x)^2); it is 0 where tau_min <= 0.

Both come from the solve's one uniform scan and one bisection: xi from
the first sign change of g = T1 - 1 on the scan, tau_min from the root of
tau' = 2*pi*(tau cot psi - 1) next to the scan's smallest tau before xi.
That sign change, the crossing, is the first scan index i with
g[i] < 0 <= g[i+1]; NoCrossing means that g never rises on the scan.
g ~ -2 pi x (tau + pi x) < 0 at the start while tau > 0, so the first
rise is the first return to x = 1; a small tau0, whose tau falls below
-pi x just past the start, crosses there and is infeasible.

``assess`` certifies one solved trajectory, so its report always names
the start value that trajectory was solved for.

Window sweeps run the same pipeline on every start value of one tau0
pencil: ``window_pencil`` checks the window, solves the pencil centred at
its midpoint (``continuum.integrate_pencil``) and lays the uniform grid of
labels on it.  The crossing and clearance scans read tau off the pencil's
columns sampled once at the scan abscissae, and the bisections and Newton
steps evaluate its dense output for all labels at once.  The scalar
functions stay the reference the sweeps are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# integrate is unused here but stays importable as feasibility.integrate,
# the name the perfbench tracer patches and its harness test looks up
from .continuum import ODE_TOL, X0_REF, OdeSolution, Pencil, integrate, integrate_pencil
from .errors import NoCrossing, OutOfRange

#: Root scan and refinement tolerances.
SCAN_GRID = 10_000
BISECT_TOL = 5e-10
#: The Newton polish may leave |T1 - 1| above its value at the bisection
#: root by at most a few ulps of the O(1) terms that make it up.
NEWTON_G_SLACK = 8 * np.finfo(float).eps
#: A start value counts as feasible when the curve clears the disk by at
#: least this much in tau; the certified window has margin >= 0.2.
FEASIBLE_TAU_MIN = 1e-6

#: Certified feasible window for the start value.
WINDOW_LO = 1.64697
WINDOW_HI = 1.6525

#: Scan abscissae per label evaluated at once by the pencil scans; no scan
#: builds a matrix over every abscissa and every label.
SCAN_CHUNK = 250


def deployment_angle(xi: float) -> float:
    """Deployment angle theta = (1 - xi) * pi of deployment parameter xi."""
    return (1.0 - xi) * math.pi


def _tau_slope(sol: OdeSolution, x: float) -> float:
    """tau cot psi - 1 = tau' / (2 pi) at x."""
    psi, tau = sol.point(x)
    return tau * math.cos(psi) / math.sin(psi) - 1.0


def _g(tau, c, s):
    """g = T1 - 1 from tau, c = cos 2 pi x and s = sin 2 pi x; floats or arrays alike."""
    return c - tau * s - 1.0


def g_and_slope(tau, cot_psi, s, c):
    """g = T1 - 1 and dg/dx from tau, cot psi, s = sin 2 pi x and c = cos 2 pi x
    (dtau/dx = 2 pi (tau cot psi - 1)); floats or arrays alike."""
    return _g(tau, c, s), -math.tau * (s + (tau * cot_psi - 1.0) * s + tau * c)


def _bisect_root(f, a: float, b: float) -> float:
    """Bisect [a, b] to BISECT_TOL for a sign change of f (f < 0 against
    f >= 0); without one, the bracket closes in on b."""
    fa = f(a)
    while b - a > BISECT_TOL:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def deployment_parameter(sol: OdeSolution) -> tuple[float, float]:
    """Smallest root xi > x0 of T1(x) = 1, plus the self-check gap.

    Scan the solve's SCAN_GRID abscissae (``OdeSolution.sample``: tau
    alone, shared with clearance_certificate, on the cos and sin of 2 pi x
    that every solve from the same x0 shares) for the crossing (see the
    module docstring); bisect its bracket to BISECT_TOL; finish with three
    Newton steps on single-point reads of the dense output in plain
    floats (``OdeSolution.point``) so the returned root is smooth in tau0 (the optimizer
    differentiates through it; a bisection staircase of height 5e-10 would
    contaminate the minimum through dT1/dxi ~ O(1)).  The gap is
    |xi - bisection root|, the two root finders checked against each
    other: at most about BISECT_TOL/2 when both found the same root.

    The polish is guarded: OutOfRange when an iterate leaves the scan
    bracket, or when |g| at the last iterate it evaluates exceeds |g| at
    the bisection root by more than NEWTON_G_SLACK.
    """
    xs, cos, sin, tau = sol.sample(SCAN_GRID)
    g = _g(tau, cos, sin)
    hits = np.where((g[:-1] < 0.0) & (g[1:] >= 0.0))[0]
    if len(hits) == 0:
        raise NoCrossing(
            f"curve with tau0={sol.tau0!r} never returns to the line x=1"
        )
    a, b = xs[hits[0]], xs[hits[0] + 1]
    xi = root = _bisect_root(
        lambda x: _g(sol.tau_at(x), math.cos(math.tau * x), math.sin(math.tau * x)), a, b)
    gvals = []
    for _ in range(3):
        _check_polish_bracket(sol, xi, a, b)
        psi, tau = sol.point(xi)
        gval, gprime = g_and_slope(tau, math.cos(psi) / math.sin(psi),
                                   math.sin(math.tau * xi), math.cos(math.tau * xi))
        gvals.append(abs(gval))
        xi -= gval / gprime
    _check_polish_bracket(sol, xi, a, b)
    if gvals[-1] > gvals[0] + NEWTON_G_SLACK:
        raise OutOfRange(
            f"Newton polish for tau0={sol.tau0!r} raised |T1 - 1| from "
            f"{gvals[0]!r} at the bisection root to {gvals[-1]!r}"
        )
    return float(xi), float(abs(xi - root))


def _check_polish_bracket(sol: OdeSolution, xi: float, a: float, b: float) -> None:
    if not a <= xi <= b:
        raise OutOfRange(
            f"Newton polish for tau0={sol.tau0!r} left the scan bracket "
            f"[{a!r}, {b!r}] at xi={xi!r}"
        )


def clearance_certificate(sol: OdeSolution, xi: float) -> float:
    """Minimum of tau on [x0, xi]; see clearance_from_tau.

    The neighbours of the smallest tau on deployment_parameter's scan at or
    before xi, the upper one clamped to xi, bracket the root of tau cot psi
    - 1 = tau' / (2 pi), which the bisection finds.  A bracket end with
    smaller tau is the minimum: tau(xi) for a curve that dives to the crossing.
    """
    xs, _, _, tau = sol.sample(SCAN_GRID)
    j = int(np.argmin(tau[: np.searchsorted(xs, xi, side="right")]))
    lo, hi = float(xs[max(j - 1, 0)]), min(float(xs[min(j + 1, len(xs) - 1)]), xi)
    x = _bisect_root(lambda x: _tau_slope(sol, x), lo, hi)
    return min(sol.tau_at(x), sol.tau_at(lo), sol.tau_at(hi))


def clearance_from_tau(tau_min: float) -> float:
    """Radial clearance sqrt(1 + tau_min^2) - 1, and 0 where tau_min <= 0:
    tau starts at tau0 > 0, so it passed through 0, where ||T|| = 1 and the
    curve touches the disk.  NaN stays NaN."""
    if tau_min <= 0.0:
        return 0.0
    return math.sqrt(1.0 + tau_min * tau_min) - 1.0


def _tau_slope_many(pencil: Pencil, x: np.ndarray, tau0s: np.ndarray) -> np.ndarray:
    """tau cot psi - 1 of the labels tau0s at abscissae x (see Pencil.state)."""
    psi, tau, _ = pencil.state(x, tau0s)
    return tau * np.cos(psi) / np.sin(psi) - 1.0


def _first_crossings(pencil: Pencil, tau0s: np.ndarray):
    """Per label, the scan index that starts its crossing (see the module
    docstring), or -1 where g never rises.  Also returns the scan
    abscissae, deployment_parameter's grid; Tbar and B there are the
    pencil's, sampled once per pencil, on the shared trigonometric factors.
    """
    xs, cos, sin, (t, b) = pencil.sample(SCAN_GRID)
    d = tau0s - pencil.tau_bar
    first = np.full(tau0s.shape, -1)
    for lo in range(0, len(xs) - 1, SCAN_CHUNK):
        rows = slice(lo, lo + SCAN_CHUNK + 1)
        tau = t[rows, None] + d * b[rows, None]
        g = _g(tau, cos[rows, None], sin[rows, None])
        hit = (g[:-1] < 0.0) & (g[1:] >= 0.0)
        new = (first < 0) & hit.any(axis=0)
        first[new] = lo + np.argmax(hit[:, new], axis=0)
        if np.all(first >= 0):
            break
    return xs, first


def _bisect_many(f, a, b) -> np.ndarray:
    """_bisect_root for every label: f maps the abscissae of all labels to
    their values, and each bracket has its own stopping test."""
    fa = f(a)
    while True:
        active = b - a > BISECT_TOL
        if not np.any(active):
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        fm = f(mid)
        flip = (fa < 0.0) != (fm < 0.0)
        b = np.where(active & flip, mid, b)
        move = active & ~flip
        a = np.where(move, mid, a)
        fa = np.where(move, fm, fa)


def deployment_parameters(pencil: Pencil, tau0s):
    """deployment_parameter for every label: (xi, self-check gap, error) arrays.

    The same scan, bisection and three guarded Newton steps, vectorized
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
    xi = root = _bisect_many(lambda x: _g(
        pencil.state(x, taus)[1], np.cos(math.tau * x), np.sin(math.tau * x)), a, b)
    abs_g = np.full((3, len(taus)), math.nan)
    for step in range(3):
        inside = (xi >= a) & (xi <= b)
        xi = np.where(inside, xi, math.nan)  # a copy: root stays as it is
        psi, tau, _ = pencil.state(xi[inside], taus[inside])
        x = math.tau * xi[inside]
        g, g_x = g_and_slope(tau, np.cos(psi) / np.sin(psi), np.sin(x), np.cos(x))
        abs_g[step, inside] = np.abs(g)
        xi[inside] -= g / g_x
    ok = (xi >= a) & (xi <= b) & ~(abs_g[-1] > abs_g[0] + NEWTON_G_SLACK)
    out = np.full((2, len(tau0s)), math.nan)
    out[:, found] = np.where(ok, [xi, np.abs(xi - root)], math.nan)
    error = np.full(tau0s.shape, NoCrossing.kind, dtype=object)
    error[found] = np.where(ok, None, OutOfRange.kind)
    return out[0], out[1], error


def clearance_minima(pencil: Pencil, xi: np.ndarray, tau0s: np.ndarray) -> np.ndarray:
    """tau_min of clearance_certificate for each label tau0s[k] on [x0, xi[k]].

    The same bracket on the crossing scan's abscissae (``Pencil.sample``),
    the same bisection of tau cot psi - 1 for all labels at once and the
    same bracket-end values.
    """
    xs, _, _, (t, b) = pencil.sample(SCAN_GRID)
    d = tau0s - pencil.tau_bar
    n = np.searchsorted(xs, xi, side="right")
    k = np.arange(len(tau0s))
    j, best = np.zeros(len(tau0s), dtype=int), np.full(len(tau0s), np.inf)
    for lo in range(0, n.max(initial=0), SCAN_CHUNK):
        cols = np.arange(lo, min(lo + SCAN_CHUNK, len(xs)))
        tau = t[cols] + d[:, None] * b[cols]
        tau[cols >= n[:, None]] = np.inf
        i = np.argmin(tau, axis=1)
        j = np.where(tau[k, i] < best, lo + i, j)
        best = np.minimum(best, tau[k, i])
    lo = xs[np.maximum(j - 1, 0)]
    hi = np.minimum(xs[np.minimum(j + 1, len(xs) - 1)], xi)
    x = _bisect_many(lambda x: _tau_slope_many(pencil, x, tau0s), lo, hi)
    return np.min([pencil.state(e, tau0s)[1] for e in (x, lo, hi)], axis=0)


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


def _report(tau0, xi, tau_min, gap, error=None) -> FeasibilityReport:
    """The report of tau0; NaN xi, tau_min and gap carry an error row through."""
    xi, tau_min = float(xi), float(tau_min)
    return FeasibilityReport(
        tau0=float(tau0),
        xi=xi,
        theta=deployment_angle(xi),
        tau_min=tau_min,
        clearance=clearance_from_tau(tau_min),
        feasible=tau_min > FEASIBLE_TAU_MIN,
        xi_selfcheck_gap=float(gap),
        error=error,
    )


def assess(sol: OdeSolution) -> FeasibilityReport:
    """Full feasibility report for the start value sol.tau0 that sol solves."""
    xi, gap = deployment_parameter(sol)
    return _report(sol.tau0, xi, clearance_certificate(sol, xi), gap)


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
    return [_report(*row) for row in zip(tau0s, xi, tau_min, gap, error)]
