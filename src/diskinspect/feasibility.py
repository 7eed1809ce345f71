"""Deployment parameter, deployment angle, and disk-clearance certificates.

A start value tau0 is usable when its curve stays strictly outside the
unit disk and returns to the vertical line x=1: the smallest root xi > x0
of T1(x) = 1 is the deployment parameter, and theta = (1 - xi)*pi the
deployment angle of the straight segment that completes the trajectory.
Clearance is sqrt(1 + tau_min^2) - 1 with tau_min the minimum of tau on
[x0, xi], since ||T(x)|| = sqrt(1 + tau(x)^2); it is 0 where tau_min <= 0.

Both come from the solve's own steps, certified for its interpolant on
[x0, xi]: each step's tau is a degree-7 polynomial that its Bernstein
coefficients enclose (``StackedDense.bernstein``), widened by
ENCLOSURE_SLACK times (1 + the step's largest coefficient).

The crossing.  The steps are walked in order, and one whose bound of
g = T1 - 1 (``_g_bound``) is below 0 is skipped.  The bracket is the
first step, or piece of one, that the bound cannot exclude and whose
right end reads g >= 0; a piece whose right end reads g < 0 is halved by
de Casteljau, at most dop853.HALVINGS times, and passed over at that
depth.  NoCrossing means that there is no bracket.  T1(1) = 1, so the
last step is never excluded; its end reads the rounding noise of g(1),
which has the sign of tau(1).  g ~ -2 pi x (tau + pi x) < 0 at the start
while tau > 0, so the first rise is the first return to x = 1; a small
tau0, whose tau falls below -pi x just past the start, crosses there and
is infeasible.  Bisecting the bracket and a Newton polish give xi.

The clearance.  tau_min is the root of tau' = 2 pi (tau cot psi - 1),
bisected between the neighbours of the smallest tau among the step nodes
up to xi and xi itself; a bracket end with smaller tau is the minimum,
tau(xi) for a curve that dives to the crossing.  tau_lower, the smallest
coefficient of the steps up to xi, the last one cut at xi, rounded down,
bounds tau on [x0, xi]: feasible means tau_lower > FEASIBLE_TAU_MIN.

``assess`` certifies one solved trajectory, so its report always names
the start value that trajectory was solved for.  Window sweeps run the
same pipeline on every label of one tau0 pencil (``window_pencil``): a
label's coefficients are the lines Tbar_c + (tau0 - tau_bar) B_c, bounded
for all labels and steps at once (one solve is the pencil B = 0), and
the bisections and Newton steps read every label at once.  The scalar
functions stay the reference the sweeps are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dop853
# integrate is unused here but stays importable as feasibility.integrate,
# the name the perfbench tracer patches and its harness test looks up
from .continuum import ODE_TOL, X0_REF, OdeSolution, Pencil, integrate, integrate_pencil
from .errors import NoCrossing, OutOfRange

#: Bisection tolerance of the crossing and clearance roots.
BISECT_TOL = 5e-10
#: The Newton polish may leave |T1 - 1| above its value at the bisection
#: root by at most a few ulps of the O(1) terms that make it up.
NEWTON_G_SLACK = 8 * np.finfo(float).eps
#: A start value counts as feasible when tau_lower exceeds this; the
#: certified window has margin >= 0.2.
FEASIBLE_TAU_MIN = 1e-6
#: Rounding slack of an enclosure per unit of 1 + its largest coefficient:
#: the (8, 8) product errs by at most 9 eps times the summed |rows|, at
#: most 475 (the summed |BERNSTEIN^-1|) times that coefficient; the lines,
#: the cuts, cos and sin (4 ulp) and the bound add tens of eps more.
ENCLOSURE_SLACK = 8192 * np.finfo(float).eps

#: Certified feasible window for the start value.
WINDOW_LO = 1.64697
WINDOW_HI = 1.6525


def deployment_angle(xi: float) -> float:
    """Deployment angle theta = (1 - xi) * pi of deployment parameter xi."""
    return (1.0 - xi) * math.pi


def _tau_slope(sol: OdeSolution, x: float) -> float:
    """tau cot psi - 1 = tau' / (2 pi) at x."""
    psi, tau = sol.point(x)
    return tau * math.cos(psi) / math.sin(psi) - 1.0


def _g(tau, h, k):
    """g = T1 - 1 from tau, h = sin pi x and k = cos pi x, as -2 h (h + tau k);
    floats or arrays alike.  Near the start g ~ 1e-11 and a step is as short
    as x0; there the difference cos 2 pi x - tau sin 2 pi x - 1 rounds at
    1e-16, enough to move a root next to a node to its other side."""
    return -2.0 * h * (h + tau * k)


def g_and_slope(tau, cot_psi, h, k):
    """g = T1 - 1 and dg/dx from tau, cot psi, h = sin pi x and k = cos pi x
    (dtau/dx = 2 pi (tau cot psi - 1)); floats or arrays alike."""
    s, c = 2.0 * h * k, (k - h) * (k + h)
    return _g(tau, h, k), -math.tau * (s + (tau * cot_psi - 1.0) * s + tau * c)


def _g_bound(t_lo, t_hi, x_lo, x_hi, slack):
    """Upper bound of g over x in [x_lo, x_hi], inside [0, 1], and tau in
    [t_lo, t_hi], plus slack; floats or arrays alike.  cos 2 pi x has no
    interior maximum on [0, 1], and sin 2 pi x has its extrema at x = 1/4
    and 3/4; g is affine in tau and in sin."""
    a, b = math.tau * x_lo, math.tau * x_hi
    s_a, s_b = np.sin(a), np.sin(b)
    s_hi = np.where((x_lo <= 0.25) & (0.25 <= x_hi), 1.0, np.maximum(s_a, s_b))
    s_lo = np.where((x_lo <= 0.75) & (0.75 <= x_hi), -1.0, np.minimum(s_a, s_b))
    ts_min = np.minimum(np.minimum(t_lo * s_lo, t_lo * s_hi),
                        np.minimum(t_hi * s_lo, t_hi * s_hi))
    return np.maximum(np.cos(a), np.cos(b)) - ts_min - 1.0 + slack


def _ranges(T: np.ndarray, B: np.ndarray, d: np.ndarray):
    """The coefficient range of tau = T + d B per label and step, and its
    slack, (labels, steps) each: T and B are (steps, 8), and the range is
    the smallest and largest of the 8 lines T_c + d B_c, one c at a time."""
    d = d[:, None]
    lo = hi = T[:, 0] + d * B[:, 0]
    for c in range(1, 8):
        line = T[:, c] + d * B[:, c]
        lo, hi = np.minimum(lo, line), np.maximum(hi, line)
    scale = np.abs(T).max(axis=1) + np.abs(d) * np.abs(B).max(axis=1)
    return lo, hi, ENCLOSURE_SLACK * (1.0 + scale)


def _open_piece(b: np.ndarray, x_lo, x_hi, slack, g_at, depth: int):
    """The first piece of [x_lo, x_hi], on which tau has the Bernstein
    coefficients b, that _g_bound cannot exclude and whose right end reads
    g_at >= 0, halving at most depth times; None where there is none."""
    if _g_bound(b.min(), b.max(), x_lo, x_hi, slack) < 0.0:
        return None
    if g_at(x_hi) >= 0.0:
        return x_lo, x_hi
    if depth == 0:
        return None
    mid = 0.5 * (x_lo + x_hi)
    left, right = dop853.split(b, 0.5)
    return (_open_piece(left, x_lo, mid, slack, g_at, depth - 1)
            or _open_piece(right, mid, x_hi, slack, g_at, depth - 1))


def _brackets(ts: np.ndarray, T, B, d, tau_at):
    """The crossing bracket of every label of tau = T + d B on the steps ts:
    (a, b, found) arrays.  tau_at(x, i) reads label i's tau at the float x,
    and tau_at(x, slice(None)) every label's, one abscissa each.

    The bound comes for every label and step at once.  A label whose first
    step that it cannot exclude ends with g >= 0 has that step as its
    bracket; any other walks its steps on its own coefficients.
    """
    lo, hi, slack = _ranges(T, B, d)
    open_ = _g_bound(lo, hi, ts[:-1], ts[1:], slack) >= 0.0
    first = np.argmax(open_, axis=1)
    a, b = ts[first], ts[first + 1]
    closed = _g(tau_at(b, slice(None)), np.sin(math.pi * b), np.cos(math.pi * b)) >= 0.0
    found = open_.any(axis=1) & closed
    for i in np.flatnonzero(open_.any(axis=1) & ~closed).tolist():
        def g_at(x):
            return _g(tau_at(x, i), math.sin(math.pi * x), math.cos(math.pi * x))
        for k in np.flatnonzero(open_[i]).tolist():
            piece = _open_piece(T[k] + d[i] * B[k], float(ts[k]), float(ts[k + 1]),
                                slack[i, k], g_at, dop853.HALVINGS)
            if piece is not None:
                (a[i], b[i]), found[i] = piece, True
                break
    return a, b, found


def _clearance_brackets(ts: np.ndarray, T, B, d, tau_xi, xi):
    """Per label of tau = T + d B, the neighbours (lo, hi) of the smallest tau
    among the nodes ts up to xi and xi itself.  A node's tau is the last
    coefficient of the step it ends (x0's the first of step 0), bit for bit
    the dense output's read there."""
    n = np.searchsorted(ts, xi, side="right")
    nodes = np.append(T[:1, 0], T[:, 7])[:, None] + d * np.append(B[:1, 0], B[:, 7])[:, None]
    tau = np.where(np.arange(len(ts))[:, None] < n, nodes, np.inf)
    j = np.argmin(tau, axis=0)
    j = np.where(tau_xi < tau[j, np.arange(len(xi))], n, j)
    return ts[np.maximum(j - 1, 0)], np.where(j + 1 < n, ts[np.minimum(j + 1, len(ts) - 1)], xi)


def _tau_lower(ts: np.ndarray, T, B, d, xi):
    """tau_lower of every label of tau = T + d B on [x0, xi]."""
    lo, _, slack = _ranges(T, B, d)
    k = np.clip(np.searchsorted(ts, xi, side="left") - 1, 0, len(ts) - 2)
    whole = np.where(np.arange(lo.shape[1]) < k[:, None], lo - slack, np.inf).min(axis=1)
    cut = dop853.split((T[k] + d[:, None] * B[k]).T, (xi - ts[k]) / (ts[k + 1] - ts[k]))[0]
    return np.minimum(whole, cut.min(axis=0) - slack[np.arange(len(k)), k])


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

    Bisect the crossing bracket (see the module docstring) to BISECT_TOL;
    finish with three Newton steps on single-point reads of the dense
    output in plain floats (``OdeSolution.point``) so the returned root is
    smooth in tau0 (the optimizer differentiates through it; a bisection
    staircase of height 5e-10 would contaminate the minimum through
    dT1/dxi ~ O(1)).  The gap is |xi - bisection root|, the two root
    finders checked against each other: at most about BISECT_TOL/2 when
    both found the same root.

    The polish is guarded: OutOfRange when an iterate leaves the crossing
    bracket, or when |g| at the last iterate it evaluates exceeds |g| at
    the bisection root by more than NEWTON_G_SLACK.
    """
    T = sol.bernstein()
    (a,), (b,), (found,) = _brackets(sol.grid, T, np.zeros_like(T), np.zeros(1),
                                     lambda x, i: sol.values(x)[1])
    if not found:
        raise NoCrossing(
            f"curve with tau0={sol.tau0!r} never returns to the line x=1"
        )
    a, b = float(a), float(b)
    xi = root = _bisect_root(
        lambda x: _g(sol.tau_at(x), math.sin(math.pi * x), math.cos(math.pi * x)), a, b)
    gvals = []
    for _ in range(3):
        _check_polish_bracket(sol, xi, a, b)
        psi, tau = sol.point(xi)
        gval, gprime = g_and_slope(tau, math.cos(psi) / math.sin(psi),
                                   math.sin(math.pi * xi), math.cos(math.pi * xi))
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
            f"Newton polish for tau0={sol.tau0!r} left the crossing bracket "
            f"[{a!r}, {b!r}] at xi={xi!r}"
        )


def clearance_certificate(sol: OdeSolution, xi: float) -> tuple[float, float]:
    """(tau_min, tau_lower) on [x0, xi]; see the module docstring and
    clearance_from_tau."""
    T, xis = sol.bernstein(), np.array([xi])
    lines = sol.grid, T, np.zeros_like(T), np.zeros(1)
    (lo,), (hi,) = _clearance_brackets(*lines, sol.tau_at(xi), xis)
    lo, hi = float(lo), float(hi)
    x = _bisect_root(lambda x: _tau_slope(sol, x), lo, hi)
    return (min(sol.tau_at(x), sol.tau_at(lo), sol.tau_at(hi)),
            float(_tau_lower(*lines, xis)[0]))


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

    The same bracket, bisection and three guarded Newton steps, vectorized
    across labels.  Where the scalar version raises, xi and gap are NaN and
    the error entry holds the kind: NoCrossing where there is no crossing
    bracket, OutOfRange where a Newton iterate leaves the label's bracket
    (which lies inside the solved range) or where |g| at the last Newton
    evaluation exceeds |g| at the bisection root by more than
    NEWTON_G_SLACK.  The other entries of error are None.
    """
    tau0s = np.asarray(tau0s, dtype=float)
    a, b, found = _brackets(pencil.grid, *pencil.bernstein(), tau0s - pencil.tau_bar,
                            lambda x, i: pencil.state(x, tau0s[i])[1])
    taus, a, b = tau0s[found], a[found], b[found]
    xi = root = _bisect_many(lambda x: _g(
        pencil.state(x, taus)[1], np.sin(math.pi * x), np.cos(math.pi * x)), a, b)
    abs_g = np.full((3, len(taus)), math.nan)
    for step in range(3):
        inside = (xi >= a) & (xi <= b)
        xi = np.where(inside, xi, math.nan)  # a copy: root stays as it is
        psi, tau, _ = pencil.state(xi[inside], taus[inside])
        x = math.pi * xi[inside]
        g, g_x = g_and_slope(tau, np.cos(psi) / np.sin(psi), np.sin(x), np.cos(x))
        abs_g[step, inside] = np.abs(g)
        xi[inside] -= g / g_x
    ok = (xi >= a) & (xi <= b) & ~(abs_g[-1] > abs_g[0] + NEWTON_G_SLACK)
    out = np.full((2, len(tau0s)), math.nan)
    out[:, found] = np.where(ok, [xi, np.abs(xi - root)], math.nan)
    error = np.full(tau0s.shape, NoCrossing.kind, dtype=object)
    error[found] = np.where(ok, None, OutOfRange.kind)
    return out[0], out[1], error


def clearance_minima(pencil: Pencil, xi: np.ndarray, tau0s: np.ndarray):
    """clearance_certificate's (tau_min, tau_lower) for each label tau0s[k]
    on [x0, xi[k]], as two arrays: the same brackets, the same bisection of
    tau cot psi - 1 for all labels at once, the same bracket-end values and
    the same enclosure."""
    lines = pencil.grid, *pencil.bernstein(), tau0s - pencil.tau_bar
    lo, hi = _clearance_brackets(*lines, pencil.state(xi, tau0s)[1], xi)
    x = _bisect_many(lambda x: _tau_slope_many(pencil, x, tau0s), lo, hi)
    tau_min = np.min([pencil.state(e, tau0s)[1] for e in (x, lo, hi)], axis=0)
    return tau_min, _tau_lower(*lines, xi)


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


def _report(tau0, xi, tau_min, tau_lower, gap, error=None) -> FeasibilityReport:
    """The report of tau0, feasible when tau_lower > FEASIBLE_TAU_MIN; NaN
    xi, tau_min, tau_lower and gap carry an error row through."""
    xi, tau_min = float(xi), float(tau_min)
    return FeasibilityReport(
        tau0=float(tau0),
        xi=xi,
        theta=deployment_angle(xi),
        tau_min=tau_min,
        clearance=clearance_from_tau(tau_min),
        feasible=bool(tau_lower > FEASIBLE_TAU_MIN),
        xi_selfcheck_gap=float(gap),
        error=error,
    )


def assess(sol: OdeSolution) -> FeasibilityReport:
    """Full feasibility report for the start value sol.tau0 that sol solves."""
    xi, gap = deployment_parameter(sol)
    return _report(sol.tau0, xi, *clearance_certificate(sol, xi), gap)


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
    tau_min, tau_lower = np.full((2, len(xi)), math.nan)
    tau_min[found], tau_lower[found] = clearance_minima(pencil, xi[found], tau0s[found])
    return [_report(*row) for row in zip(tau0s, xi, tau_min, tau_lower, gap, error)]
