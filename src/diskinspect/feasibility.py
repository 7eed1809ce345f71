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
``dop853.first_piece`` and passed over at its full depth.  NoCrossing
means that there is no bracket.  T1(1) = 1, so the last step is never
excluded; its end reads the rounding noise of g(1), which has the sign
of tau(1).  g ~ -2 pi x (tau + pi x) < 0 at the start while tau > 0, so
the first rise is the first return to x = 1; a small tau0, whose tau
falls below -pi x just past the start, crosses there and is infeasible.
An Illinois regula falsi closes the bracket (``_falsi_root``, the one
scalar rule, also for the clearance and ``optimizer``'s dcost/dtau0), and
Newton's method polishes its root into xi (``_newton_xi``, the one scalar
polish, also for ``optimizer``'s probes): at most NEWTON_STEPS steps,
ending after the first one no longer than PROBE_XI_STEP.

The clearance.  tau_min is the root of tau' = 2 pi (tau cot psi - 1),
found by the same regula falsi between the neighbours of the smallest tau
among the step nodes up to xi and xi itself; a bracket end with smaller
tau is the minimum, tau(xi) for a curve that dives to the crossing, and
the ends' tau come from the nodes that chose them.  tau_lower, the
smallest coefficient of the steps up to xi, the last one cut at xi,
rounded down, bounds tau on [x0, xi]: feasible means tau_lower >
FEASIBLE_TAU_MIN.

Nothing here reads past the step that holds xi, so a solve may end at
its first node with g >= 0 (``crossed``); one that never crosses runs on
to x = 1, and NoCrossing still means that the solve reached 1.

``assess`` certifies one solved trajectory, so its report always names
the start value that trajectory was solved for.  Window sweeps run the
same pipeline on every label of one tau0 pencil (``window_pencil``),
solved until both end labels have crossed: g is affine in the label, so
every label between them has crossed by then.  A label's coefficients
are the lines Tbar_c + (tau0 - tau_bar) B_c, bounded for all labels and
steps at once (``_Lines``, one solve is the pencil B = 0) and shared by
the crossing and the clearance.  The regula falsi (``_falsi_many``, each
label deciding as ``_falsi_root`` would) and the Newton steps (each label
polished as ``_newton_xi`` would) read every label at once through
``Pencil.state``; the scalar functions read their one solve in plain
floats (``OdeSolution.point``) and stay the reference the sweeps are
tested against.
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

#: Final bracket width of the crossing and clearance roots.
ROOT_TOL = 5e-10
#: A Newton step on the crossing at most this long ends the polish: xi is
#: a root to rounding (shared with ``optimizer``'s probes).
PROBE_XI_STEP = 1e-14
#: Newton steps per polish: enough from a neighbouring label's xi (``optimizer``).
NEWTON_STEPS = 12
#: The Newton polish may leave |T1 - 1| above its value at the crossing
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


def crossed(x: float, state) -> bool:
    """Whether g >= 0 at the node x of a solve, state (psi, tau): the stop
    test of a solve that nothing reads past its crossing."""
    return _g(state[1], math.sin(math.pi * x), math.cos(math.pi * x)) >= 0.0


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


@dataclass
class _Lines:
    """The labels tau = T + d B on the steps ts, T and B (steps, 8) and d
    (labels,), with the range lo, hi of each label's coefficients per step
    and its slack (``_ranges``), computed once for every reader.  One
    solve is the pencil B = 0 of its one label d = 0."""

    ts: np.ndarray
    T: np.ndarray
    B: np.ndarray
    d: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    slack: np.ndarray

    @classmethod
    def of(cls, ts, T, B, d) -> "_Lines":
        return cls(ts, T, B, d, *_ranges(T, B, d))

    @classmethod
    def of_solution(cls, sol: OdeSolution) -> "_Lines":
        T = sol.bernstein()
        return cls.of(sol.grid, T, np.zeros_like(T), np.zeros(1))

    @classmethod
    def of_pencil(cls, pencil: Pencil, tau0s: np.ndarray) -> "_Lines":
        return cls.of(pencil.grid, *pencil.bernstein(), tau0s - pencil.tau_bar)

    def labels(self, which) -> "_Lines":
        """The lines of the labels d[which]."""
        return _Lines(self.ts, self.T, self.B, self.d[which], self.lo[which],
                      self.hi[which], self.slack[which])


def _brackets(lines: _Lines, tau_at):
    """The crossing bracket of every label of lines: (a, b, found) arrays.
    tau_at(x, i) reads label i's tau at the float x, and tau_at(x,
    slice(None)) every label's, one abscissa each.

    The bound comes for every label and step at once.  A label whose first
    step that it cannot exclude ends with g >= 0 has that step as its
    bracket; any other walks its steps on its own coefficients.
    """
    ts, T, B, d, slack = lines.ts, lines.T, lines.B, lines.d, lines.slack
    open_ = _g_bound(lines.lo, lines.hi, ts[:-1], ts[1:], slack) >= 0.0
    first = np.argmax(open_, axis=1)
    a, b = ts[first], ts[first + 1]
    closed = _g(tau_at(b, slice(None)), np.sin(math.pi * b), np.cos(math.pi * b)) >= 0.0
    found = open_.any(axis=1) & closed
    for i in np.flatnonzero(open_.any(axis=1) & ~closed).tolist():
        def g_at(x):
            return _g(tau_at(x, i), math.sin(math.pi * x), math.cos(math.pi * x))
        for k in np.flatnonzero(open_[i]).tolist():
            piece = dop853.first_piece(
                T[k] + d[i] * B[k], float(ts[k]), float(ts[k + 1]),
                lambda c, lo, hi: _g_bound(c.min(), c.max(), lo, hi, slack[i, k]) < 0.0,
                lambda _lo, hi, _depth: g_at(hi) >= 0.0)
            if piece is not None:
                (a[i], b[i], _), found[i] = piece, True
                break
    return a, b, found


def _clearance_brackets(lines: _Lines, tau_xi, xi):
    """Per label of lines, the neighbours (lo, hi) of the smallest tau among
    the nodes up to xi and xi itself, and the smaller tau at lo and hi.  A
    node's tau is the last coefficient of the step it ends (x0's the first
    of step 0), bit for bit the dense output's read there; hi is xi or a
    node."""
    ts, T, B, d = lines.ts, lines.T, lines.B, lines.d
    n = np.searchsorted(ts, xi, side="right")
    nodes = np.append(T[:1, 0], T[:, 7])[:, None] + d * np.append(B[:1, 0], B[:, 7])[:, None]
    tau = np.where(np.arange(len(ts))[:, None] < n, nodes, np.inf)
    labels = np.arange(len(xi))
    j = np.argmin(tau, axis=0)
    j = np.where(tau_xi < tau[j, labels], n, j)
    lo, hi, inner = np.maximum(j - 1, 0), np.minimum(j + 1, len(ts) - 1), j + 1 < n
    return (ts[lo], np.where(inner, ts[hi], xi),
            np.minimum(tau[lo, labels], np.where(inner, tau[hi, labels], tau_xi)))


def _tau_lower(lines: _Lines, xi):
    """tau_lower of every label of lines on [x0, xi]."""
    ts, T, B, d, lo, slack = lines.ts, lines.T, lines.B, lines.d, lines.lo, lines.slack
    k = np.clip(np.searchsorted(ts, xi, side="left") - 1, 0, len(ts) - 2)
    whole = np.where(np.arange(lo.shape[1]) < k[:, None], lo - slack, np.inf).min(axis=1)
    cut = dop853.split((T[k] + d[:, None] * B[k]).T, (xi - ts[k]) / (ts[k + 1] - ts[k]))[0]
    return np.minimum(whole, cut.min(axis=0) - slack[np.arange(len(k)), k])


def _falsi_root(f, a: float, b: float, tol: float = ROOT_TOL) -> float:
    """A sign change of f (f < 0 against f >= 0) in [a, b], by the Illinois
    regula falsi (Dowell & Jarratt, BIT 11, 1971) to a bracket at most tol
    wide: the end of that bracket with the smaller |f|.  Without a sign
    change at a and b, b.  tol is ROOT_TOL in x for the crossing and the
    clearance, ``optimizer.REFINE_XATOL`` in tau0 for dcost/dtau0.

    A secant point that is NaN or not inside (a, b) is the midpoint, and
    one within tol/4 of an end moves tol/4 inward, so that a converged end
    does not hold the other one still.  The end kept twice in a row has its
    secant weight halved (Illinois), and where three steps together, enough
    for that weight to act on a one-sided approach, do not halve the
    bracket, the next one bisects: at most 4 ceil(log2((b - a) / tol)) + 2
    evaluations.
    """
    fa, fb = f(a), f(b)
    if (fa < 0.0) == (fb < 0.0):
        return b
    wa, wb, side, widths = fa, fb, 0, (math.inf,) * 3
    while (width := b - a) > tol:
        x = b - wb * width / (wb - wa) if wb != wa else math.nan
        x = x if a < x < b and width <= 0.5 * widths[0] else 0.5 * (a + b)
        x = min(max(x, a + tol / 4), b - tol / 4)
        fx = f(x)
        if (fx < 0.0) == (fa < 0.0):
            a, fa, wa, wb, side = x, fx, fx, wb * (0.5 if side < 0 else 1.0), -1
        else:
            b, fb, wb, wa, side = x, fx, fx, wa * (0.5 if side > 0 else 1.0), 1
        widths = (*widths[1:], width)
    return a if abs(fa) < abs(fb) else b


def _newton_xi(read, tau0: float, xi: float, a: float, b: float) -> float:
    """Newton's method on g = T1 - 1 from xi, reading read(x) -> (psi, tau) in
    plain floats: the iterate after its first step no longer than
    PROBE_XI_STEP, or after NEWTON_STEPS steps.  OutOfRange, naming tau0,
    where an iterate leaves [a, b] (NaN does) or where |g| at its last read
    exceeds |g| at its first by more than NEWTON_G_SLACK."""
    gs = []
    while a <= xi <= b and len(gs) < NEWTON_STEPS:
        psi, tau = read(xi)
        g, g_x = g_and_slope(tau, math.cos(psi) / math.sin(psi),
                             math.sin(math.pi * xi), math.cos(math.pi * xi))
        gs.append(abs(g))
        xi -= (step := g / g_x)
        if abs(step) <= PROBE_XI_STEP:
            break
    if not a <= xi <= b:
        raise OutOfRange(f"Newton polish for tau0={tau0!r} left the crossing bracket "
                         f"[{a!r}, {b!r}] at xi={xi!r}")
    if gs[-1] > gs[0] + NEWTON_G_SLACK:
        raise OutOfRange(f"Newton polish for tau0={tau0!r} raised |T1 - 1| from "
                         f"{gs[0]!r} at the bracket root to {gs[-1]!r}")
    return xi


def deployment_parameter(sol: OdeSolution, lines: _Lines | None = None) -> tuple[float, float]:
    """Smallest root xi > x0 of T1(x) = 1, plus the self-check gap.

    Close the crossing bracket (see the module docstring) to ROOT_TOL by
    ``_falsi_root``, then polish its root inside it by ``_newton_xi``, whose
    guards raise OutOfRange, on reads in floats (``OdeSolution.point``), so
    that xi is smooth in tau0 (the optimizer differentiates through it; a
    root that moves by ROOT_TOL with the bracket would contaminate the
    minimum through dT1/dxi ~ O(1)).  The gap is |xi - bracket root|, the
    two root finders checked against each other: at most about ROOT_TOL
    when both found the same root.  lines, if given: ``_Lines.of_solution(sol)``.
    """
    lines = _Lines.of_solution(sol) if lines is None else lines
    (a,), (b,), (found,) = _brackets(lines, lambda x, i: sol.values(x)[1])
    if not found:
        raise NoCrossing(f"curve with tau0={sol.tau0!r} never returns to the line x=1")
    a, b = float(a), float(b)
    root = _falsi_root(
        lambda x: _g(sol.point(x)[1], math.sin(math.pi * x), math.cos(math.pi * x)), a, b)
    xi = _newton_xi(sol.point, sol.tau0, root, a, b)
    return float(xi), float(abs(xi - root))


def clearance_certificate(sol: OdeSolution, xi: float,
                          lines: _Lines | None = None) -> tuple[float, float]:
    """(tau_min, tau_lower) on [x0, xi]; see the module docstring and
    clearance_from_tau.  lines as for deployment_parameter."""
    lines = _Lines.of_solution(sol) if lines is None else lines
    xis = np.array([xi])
    (lo,), (hi,), (ends,) = _clearance_brackets(lines, sol.point(xi)[1], xis)
    x = _falsi_root(lambda x: _tau_slope(sol, x), float(lo), float(hi))
    return min(sol.point(x)[1], float(ends)), float(_tau_lower(lines, xis)[0])


def clearance_from_tau(tau_min: float) -> float:
    """Radial clearance sqrt(1 + tau_min^2) - 1, and 0 where tau_min <= 0:
    tau starts at tau0 > 0, so it passed through 0, where ||T|| = 1 and the
    curve touches the disk.  NaN stays NaN."""
    if tau_min <= 0.0:
        return 0.0
    return math.sqrt(1.0 + tau_min * tau_min) - 1.0


def _falsi_many(f, a, b) -> np.ndarray:
    """_falsi_root for every label, each deciding as it would from the same
    values: f maps one abscissa per label to their values.  A label whose
    bracket is closed reads its end b until every bracket is."""
    fa, fb = f(a), f(b)
    live = change = (fa < 0.0) != (fb < 0.0)
    wa, wb, side, widths = fa, fb, np.zeros(len(a)), np.full((3, len(a)), math.inf)
    while np.any(live := live & (b - a > ROOT_TOL)):
        width = b - a
        with np.errstate(divide="ignore", invalid="ignore"):
            x = b - wb * width / (wb - wa)
        x = np.where((a < x) & (x < b) & (width <= 0.5 * widths[0]), x, 0.5 * (a + b))
        x = np.where(live, np.minimum(np.maximum(x, a + ROOT_TOL / 4), b - ROOT_TOL / 4), b)
        fx = f(x)
        left = live & ((fx < 0.0) == (fa < 0.0))
        right = live & ~left
        wa = np.where(left, fx, np.where(right & (side > 0), 0.5 * wa, wa))
        wb = np.where(right, fx, np.where(left & (side < 0), 0.5 * wb, wb))
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        b, fb = np.where(right, x, b), np.where(right, fx, fb)
        side = np.where(left, -1, np.where(right, 1, side))
        widths = np.where(live, [widths[1], widths[2], width], widths)
    return np.where(change & (np.abs(fa) < np.abs(fb)), a, b)


def deployment_parameters(pencil: Pencil, tau0s, lines: _Lines | None = None):
    """deployment_parameter for every label: (xi, self-check gap, error) arrays.

    The same bracket, root finder (``_falsi_many``) and polish
    (``_newton_xi``'s rule), vectorized across labels and read through
    ``Pencil.state``; a label's polish reads it at most NEWTON_STEPS times,
    while its iterate is inside its bracket and its last step was longer
    than PROBE_XI_STEP.  lines, when given, are those of the pencil and
    tau0s (``_Lines.of_pencil``).  Where the scalar version raises, xi and
    gap are NaN and the error entry holds the kind: NoCrossing where there
    is no crossing bracket, OutOfRange where a Newton iterate leaves the
    label's bracket (which lies inside the solved range) or where |g| at
    the label's last Newton evaluation exceeds |g| at the bracket root by
    more than NEWTON_G_SLACK.  The other entries of error are None.
    """
    tau0s = np.asarray(tau0s, dtype=float)
    lines = _Lines.of_pencil(pencil, tau0s) if lines is None else lines
    a, b, found = _brackets(lines, lambda x, i: pencil.state(x, tau0s[i])[1])
    taus, a, b = tau0s[found], a[found], b[found]
    root = _falsi_many(lambda x: _g(
        pencil.state(x, taus)[1], np.sin(math.pi * x), np.cos(math.pi * x)), a, b)
    xi, abs_g, live = root.copy(), np.full((2, len(taus)), math.nan), np.ones(len(taus), bool)
    for step in range(NEWTON_STEPS):
        live &= (xi >= a) & (xi <= b)
        if not live.any():
            break
        psi, tau, _ = pencil.state(xi[live], taus[live])
        x = math.pi * xi[live]
        g, g_x = g_and_slope(tau, np.cos(psi) / np.sin(psi), np.sin(x), np.cos(x))
        abs_g[1, live] = np.abs(g)
        if step == 0:
            abs_g[0] = abs_g[1]
        xi[live] -= (delta := g / g_x)
        live[live] = np.abs(delta) > PROBE_XI_STEP
    ok = (xi >= a) & (xi <= b) & ~(abs_g[1] > abs_g[0] + NEWTON_G_SLACK)
    out = np.full((2, len(tau0s)), math.nan)
    out[:, found] = np.where(ok, [xi, np.abs(xi - root)], math.nan)
    error = np.full(tau0s.shape, NoCrossing.kind, dtype=object)
    error[found] = np.where(ok, None, OutOfRange.kind)
    return out[0], out[1], error


def clearance_minima(pencil: Pencil, xi: np.ndarray, tau0s: np.ndarray,
                     lines: _Lines | None = None):
    """clearance_certificate's (tau_min, tau_lower) for each label tau0s[k]
    on [x0, xi[k]], as two arrays: the same brackets, the same root of
    tau cot psi - 1 (``_falsi_many``) for all labels at once, read through
    ``Pencil.state``, the same bracket-end values and the same enclosure.
    lines as for deployment_parameters."""
    lines = _Lines.of_pencil(pencil, tau0s) if lines is None else lines
    lo, hi, ends = _clearance_brackets(lines, pencil.state(xi, tau0s)[1], xi)

    def slope(x):
        psi, tau, _ = pencil.state(x, tau0s)
        return tau * np.cos(psi) / np.sin(psi) - 1.0

    x = _falsi_many(slope, lo, hi)
    return np.minimum(pencil.state(x, tau0s)[1], ends), _tau_lower(lines, xi)


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
    lines = _Lines.of_solution(sol)
    xi, gap = deployment_parameter(sol, lines)
    return _report(sol.tau0, xi, *clearance_certificate(sol, xi, lines), gap)


def window_pencil(
    lo: float, hi: float, grid: int, x0: float = X0_REF, tol: float = ODE_TOL
) -> tuple[Pencil, np.ndarray]:
    """The pencil centred at the window midpoint and the uniform grid of labels on it.

    The solve ends at the first node where g >= 0 for both end labels: g is
    affine in the label, so every label between them has crossed by then.
    Where an end label never crosses, it runs on to x = 1.
    """
    if not (0.0 < lo < hi and grid >= 2):
        raise ValueError("need 0 < lo < hi and grid >= 2")
    tau_bar = 0.5 * (lo + hi)
    d_lo, d_hi = lo - tau_bar, hi - tau_bar

    def both_crossed(x, state):
        psi, t, b, _, _ = state
        return crossed(x, (psi, t + d_lo * b)) and crossed(x, (psi, t + d_hi * b))

    pencil = integrate_pencil(tau_bar, x0=x0, tol=tol, stop=both_crossed)
    return pencil, np.linspace(lo, hi, grid)


def feasibility_sweep(
    tau0_lo: float, tau0_hi: float, grid: int, x0: float = X0_REF, tol: float = ODE_TOL
) -> list[FeasibilityReport]:
    """Reports over a uniform tau0 grid; per-point errors recorded inline.

    One pencil solve, centred at the window midpoint, covers every point; a
    point whose deployment parameter fails (NoCrossing, OutOfRange) is an
    error row of that kind.
    """
    pencil, tau0s = window_pencil(tau0_lo, tau0_hi, grid, x0=x0, tol=tol)
    lines = _Lines.of_pencil(pencil, tau0s)
    xi, gap, error = deployment_parameters(pencil, tau0s, lines)
    found = ~np.isnan(xi)
    tau_min, tau_lower = np.full((2, len(xi)), math.nan)
    tau_min[found], tau_lower[found] = clearance_minima(pencil, xi[found], tau0s[found],
                                                        lines.labels(found))
    return [_report(*row) for row in zip(tau0s, xi, tau_min, tau_lower, gap, error)]
