"""Discrete optimal inspection chains through a least-time refraction rule.

A chain of points A_i on successive tangent rays of the unit circle,
separated by angular step alpha, minimizes the weighted length sum
sum_i i*|A_i - A_{i-1}| exactly when each junction obeys the refraction
law between media of speeds 1/i and 1/(i+1).  This yields explicit
recursions for the angles (x_i, y_i) between segments and rays and for
the tangent parameters t_i:

    x_i = y_{i-1} - alpha
    y_i = arccos( i/(i+1) * cos(x_i) )
    t_i = (t_{i-1} - tan(alpha/2)) * sin(y_{i-1}) / sin(x_i) - tan(alpha/2)
    d_i = (t_{i-1} - tan(alpha/2)) * sin(alpha)   / sin(x_i)

with y_0 = pi/2 at the free end.  The recursion runs forward from
t_0 = tau0; anchoring the far end at t_k = tan(theta) is a shooting
problem solved by bisection on tau0.

The flat-interface least-time refraction problem (two media split by the
x-axis) is implemented separately as `refraction_optimum`; it serves as
the property-test oracle for the law the recursions encode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AngleDomain, NoBracket, TriangleDegenerate
from .geometry import Polyline

#: |t_k - tan(theta)| target for shooting.  The forward map amplifies tau0
#: perturbations by exp(2*pi*int cot(psi)); near theta=0 that exceeds 1e8,
#: so the float64-attainable residual is amplification * eps(tau0) and the
#: nominal target cannot always be met.  Bisection therefore stops at the
#: target or when the bracket is exhausted, whichever comes first.
SHOOT_RESIDUAL_TARGET = 1e-10
#: Upper end of the tau0 bisection bracket of shoot_theta.
SHOOT_BRACKET_HI = 10.0


@dataclass
class DiscreteTrajectory:
    """Polygonal inspection chain A_0 ... A_m with its recursion data.

    ``alpha`` is the angular step between consecutive tangency points.  For
    full-circle chains (forward runs) alpha = 2*pi/n with n the perimeter
    resolution, so alpha*n = 2*pi holds exactly; theta-anchored chains use
    alpha = 2*(pi - theta)/k instead, with n = k.

    Arrays are indexed 0..m: ``t[i]`` is the tangent parameter of A_i and
    ``y[i]`` the outgoing angle; ``x[i]`` and ``d[i]`` (indexed 1..m, entry 0
    is NaN) belong to segment A_{i-1} -> A_i.  Points embed clockwise:
    A_i = tangent_point(-alpha*i, t_i).
    """

    n: int
    alpha: float
    tau0: float
    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    d: np.ndarray
    theta: float | None = None

    @property
    def m(self) -> int:
        return len(self.t) - 1

    @property
    def points(self) -> np.ndarray:
        """Embedded vertices A_0..A_m, shape (m+1, 2)."""
        ang = -self.alpha * np.arange(self.m + 1)
        return np.stack(
            [np.cos(ang) + self.t * np.sin(ang), np.sin(ang) - self.t * np.cos(ang)],
            axis=1,
        )

    def chain_polyline(self) -> Polyline:
        """Path traversed from the outer anchor A_m down to A_0."""
        return Polyline(self.points[::-1])


def _run_chain(tau0: float, alpha: float, m: int) -> tuple[np.ndarray, ...]:
    """Forward recursion for m steps; raises on domain violations."""
    c = math.tan(alpha / 2.0)
    xs = np.empty(m + 1)
    ys = np.empty(m + 1)
    ts = np.empty(m + 1)
    ds = np.empty(m + 1)
    xs[0] = ds[0] = math.nan
    ys[0] = math.pi / 2.0
    ts[0] = tau0
    y, t = ys[0], tau0
    for i in range(1, m + 1):
        x = y - alpha
        if x <= 0.0:
            raise AngleDomain(i, x)
        if t <= c:
            raise TriangleDegenerate(i, t, c)
        sy, sx = math.sin(y), math.sin(x)
        y_next = math.acos(i / (i + 1.0) * math.cos(x))
        t_next = (t - c) * sy / sx - c
        ds[i] = (t - c) * math.sin(alpha) / sx
        xs[i] = x
        ys[i] = y_next
        ts[i] = t_next
        y, t = y_next, t_next
    return xs, ys, ts, ds


def forward_recursion(tau0: float, n: int, m: int | None = None) -> DiscreteTrajectory:
    """Run the chain from t_0 = tau0 with full-circle step alpha = 2*pi/n.

    ``m`` caps the number of steps (default n).  Requires
    tau0 > tan(alpha/2); domain violations raise with the offending index.
    """
    if n < 5:
        raise ValueError("perimeter resolution n must be at least 5")
    if m is None:
        m = n
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    alpha = math.tau / n
    xs, ys, ts, ds = _run_chain(tau0, alpha, m)
    return DiscreteTrajectory(n=n, alpha=alpha, tau0=tau0, x=xs, y=ys, t=ts, d=ds)


def _endpoint_gap(tau0: float, alpha: float, k: int, target: float) -> float:
    """t_k(tau0) - target, with domain failures mapped to -inf (tau0 too small)."""
    try:
        _, _, ts, _ = _run_chain(tau0, alpha, k)
    except (TriangleDegenerate, AngleDomain):
        return -math.inf
    return ts[k] - target


def shoot_theta(theta: float, k: int) -> DiscreteTrajectory:
    """Chain anchored at t_k = tan(theta), found by bisection on tau0.

    Angular step alpha = 2*(pi - theta)/k.  The bracket
    [tan(alpha/2) + 1e-6, SHOOT_BRACKET_HI] is validated by a sign change before
    refinement; absence raises NoBracket (in particular when the angle
    recursion cannot complete for this (theta, k) at any tau0).
    """
    if not 0.0 <= theta < math.pi / 2.0:
        raise ValueError("theta must lie in [0, pi/2)")
    if k < 5:
        raise ValueError("k must be at least 5")
    alpha = 2.0 * (math.pi - theta) / k
    target = math.tan(theta)
    lo = math.tan(alpha / 2.0) + 1e-6
    hi = SHOOT_BRACKET_HI
    f_lo = _endpoint_gap(lo, alpha, k, target)
    f_hi = _endpoint_gap(hi, alpha, k, target)
    if not (f_lo < 0.0 < f_hi):
        raise NoBracket(
            f"t_k - tan(theta) has no sign change on [{lo:.6g}, {hi:.6g}] "
            f"(endpoint values {f_lo:.6g}, {f_hi:.6g})"
        )
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _endpoint_gap(mid, alpha, k, target)
        if abs(f_mid) <= SHOOT_RESIDUAL_TARGET:
            break
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= math.ulp(hi):
            mid = hi  # bracket exhausted: conditioning-limited residual
            break
    xs, ys, ts, ds = _run_chain(mid, alpha, k)
    return DiscreteTrajectory(
        n=k, alpha=alpha, tau0=mid, x=xs, y=ys, t=ts, d=ds, theta=theta
    )


def discrete_cost(traj: DiscreteTrajectory, weights: str) -> float:
    """Weighted length sum of the chain.

    UPPER: (1/(m+1)) * sum_i i*d_i  -- the average inspection cost of the
    chain traversed from A_m to A_0 (segment i is passed by exactly i of
    the m+1 targets).
    LOWER: sum_i ((i-1)/m) * d_i    -- the weight profile of the convex
    lower-bound program.
    """
    m = traj.m
    d = traj.d[1:]
    idx = np.arange(1, m + 1, dtype=float)
    if weights == "UPPER":
        return float(np.dot(idx, d) / (m + 1))
    if weights == "LOWER":
        return float(np.dot((idx - 1.0) / m, d))
    raise ValueError("weights must be 'UPPER' or 'LOWER'")


@dataclass
class RefractionInstance:
    """Flat-interface least-time crossing between media of speeds s1, s2."""

    a1: tuple[float, float]
    a2: tuple[float, float]
    s1: float
    s2: float
    crossing_x: float
    alpha1: float
    alpha2: float

    @property
    def snell_residual(self) -> float:
        return math.sin(self.alpha1) / math.sin(self.alpha2) - self.s1 / self.s2


def refraction_optimum(a1, a2, s1: float, s2: float) -> RefractionInstance:
    """Minimize travel time |A1-L|/s1 + |L-A2|/s2 over L = (x, 0).

    a1 must lie strictly above and a2 strictly below the x-axis.  The time
    is strictly convex in x; golden-section brackets the minimizer and a few
    Newton steps on T'(x) polish it to machine precision (golden section
    alone stalls at ~sqrt(eps) on flat minima, too coarse for the
    incidence-angle law to hold to 1e-8).
    """
    x1, y1 = float(a1[0]), float(a1[1])
    x2, y2 = float(a2[0]), float(a2[1])
    if not (y1 > 0.0 > y2) or s1 <= 0.0 or s2 <= 0.0:
        raise ValueError("need a1 above the axis, a2 below, positive speeds")

    def travel_time(x):
        return math.hypot(x - x1, y1) / s1 + math.hypot(x - x2, y2) / s2

    span = abs(x1) + abs(x2) + 10.0 * (abs(y1) + abs(y2) + 1.0)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -span, span
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = travel_time(c), travel_time(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = travel_time(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = travel_time(d)
    x = 0.5 * (a + b)
    for _ in range(8):
        r1 = math.hypot(x - x1, y1)
        r2 = math.hypot(x - x2, y2)
        grad = (x - x1) / (s1 * r1) + (x - x2) / (s2 * r2)
        curv = y1 * y1 / (s1 * r1**3) + y2 * y2 / (s2 * r2**3)
        step = grad / curv
        x -= step
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    r1 = math.hypot(x - x1, y1)
    r2 = math.hypot(x - x2, y2)
    alpha1 = math.asin(min(1.0, abs(x - x1) / r1))
    alpha2 = math.asin(min(1.0, abs(x - x2) / r2))
    return RefractionInstance(
        a1=(x1, y1), a2=(x2, y2), s1=s1, s2=s2, crossing_x=x, alpha1=alpha1, alpha2=alpha2
    )
