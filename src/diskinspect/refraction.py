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

with y_0 = pi/2 at the free end.  `forward_recursion` runs it forward from
t_0 = tau0.  The angles never read t, so a chain anchored at the far end,
t_m = tan(theta), needs no shooting: `anchored_chain` runs the angles
forward, then the t step inverted,

    t_{i-1} = (t_i + tan(alpha/2)) * sin(x_i) / sin(y_{i-1}) + tan(alpha/2)

backward from t_m.  Its factor is below 1, so the backward pass contracts.

The flat-interface least-time refraction problem (two media split by the
x-axis) is implemented separately as `refraction_optimum`; it serves as
the property-test oracle for the law the recursions encode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AngleDomain, TriangleDegenerate
from .geometry import Polyline


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


def _angle_pass(alpha: float, m: int):
    """The angles x_i, y_i of an m-step chain, which never read t.

    Returns the lists x (entry 0 is NaN) and y over indices 0..j-1, and the
    AngleDomain error of the first index j <= m with x_j <= 0, or None when
    all m steps complete.
    """
    xs, ys = [math.nan], [math.pi / 2.0]
    y = ys[0]
    for i in range(1, m + 1):
        x = y - alpha
        if x <= 0.0:
            return xs, ys, AngleDomain(i, x)
        y = math.acos(i / (i + 1.0) * math.cos(x))
        xs.append(x)
        ys.append(y)
    return xs, ys, None


def _run_chain(tau0: float, alpha: float, m: int) -> tuple[np.ndarray, ...]:
    """Forward recursion for m steps; raises on domain violations.

    The first failing index wins; at one index AngleDomain comes first.
    """
    xs, ys, bad = _angle_pass(alpha, m)
    c = math.tan(alpha / 2.0)
    ts, ds = [tau0], [math.nan]
    t = tau0
    for i in range(1, len(xs)):
        if t <= c:
            raise TriangleDegenerate(i, t, c)
        sx = math.sin(xs[i])
        ds.append((t - c) * math.sin(alpha) / sx)
        t = (t - c) * math.sin(ys[i - 1]) / sx - c
        ts.append(t)
    if bad is not None:
        raise bad
    return np.array(xs), np.array(ys), np.array(ts), np.array(ds)


def forward_recursion(tau0: float, n: int, m: int) -> DiscreteTrajectory:
    """Run the chain from t_0 = tau0 for m <= n steps of alpha = 2*pi/n.

    Requires tau0 > tan(alpha/2); domain violations raise with the
    offending index.
    """
    if n < 5:
        raise ValueError("perimeter resolution n must be at least 5")
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    alpha = math.tau / n
    xs, ys, ts, ds = _run_chain(tau0, alpha, m)
    return DiscreteTrajectory(n=n, alpha=alpha, tau0=tau0, x=xs, y=ys, t=ts, d=ds)


def anchored_pass(theta: float, k: int, m: int):
    """alpha = 2*(pi - theta)/k and the lists x, y and t_0..t_m of `anchored_chain`."""
    alpha = 2.0 * (math.pi - theta) / k
    xs, ys, bad = _angle_pass(alpha, m)
    if bad is not None:
        raise bad
    c = math.tan(alpha / 2.0)
    t = math.tan(theta)
    ts = [t]
    # i = m .. 1: sin(x_i) and sin(y_{i-1})
    for sx, sy in zip(map(math.sin, xs[:0:-1]), map(math.sin, ys[-2::-1])):
        t = (t + c) * sx / sy + c
        ts.append(t)
    ts.reverse()
    return alpha, xs, ys, ts


def anchored_chain(theta: float, k: int, m: int) -> DiscreteTrajectory:
    """m-step chain of step alpha = 2*(pi - theta)/k that ends at t_m = tan(theta).

    The angles run forward, then t (`anchored_pass`) and d_i =
    (t_i + c)*sin(alpha)/sin(y_{i-1}) backward from t_m, c = tan(alpha/2).
    The backward factor sin(x_i)/sin(y_{i-1}) is below 1 since
    0 < x_i = y_{i-1} - alpha and y_{i-1} <= pi/2, so rounding errors shrink,
    t_m is tan(theta) exactly and every t_{i-1} exceeds c: no triangle
    degenerates.  An angle recursion that does not complete raises AngleDomain.
    """
    alpha, xs, ys, ts = anchored_pass(theta, k, m)
    t = np.array(ts)
    sy = np.array(list(map(math.sin, ys[:-1])))
    d = np.concatenate([[math.nan], (t[1:] + math.tan(alpha / 2.0)) * math.sin(alpha) / sy])
    return DiscreteTrajectory(
        n=k, alpha=alpha, tau0=ts[0], x=np.array(xs), y=np.array(ys), t=t, d=d, theta=theta,
    )


def shoot_theta(theta: float, k: int) -> DiscreteTrajectory:
    """The k-step chain anchored at t_k = tan(theta), by `anchored_chain`.

    Angular step alpha = 2*(pi - theta)/k.  A chain whose angle recursion
    does not complete (at theta = 0, k <= 19) raises AngleDomain.
    """
    if not 0.0 <= theta < math.pi / 2.0:
        raise ValueError("theta must lie in [0, pi/2)")
    if k < 5:
        raise ValueError("k must be at least 5")
    return anchored_chain(theta, k, k)


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
