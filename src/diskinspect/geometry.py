"""Unit-circle primitives and the visibility predicate.

Conventions:
  * perimeter point at angle phi:  P(phi) = (cos phi, sin phi)
  * tangent ray through P(phi):    L(phi, t) = P(phi) + t*(sin phi, -cos phi)
    so that dot(L(phi, t), P(phi)) = 1 for every t.

A point A sees P(phi) around the disk iff the segment A-P stays outside
the open unit disk, which for perimeter targets is equivalent to the
closed-halfplane test dot(A, P) >= 1.  The halfplane form makes the first
visibility time along a polygonal path an exact per-segment linear solve,
because dot(A(s), P) is affine in arclength s on each segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Points numerically on the tangent line count as seeing the target.
VISIBILITY_SLACK = 1e-12

#: Returned by first-inspection queries when no point of the path ever sees
#: the target.  A value, not an error.
NEVER = math.inf


def perimeter_point(phi: float) -> np.ndarray:
    """Point (cos phi, sin phi) on the unit circle."""
    return np.array([math.cos(phi), math.sin(phi)])


def tangent_point(phi: float, t: float) -> np.ndarray:
    """Point at signed arclength t along the tangent ray touching at angle phi.

    Equals (cos phi + t sin phi, sin phi - t cos phi); positive t moves
    clockwise as seen from the disk center.
    """
    c, s = math.cos(phi), math.sin(phi)
    return np.array([c + t * s, s - t * c])


def inspects(a, phi: float) -> bool:
    """True iff point ``a`` sees the perimeter point at angle ``phi``.

    Closed-halfplane test dot(a, P(phi)) >= 1, with a small slack so points
    on the tangent line are not lost to rounding.
    """
    ax, ay = float(a[0]), float(a[1])
    return ax * math.cos(phi) + ay * math.sin(phi) >= 1.0 - VISIBILITY_SLACK


@dataclass
class Polyline:
    """Piecewise-linear path given by its ordered vertices, shape (n, 2).

    Consecutive vertices must be distinct (beyond 1e-15), which makes the
    cumulative arclength strictly increasing.
    """

    vertices: np.ndarray
    seg_lengths: np.ndarray = field(init=False, repr=False)
    cum_lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("polyline needs an (n>=2, 2) vertex array")
        if not np.all(np.isfinite(v)):
            raise ValueError("polyline vertices must be finite")
        seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
        if np.any(seg <= 1e-15):
            raise ValueError("consecutive polyline vertices must be distinct")
        self.vertices = v
        self.seg_lengths = seg
        self.cum_lengths = np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def length(self) -> float:
        return float(self.cum_lengths[-1])


def first_inspection_arclength(traj: Polyline, phi: float) -> float:
    """Arclength along ``traj`` to the first point that sees P(phi).

    Exact within each segment: dot(A(s), P) is affine in s, so the crossing
    of dot = 1 is a linear solve.  Returns ``NEVER`` (inf) when no point of
    the path sees the target.
    """
    p = perimeter_point(phi)
    v = traj.vertices
    thresh = 1.0 - VISIBILITY_SLACK
    g_prev = float(v[0] @ p)
    if g_prev >= thresh:
        return 0.0
    for j in range(1, len(v)):
        g_cur = float(v[j] @ p)
        if g_cur >= thresh:
            lam = (1.0 - g_prev) / (g_cur - g_prev)
            lam = min(max(lam, 0.0), 1.0)
            return float(traj.cum_lengths[j - 1] + lam * traj.seg_lengths[j - 1])
        g_prev = g_cur
    return NEVER


def first_inspection_arclengths(traj: Polyline, phis: np.ndarray) -> np.ndarray:
    """Vectorized :func:`first_inspection_arclength` over many angles.

    One pass over segments, keeping per-angle state; used by the brute-force
    cost oracle where ``len(phis)`` reaches 1e5.
    """
    phis = np.asarray(phis, dtype=float)
    targets = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    v = traj.vertices
    thresh = 1.0 - VISIBILITY_SLACK
    out = np.full(len(phis), NEVER)
    found = np.zeros(len(phis), dtype=bool)
    g_prev = targets @ v[0]
    hit0 = g_prev >= thresh
    out[hit0] = 0.0
    found |= hit0
    for j in range(1, len(v)):
        g_cur = targets @ v[j]
        if found.all():
            break
        cross = ~found & (g_cur >= thresh)
        if cross.any():
            lam = (1.0 - g_prev[cross]) / (g_cur[cross] - g_prev[cross])
            np.clip(lam, 0.0, 1.0, out=lam)
            out[cross] = traj.cum_lengths[j - 1] + lam * traj.seg_lengths[j - 1]
            found[cross] = True
        g_prev = g_cur
    return out
