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

``first_inspection_arclength`` is the definition: it walks the vertices of
one path for one angle.  ``first_inspection_arclengths``, the brute-force
oracle's workhorse, answers many angles through an arc index: the angles a
vertex sees form one arc of the circle, so after sorting the angles once, a
min segment tree over them takes each vertex's (slightly widened) arc and
labels every angle with its first candidate vertex, which the same dot test
then confirms.  The two functions are kept apart as a cross-check pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Points numerically on the tangent line count as seeing the target.
VISIBILITY_SLACK = 1e-12

#: Angles confirmed per block by first_inspection_arclengths.
CONFIRM_BLOCK = 8192
#: Widening of the visibility arcs of first_inspection_arclengths, first in
#: the cosine domain, then in angle (see its docstring).
EPS = float(np.finfo(float).eps)
ARC_COS_SLACK = 16 * EPS
ARC_ANGLE_SLACK = 1e-12

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

    Arc index.  Vertex v_j, with r_j = |v_j| and a_j = arg v_j, sees P(phi)
    iff r_j cos(phi - a_j) >= thresh, so the angles it sees form one arc of
    half-width arccos(thresh / r_j), empty when r_j < thresh.  The angles
    are reduced mod 2*pi and sorted; one vectorized ``searchsorted`` call
    per arc end bounds every arc at shifts of -2*pi, 0 and 2*pi (an arc
    that crosses the seam phi = 0 becomes two slices), and a min segment
    tree labels each angle with the smallest j whose arc covers it (see
    _arc_labels).  The reduction is one ``np.fmod`` pass, equal to
    ``np.mod`` bit for bit (``_reduce_angles``), and angles already in
    ascending order once reduced, such as the midpoint grids of
    ``oracle.average_cost_full`` and ``oracle.is_inspective``, are neither
    argsorted nor gathered.  In blocks of CONFIRM_BLOCK angles, that
    candidate is confirmed with the exact dot test at the original angle and
    interpolated on segment j-1 -> j as in the scalar function; where the
    test fails, j steps forward through the later vertices.  No
    vertices-by-angles matrix is built.

    No under-claim.  The widened arcs may be too wide, never too narrow, so
    the smallest j that passes the dot test is never skipped.  The dot
    d = vx*cos(phi) + vy*sin(phi) lies within 11 eps r_j of
    r_j cos(phi - a_j) (cos and sin within 4 ulp, three roundings), so
    d >= thresh implies cos(phi - a_j) >= thresh/r_j - 11 eps.  The
    half-width is therefore widened in the cosine domain first, to
    arccos(thresh/r_j - ARC_COS_SLACK), where ARC_COS_SLACK = 16 eps also
    covers the rounding of hypot and of the quotient; an arc whose argument
    exceeds 1 is empty.  No fixed angle widening could replace this step:
    arccos has slope -1/sqrt(1 - x^2), so near tangency (x ~ 1) one ulp of
    x moves the half-width by up to ~1.5e-8 rad.  Then every arc is widened
    in angle by ARC_ANGLE_SLACK + eps*max|phi|, which covers arctan2,
    arccos, the additions that form the slice bounds and the mod 2*pi
    reduction, whose error grows like |phi| * 4e-17.  The dot test
    removes every over-claim.
    """
    phis = np.asarray(phis, dtype=float)
    if len(phis) == 0:
        return np.full(0, NEVER)
    thresh = 1.0 - VISIBILITY_SLACK
    reach = np.max(np.abs(phis), where=np.isfinite(phis), initial=0.0)
    red = _reduce_angles(phis)
    # a midpoint grid is ascending once reduced: angle k sits at position k
    order = None if np.all(red[1:] >= red[:-1]) else np.argsort(red)
    if order is not None:
        red = red[order]
    labels = _arc_labels(traj.vertices, red, thresh, ARC_ANGLE_SLACK + EPS * reach)
    del red  # the confirmation reads the original angles: free it before `out`
    out = np.full(len(phis), NEVER)
    for lo in range(0, len(phis), CONFIRM_BLOCK):
        j = labels[lo : lo + CONFIRM_BLOCK]
        covered = j < len(traj.vertices)
        if order is None:
            idx = lo + np.flatnonzero(covered)
        else:
            idx = order[lo : lo + CONFIRM_BLOCK][covered]
        out[idx] = _confirmed_arclengths(traj, phis[idx], j[covered], thresh)
    return out


def _reduce_angles(phis: np.ndarray) -> np.ndarray:
    """np.mod(phis, 2*pi) bit for bit, in one pass of np.fmod: numpy's own
    float remainder adds the divisor to a negative fmod and turns a zero
    remainder into +0.0."""
    red = np.fmod(phis, math.tau)
    red[red < 0.0] += math.tau
    red += 0.0  # -0.0 -> +0.0
    return red


def _arc_labels(v: np.ndarray, red: np.ndarray, thresh: float, slack: float) -> np.ndarray:
    """Label every sorted angle red[k] in [0, 2*pi] with its first candidate.

    The label is the smallest j whose widened arc covers red[k], or len(v)
    where no arc does; slack is the angle widening (see
    first_inspection_arclengths).

    Each arc covers a slice [a, b) of the n sorted angles.  A bottom-up min
    segment tree holds leaf k at node n + k and the children of node i at
    2i and 2i + 1; this layout needs no padding to a power of two.  Every
    slice is split into the O(log n) nodes that tile it, one level at a
    time for all slices at once, and each node keeps the smallest j among
    the slices that reach it.  Pushing the minima down level by level, in
    place, leaves at each leaf the minimum over its ancestors: the smallest
    j over the slices that cover the angle.
    """
    with np.errstate(divide="ignore", over="ignore"):
        x = thresh / np.hypot(v[:, 0], v[:, 1]) - ARC_COS_SLACK
    j = np.flatnonzero(x <= 1.0)
    half = np.arccos(x[j]) + slack
    mid = np.arctan2(v[j, 1], v[j, 0])
    # arcs are narrower than 2*pi, so the three shifted copies are disjoint
    shifts = np.array([[-math.tau], [0.0], [math.tau]])
    a = np.searchsorted(red, mid - half + shifts, side="left").T
    b = np.searchsorted(red, mid + half + shifts, side="right").T
    arc, _ = covering = np.nonzero(a < b)
    n = len(red)
    tree = np.full(2 * n, len(v), dtype=np.int32)
    lo, hi, jj = a[covering] + n, b[covering] + n, j[arc].astype(np.int32)
    # an odd lo is a right child: that node lies inside [lo, hi) but its
    # parent does not; likewise the node left of an odd hi
    while len(jj):
        odd = (lo & 1).astype(bool)
        np.minimum.at(tree, lo[odd], jj[odd])
        lo += odd
        odd = (hi & 1).astype(bool)
        hi -= odd
        np.minimum.at(tree, hi[odd], jj[odd])
        lo >>= 1
        hi >>= 1
        live = lo < hi
        lo, hi, jj = lo[live], hi[live], jj[live]
    # push down: internal nodes 1..n-1, parents before children
    for depth in range((n - 1).bit_length()):
        s = 1 << depth
        e = min(2 * s, n)
        for child in tree[2 * s : 2 * e : 2], tree[2 * s + 1 : 2 * e : 2]:
            np.minimum(child, tree[s:e], out=child)
    return tree[n:].copy()


def _confirmed_arclengths(traj: Polyline, phis, j, thresh: float) -> np.ndarray:
    """First-inspection arclengths of phis given candidate vertices j.

    No vertex before j[k] sees phis[k].  Where v[j[k]] fails the dot test
    too, the later vertices are searched for the first that passes.
    """
    v = traj.vertices
    c, s = np.cos(phis), np.sin(phis)
    g_cur = v[j, 0] * c + v[j, 1] * s
    for k in np.flatnonzero(g_cur < thresh):
        g = v[j[k] + 1 :, 0] * c[k] + v[j[k] + 1 :, 1] * s[k]
        hit = np.flatnonzero(g >= thresh)
        j[k] = j[k] + 1 + hit[0] if len(hit) else len(v)
        g_cur[k] = g[hit[0]] if len(hit) else math.nan
    out = np.where(j == 0, 0.0, NEVER)
    seg = (j > 0) & (j < len(v))
    i = j[seg] - 1
    g_prev = v[i, 0] * c[seg] + v[i, 1] * s[seg]
    lam = (1.0 - g_prev) / (g_cur[seg] - g_prev)
    np.clip(lam, 0.0, 1.0, out=lam)
    out[seg] = traj.cum_lengths[i] + lam * traj.seg_lengths[i]
    return out
