"""The 10,000-sample scans that once found the crossing and the clearance
bracket, and the bisection that once closed both, kept as the oracles the
per-step enclosures and the regula falsi are tested against.

Both read a trajectory through tau_of, which maps an abscissa, or an array
of them, to tau: a scalar solve's dense output or one label of a pencil.
"""

import math

import numpy as np

from diskinspect import feasibility

#: Uniform scan abscissae on [x0, 1].
SCAN_GRID = 10_000


def bisect_root(f, a: float, b: float) -> float:
    """Bisect [a, b] to ROOT_TOL for a sign change of f (f < 0 against
    f >= 0); without one, the bracket closes in on b."""
    fa = f(a)
    while b - a > feasibility.ROOT_TOL:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _g_of(tau_of, x):
    return feasibility._g(tau_of(x), np.sin(math.pi * x), np.cos(math.pi * x))


def scan_crossing(x0: float, tau_of):
    """The root in the first scan cell where g = T1 - 1 rises through 0 (g < 0
    on its left abscissa, g >= 0 on its right one), bisected to ROOT_TOL;
    None where g never rises on the scan."""
    xs = np.linspace(x0, 1.0, SCAN_GRID)
    g = _g_of(tau_of, xs)
    hits = np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))
    if len(hits) == 0:
        return None
    i = hits[0]
    return bisect_root(lambda x: float(_g_of(tau_of, x)), xs[i], xs[i + 1])


def scan_tau_min(x0: float, xi: float, tau_of, slope_of) -> float:
    """tau_min by the prefix argmin: the root of slope_of (tau cot psi - 1)
    bisected between the neighbours of the smallest tau sample at or before
    xi, the upper one clamped to xi, or a bracket end where tau is smaller."""
    xs = np.linspace(x0, 1.0, SCAN_GRID)
    tau = tau_of(xs)
    j = int(np.argmin(tau[: np.searchsorted(xs, xi, side="right")]))
    lo, hi = float(xs[max(j - 1, 0)]), min(float(xs[min(j + 1, len(xs) - 1)]), xi)
    x = bisect_root(slope_of, lo, hi)
    return min(float(tau_of(e)) for e in (x, lo, hi))
