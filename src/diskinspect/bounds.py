"""Lower bounds restricting the deployment angle to [0.52, 1.148].

Two mechanisms, both composed through ``full_cost_from_partial``:

* an analytic per-angle bound: inspecting the far semicircle costs at
  least 2, and the last quarter at least tan(theta) + (pi - 2*theta) + 1
  (tangent, arc, final straight leg), giving

      h(theta) = (1/2pi)*log((1+sin t)/(1-sin t))
               + (1 - t/pi) * (sec t + pi*(tan t + pi - 2t + 3)/(4*(pi-t)))

  which is increasing on [1.148, pi/2) with closed-form derivative
  h'(t) = (tan^2 t - 1)/4 + (pi - t)*tan(t)*sec(t)/pi;

* a convex program: over chains A_i on the tangent rays with t_i >= 0 and
  t_k = tan(theta) fixed, minimize sum_i ((i-1)/k)*|A_i - A_{i-1}|.  The
  objective is a nonnegative combination of norms of affine maps, so any
  point with zero projected gradient is globally optimal.  A damped
  projected Newton exploits the tridiagonal Hessian structure; the
  certificate is the projected-gradient residual plus a restart
  stationarity gap, not a duality gap.

Exceeding the prior upper bound 3.5509015 on both flanks pins the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .cost import full_cost_from_partial
from .errors import MaxIterations, WindowViolated

PI = math.pi

#: Best previously reported average-cost upper bound; both window margins
#: are measured against it.
REFERENCE_UPPER_BOUND = 3.5509015
#: Deployment-angle window certified by the two mechanisms.
THETA_LO = 0.52
THETA_HI = 1.148

PG_RESIDUAL_TOL = 1e-9
#: Newton iterations allowed per chain level before MaxIterations.
MAX_ITER = 600
#: Certificate threshold: a projected gradient below this certifies global
#: optimality by convexity even when the line search has hit float limits.
PG_CERTIFICATE_TOL = 1e-8
STATIONARITY_TOL = 1e-9
#: Smallest chain the convex program accepts.
MIN_K = 5
#: Chains longer than COARSE_FLOOR segments start from the solution at
#: k // COARSE_RATIO; from a flat start the Newton direction is poor and the
#: step length stays tiny for most of a long chain's solve.
COARSE_FLOOR = 64
COARSE_RATIO = 4
#: Line-search slack relative to the objective: 8 ulps (see _newton).
FLAT_RTOL = 8.0 * float(np.finfo(float).eps)


def analytic_lower_bound(theta: float) -> float:
    """h(theta): tangent/arc/segment lower estimate composed into a full cost."""
    if not 0.0 <= theta < PI / 2.0:
        raise ValueError("theta must lie in [0, pi/2)")
    partial = PI * (math.tan(theta) + PI - 2.0 * theta + 3.0) / (4.0 * (PI - theta))
    return full_cost_from_partial(theta, partial)


def analytic_lower_bound_derivative(theta: float) -> float:
    """Closed form h'(theta) = (tan^2-1)/4 + (pi-theta)*tan*sec/pi."""
    tan = math.tan(theta)
    return 0.25 * (tan * tan - 1.0) + (PI - theta) * tan / (math.cos(theta) * PI)


@dataclass
class NlpSolution:
    """Certified minimum of the convex chain program at one (theta, k)."""

    theta: float
    k: int
    t: np.ndarray
    objective: float
    kkt_residual: float
    stationarity_gap: float
    composed_bound: float
    iterations: int


def _chain_geometry(theta: float, k: int):
    idx = np.arange(k + 1)
    phi = 2.0 * PI - (PI - theta) * 2.0 * idx / k
    p = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    u = np.stack([np.sin(phi), -np.cos(phi)], axis=1)
    w = (np.arange(1, k + 1) - 1.0) / k
    return p, u, w


def _objective(t, p, u, w) -> float:
    a = p + t[:, None] * u
    d = np.linalg.norm(a[1:] - a[:-1], axis=1)
    return float(np.dot(w, d))


def _grad_hess(t, p, u, w):
    """Gradient and tridiagonal Hessian bands over the full t vector.

    Degenerate segments (d_i = 0) use the zero subgradient and contribute
    no curvature; on the feasible set consecutive tangency points keep
    d_i > 0 so this is a formality.
    """
    k = len(t) - 1
    a = p + t[:, None] * u
    diff = a[1:] - a[:-1]
    d = np.linalg.norm(diff, axis=1)
    pos = d > 0
    dsafe = np.where(pos, d, 1.0)
    unit = diff / dsafe[:, None]
    ce = np.einsum("ij,ij->i", unit, u[1:])
    cs = np.einsum("ij,ij->i", unit, u[:-1])
    uu = np.einsum("ij,ij->i", u[:-1], u[1:])
    obj = float(np.dot(w, d))
    grad = np.zeros(k + 1)
    grad[1:] += np.where(pos, w * ce, 0.0)
    grad[:-1] -= np.where(pos, w * cs, 0.0)
    hdiag = np.zeros(k + 1)
    hdiag[1:] += np.where(pos, w * (1.0 - ce * ce) / dsafe, 0.0)
    hdiag[:-1] += np.where(pos, w * (1.0 - cs * cs) / dsafe, 0.0)
    hoff = np.where(pos, -w * (uu - cs * ce) / dsafe, 0.0)
    return obj, grad, hdiag, hoff


def nlp_lower_bound(
    theta: float, k: int, start: np.ndarray | None = None
) -> NlpSolution:
    """Solve the convex chain program by damped projected Newton.

    Free variables t_0..t_{k-1} >= 0 with t_k = tan(theta) pinned; t_0 has
    weight zero and never moves.  Convergence requires both the projected
    gradient below PG_RESIDUAL_TOL and a restart objective change below
    1e-9, which by convexity certifies the global minimum from any starting
    point.

    Without ``start`` the solve begins from the solution at k // COARSE_RATIO,
    found the same way, interpolated onto this chain; chains of at most
    COARSE_FLOOR segments begin flat.  ``start`` (k + 1 values, the last
    replaced by tan(theta)) begins from a given point instead, such as the
    optimum at a neighbouring angle.  ``iterations`` counts every level.
    """
    if not 0.0 <= theta < PI / 2.0:
        raise ValueError("theta must lie in [0, pi/2)")
    if k < MIN_K:
        raise ValueError(f"k must be at least {MIN_K}")
    if start is None:
        return _coarse_to_fine(theta, k)
    t = np.array(start, dtype=float)
    t[k] = math.tan(theta)
    return _newton(theta, k, t)


def _flat_start(theta: float, k: int) -> np.ndarray:
    tk = math.tan(theta)
    t = np.full(k + 1, max(1.0, tk))
    t[k] = tk
    return t


def _coarse_to_fine(theta: float, k: int) -> NlpSolution:
    if k <= COARSE_FLOOR:
        return _newton(theta, k, _flat_start(theta, k))
    coarse = _coarse_to_fine(theta, k // COARSE_RATIO)
    t = np.interp(np.arange(k + 1) / k, np.arange(coarse.k + 1) / coarse.k, coarse.t)
    t[k] = math.tan(theta)
    sol = _newton(theta, k, t)
    sol.iterations += coarse.iterations
    return sol


def _newton(theta: float, k: int, t: np.ndarray) -> NlpSolution:
    """Damped projected Newton from t (t[k] = tan(theta) already pinned)."""
    p, u, w = _chain_geometry(theta, k)
    prev_obj = math.inf
    stationarity = math.inf
    polished = False
    for it in range(MAX_ITER):
        obj, grad, hdiag, hoff = _grad_hess(t, p, u, w)
        gv = grad[:k].copy()
        gv[0] = 0.0
        pg = np.where(t[:k] > 0.0, np.abs(gv), np.maximum(0.0, -gv))
        pg[0] = 0.0
        pgn = float(np.max(pg))
        stationarity = abs(prev_obj - obj)
        ideal = pgn <= PG_RESIDUAL_TOL
        # stalled at float-limit flatness but already certified: the
        # convergence contract is stationarity <= 1e-9 with pg <= 1e-8
        certified = it >= 3 and pgn <= PG_CERTIFICATE_TOL
        if stationarity <= STATIONARITY_TOL and (ideal or certified):
            # a certificate in the upper half of its bound gets one more
            # Newton step, which takes pg down to rounding level
            if polished or pgn <= PG_CERTIFICATE_TOL / 2:
                return NlpSolution(
                    theta=theta,
                    k=k,
                    t=t,
                    objective=obj,
                    kkt_residual=pgn,
                    stationarity_gap=stationarity,
                    composed_bound=full_cost_from_partial(theta, obj),
                    iterations=it,
                )
            polished = True
        prev_obj = obj
        eps = min(1e-6, pgn)
        active = (t[:k] <= eps) & (gv > 0.0)
        active[0] = True
        idx = np.where(~active)[0]
        ab = np.zeros((3, len(idx)))
        ab[1] = hdiag[idx] + 1e-14
        contig = np.where(np.diff(idx) == 1)[0]
        ab[0, contig + 1] = hoff[idx[contig]]
        ab[2, contig] = hoff[idx[contig]]
        step = np.zeros(k)
        step[idx] = solve_banded((1, 1), ab, -gv[idx])
        step[active] = -gv[active]
        # near the optimum the objective is flat in float64, so a trial
        # within a few ulps of obj counts as no increase; otherwise a Newton
        # step that would cut the projected gradient is lost to rounding
        slack = FLAT_RTOL * abs(obj)
        alpha = 1.0
        accepted = False
        for _ in range(80):
            t_new = t.copy()
            t_new[:k] = np.maximum(0.0, t[:k] + alpha * step)
            obj_new = _objective(t_new, p, u, w)
            decrease = float(np.dot(gv, t_new[:k] - t[:k]))
            if obj_new <= obj + 1e-4 * decrease + slack:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # float-limit flatness: no further decrease possible.  Accept if
            # the convexity certificate already holds at 1e-8.
            if pgn <= PG_CERTIFICATE_TOL:
                return NlpSolution(
                    theta=theta,
                    k=k,
                    t=t,
                    objective=obj,
                    kkt_residual=pgn,
                    stationarity_gap=stationarity,
                    composed_bound=full_cost_from_partial(theta, obj),
                    iterations=it,
                )
            break
        t = t_new
    raise MaxIterations(
        f"projected Newton stalled at pg={pgn:.3e}, stationarity={stationarity:.3e} "
        f"after {it + 1} iterations",
        iterate=t,
        residual=pgn,
    )


def nlp_sweep(
    theta_lo: float,
    theta_hi: float,
    grid: int,
    k: int,
) -> list[NlpSolution]:
    """Certified bounds over a uniform theta grid.

    The first angle is solved coarse-to-fine; each later angle starts from
    the previous angle's certified t.  Every row meets the same certificate
    as an independent solve, since by convexity it does not depend on the
    starting point.
    """
    sols: list[NlpSolution] = []
    for th in np.linspace(theta_lo, theta_hi, grid):
        start = sols[-1].t if sols else None
        sols.append(nlp_lower_bound(float(th), k, start=start))
    return sols


def theta_window(k: int = 1000) -> dict:
    """Re-derive the deployment-angle window with its two margins.

    The upper flank uses h(1.148) > reference bound and monotonicity of h;
    the lower flank the convex-program bound at theta = 0.52.  Non-positive
    margins indicate an implementation bug, not a tight instance.
    """
    margin_hi = analytic_lower_bound(THETA_HI) - REFERENCE_UPPER_BOUND
    nlp = nlp_lower_bound(THETA_LO, k)
    margin_lo = nlp.composed_bound - REFERENCE_UPPER_BOUND
    if margin_lo <= 0.0 or margin_hi <= 0.0:
        raise WindowViolated(
            f"margins must be positive, got lo={margin_lo:.3e}, hi={margin_hi:.3e}"
        )
    return {
        "theta_lo": THETA_LO,
        "theta_hi": THETA_HI,
        "margins": {"at_lo": margin_lo, "at_hi": margin_hi},
        "reference_upper_bound": REFERENCE_UPPER_BOUND,
        "nlp_k": k,
    }
