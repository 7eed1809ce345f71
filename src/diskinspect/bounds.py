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
  feasible point with zero projected gradient is globally optimal.  By
  Fermat's principle the minimizer is a refraction chain (the tangents of
  `refraction.anchored_pass`); the certificate is the projected-gradient
  residual at it, not a duality gap, read with the objective in one pass.

Exceeding the prior upper bound 3.5509015 on both flanks pins the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import full_cost_from_partial
from .errors import WindowViolated
from .refraction import anchored_pass

#: Best previously reported average-cost upper bound; both window margins
#: are measured against it.
REFERENCE_UPPER_BOUND = 3.5509015
#: Deployment-angle window certified by the two mechanisms.
THETA_LO = 0.52
THETA_HI = 1.148

#: Certificate threshold: a feasible chain whose projected gradient is below
#: this is the global minimum by convexity.
PG_CERTIFICATE_TOL = 1e-8
#: Smallest chain the convex program accepts.
MIN_K = 5
#: Smallest chain of a sweep, whose first angle theta = 0 needs k >= 19.
SWEEP_MIN_K = 19


def analytic_lower_bound(theta: float) -> float:
    """h(theta): tangent/arc/segment lower estimate composed into a full cost."""
    if not 0.0 <= theta < math.pi / 2.0:
        raise ValueError("theta must lie in [0, pi/2)")
    partial = (math.pi * (math.tan(theta) + math.pi - 2.0 * theta + 3.0)
               / (4.0 * (math.pi - theta)))
    return full_cost_from_partial(theta, partial)


def analytic_lower_bound_derivative(theta: float) -> float:
    """Closed form h'(theta) = (tan^2-1)/4 + (pi-theta)*tan*sec/pi."""
    tan = math.tan(theta)
    return 0.25 * (tan * tan - 1.0) + (math.pi - theta) * tan / (math.cos(theta) * math.pi)


@dataclass
class NlpSolution:
    """Certified minimum of the convex chain program at one (theta, k).

    ``iterations`` is 0: the minimizer comes from one recursion, not a
    solver loop.
    """

    theta: float
    k: int
    t: np.ndarray
    objective: float
    kkt_residual: float
    composed_bound: float
    iterations: int = 0


def chain_lengths_and_gradient(theta: float, t: np.ndarray, w: np.ndarray):
    """Lengths |A_i - A_{i-1}| and the gradient of sum_i w_i*|A_i - A_{i-1}| over t_0..t_k,
    A_i = (cos phi_i + t_i*sin phi_i, sin phi_i - t_i*cos phi_i), phi_i = 2*pi - 2*(pi - theta)*i/k.

    Feasible points are distinct (the tangent rays meet only where one
    parameter is negative), so every length is smooth."""
    k = len(t) - 1
    phi = 2.0 * math.pi - (math.pi - theta) * 2.0 * np.arange(k + 1) / k
    cos, sin = np.cos(phi), np.sin(phi)
    dx, dy = np.diff(cos + t * sin), np.diff(sin - t * cos)
    d = np.sqrt(dx * dx + dy * dy)
    ux, uy = dx / d, dy / d
    grad = np.zeros(k + 1)
    grad[1:] += w * (ux * sin[1:] - uy * cos[1:])
    grad[:-1] -= w * (ux * sin[:-1] - uy * cos[:-1])
    return d, grad


def nlp_lower_bound(theta: float, k: int) -> NlpSolution:
    """The convex chain program's minimum, with its optimality certificate.

    Segment i carries weight (i-1)/k, so from A_1 on the weights are a
    refraction chain's speeds shifted by one index, and t_0 (weight zero)
    is free.  The minimizer is therefore the (k-1)-step chain of step
    2*(pi - theta)/k anchored at tan(theta) (`refraction.anchored_pass`)
    on A_1..A_k, with t_0 set to t_1.  The certificate is independent of
    that derivation: t >= 0 and a projected gradient below
    PG_CERTIFICATE_TOL, which by convexity make the objective the global
    minimum; a chain that misses it raises WindowViolated.  A chain whose
    angle recursion does not complete (at theta = 0, k <= 18) raises
    AngleDomain.
    """
    if not 0.0 <= theta < math.pi / 2.0:
        raise ValueError("theta must lie in [0, pi/2)")
    if k < MIN_K:
        raise ValueError(f"k must be at least {MIN_K}")
    *_, chain = anchored_pass(theta, k, k - 1)
    t = np.array(chain[:1] + chain)
    w = (np.arange(1, k + 1) - 1.0) / k
    d, grad = chain_lengths_and_gradient(theta, t, w)
    grad = grad[:k]  # t_k is pinned; t_0's entry is 0
    pg = float(np.max(np.where(t[:k] > 0.0, np.abs(grad), np.maximum(0.0, -grad))))
    if not (pg <= PG_CERTIFICATE_TOL and np.min(t) >= 0.0):
        raise WindowViolated(
            f"chain at theta={theta!r}, k={k} fails its certificate: "
            f"projected gradient {pg:.3e}, min t {np.min(t):.3e}"
        )
    obj = float(np.dot(w, d))
    return NlpSolution(
        theta=theta,
        k=k,
        t=t,
        objective=obj,
        kkt_residual=pg,
        composed_bound=full_cost_from_partial(theta, obj),
    )


def nlp_sweep(
    theta_lo: float,
    theta_hi: float,
    grid: int,
    k: int,
) -> list[NlpSolution]:
    """Certified bounds over a uniform theta grid, one independent solve each."""
    return [nlp_lower_bound(float(th), k) for th in np.linspace(theta_lo, theta_hi, grid)]


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
