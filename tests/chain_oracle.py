"""The convex chain program's first formulation, kept as the oracle the lean
per-angle path of `bounds.nlp_lower_bound` is tested against bit for bit.

The chain comes from `anchored_chain_reference`, the backward pass that
builds every array at once, and the points, their differences and their
norms are rebuilt as (k+1, 2) stacks for the objective and again for the
gradient.
"""

import math

import numpy as np

from diskinspect.bounds import PG_CERTIFICATE_TOL
from diskinspect.cost import full_cost_from_partial
from diskinspect.errors import WindowViolated
from diskinspect.refraction import _angle_pass


def anchored_chain_reference(theta: float, k: int, m: int):
    """The arrays x, y, t and d of `refraction.anchored_chain`."""
    alpha = 2.0 * (math.pi - theta) / k
    xs, ys, bad = _angle_pass(alpha, m)
    if bad is not None:
        raise bad
    c = math.tan(alpha / 2.0)
    sx, sy = list(map(math.sin, xs)), list(map(math.sin, ys))
    ts = [0.0] * (m + 1)
    ts[m] = t = math.tan(theta)
    for i in range(m, 0, -1):
        t = ts[i - 1] = (t + c) * sx[i] / sy[i - 1] + c
    t_arr = np.array(ts)
    ds = np.concatenate([[math.nan], (t_arr[1:] + c) * math.sin(alpha) / np.array(sy[:-1])])
    return np.array(xs), np.array(ys), t_arr, ds


def chain_geometry(theta: float, k: int):
    """Tangency points p, ray directions u and the lower weights (i-1)/k."""
    idx = np.arange(k + 1)
    phi = 2.0 * math.pi - (math.pi - theta) * 2.0 * idx / k
    p = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    u = np.stack([np.sin(phi), -np.cos(phi)], axis=1)
    w = (np.arange(1, k + 1) - 1.0) / k
    return p, u, w


def objective(t, p, u, w) -> float:
    a = p + t[:, None] * u
    d = np.linalg.norm(a[1:] - a[:-1], axis=1)
    return float(np.dot(w, d))


def gradient(t, p, u, w) -> np.ndarray:
    """Gradient of the objective over the full t vector."""
    a = p + t[:, None] * u
    diff = a[1:] - a[:-1]
    unit = diff / np.linalg.norm(diff, axis=1)[:, None]
    grad = np.zeros(len(t))
    grad[1:] += w * np.einsum("ij,ij->i", unit, u[1:])
    grad[:-1] -= w * np.einsum("ij,ij->i", unit, u[:-1])
    return grad


def nlp_reference(theta: float, k: int):
    """(t, objective, kkt_residual, composed_bound) of the program at (theta, k),
    raising as `nlp_lower_bound` does for a chain that fails its angle
    recursion or its certificate."""
    chain = anchored_chain_reference(theta, k, k - 1)[2]
    t = np.concatenate([chain[:1], chain])
    p, u, w = chain_geometry(theta, k)
    grad = gradient(t, p, u, w)[:k]
    pg = float(np.max(np.where(t[:k] > 0.0, np.abs(grad), np.maximum(0.0, -grad))))
    if not (pg <= PG_CERTIFICATE_TOL and np.min(t) >= 0.0):
        raise WindowViolated(f"chain at theta={theta!r}, k={k} fails its certificate")
    obj = objective(t, p, u, w)
    return t, obj, pg, full_cost_from_partial(theta, obj)
