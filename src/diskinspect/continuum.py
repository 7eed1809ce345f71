"""Continuum limit of the inspection chain: the singular ODE pair and its curve.

State (psi, tau) solves, on (0, 1],

    psi'(x) = -2*pi + cot(psi(x)) / x          psi(0) = pi/2
    tau'(x) = 2*pi * (tau(x) * cot(psi(x)) - 1)  tau(0) = tau0

psi is the limiting refraction angle between the curve and the moving
tangent ray; tau the tangent-ray offset.  The associated curve is

    T(x) = (cos 2*pi*x - tau sin 2*pi*x,  -sin 2*pi*x - tau cos 2*pi*x),

i.e. tangent_point(-2*pi*x, tau(x)); ||T(x)||^2 = 1 + tau(x)^2.

The x=0 singularity is handled by starting at a small x0 > 0 from series
values.  Near zero,

    psi(x) = pi/2 - pi*x + O(x^3)
    tau(x) = tau_c (1 + pi^2 x^2) - 2*pi*x - (4*pi^3/3) x^3 + O(x^4).

Labeling convention: ``tau0`` names the tau VALUE AT the reference start
X0_REF = 1e-6 (flat initialization there), not the x=0 limit.  The
distinction matters: tau perturbations grow by exp(2*pi*int cot psi),
about 5e4 by the time the curve returns to the line x=1, so the ~2*pi*x0
difference between the two conventions shifts every downstream quantity
far beyond its tolerance.  Starting from any other x0 transports the same
label through the series above, so x0 stays a pure accuracy knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _DOP853

from .errors import OutOfRange, StepFailure

TWO_PI = 2.0 * math.pi
PI = math.pi

#: Reference start abscissa anchoring the tau0 label.
X0_REF = 1e-6
#: Largest series start the truncated series is trusted at.
X0_MAX = 1e-5
#: Integration tolerances for reproduction runs.
ODE_RTOL = 1e-12
ODE_ATOL = 1e-12
#: psi leaving (PSI_GUARD, pi - PSI_GUARD) terminates integration cleanly.
PSI_GUARD = 1e-3
#: Series starts and integration tolerance of the two-start self-check.
SELF_CHECK_STARTS = (1e-6, 1e-7)
SELF_CHECK_TOL = 1e-13


def rhs(x: float, state) -> tuple[float, float]:
    """Right-hand side of the (psi, tau) field."""
    psi, tau = float(state[0]), float(state[1])
    cot = math.cos(psi) / math.sin(psi)
    return (-TWO_PI + cot / x, TWO_PI * (tau * cot - 1.0))


def psi_series(x0: float) -> float:
    """Start value for psi: pi/2 - pi*x0 + (pi^2/2)*x0^2."""
    return PI / 2.0 - PI * x0 + (PI**2 / 2.0) * x0 * x0


def tau_series_from_center(tau_center: float, x: float) -> float:
    """tau at small x for the trajectory with x->0 limit tau_center."""
    return tau_center * (1.0 + PI**2 * x * x) - TWO_PI * x - (4.0 * PI**3 / 3.0) * x**3


def tau_center_from_label(tau0: float) -> float:
    """Invert the series: x=0 limit of the trajectory labeled tau(X0_REF)=tau0."""
    return (tau0 + TWO_PI * X0_REF + (4.0 * PI**3 / 3.0) * X0_REF**3) / (
        1.0 + PI**2 * X0_REF * X0_REF
    )


@dataclass
class SeriesInit:
    """Start state at abscissa x0 for the trajectory labeled tau0.

    At the reference start the tau initialization is flat (tau_start equals
    the label); other starts receive the series-transported value of the
    same trajectory.
    """

    x0: float
    psi0: float
    tau_start: float

    @classmethod
    def for_label(cls, tau0: float, x0: float = X0_REF) -> "SeriesInit":
        if not 0.0 < x0 <= X0_MAX:
            raise ValueError(f"series start x0 must lie in (0, {X0_MAX:g}]")
        if x0 == X0_REF:
            tau_start = tau0
        else:
            tau_start = tau_series_from_center(tau_center_from_label(tau0), x0)
        return cls(x0=x0, psi0=psi_series(x0), tau_start=tau_start)


def _check_range(x, x0: float, x_end: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x < x0 - 1e-15) or np.any(x > x_end + 1e-15):
        raise OutOfRange(f"abscissa outside stored range [{x0}, {x_end}]")
    return x


@dataclass
class OdeSolution:
    """Dense-output solution of the pair on [x0, x_end] for one tau0 label."""

    tau0: float
    x0: float
    rtol: float
    atol: float
    grid: np.ndarray
    psi: np.ndarray
    tau: np.ndarray
    _dense: object

    @property
    def n_steps(self) -> int:
        return len(self.grid) - 1

    @property
    def x_end(self) -> float:
        return float(self.grid[-1])

    def values(self, x):
        """(psi, tau) from dense output; scalar or vectorized."""
        return self._dense(_check_range(x, self.x0, self.x_end))

    def psi_at(self, x) -> float:
        return float(self.values(float(x))[0])

    def tau_at(self, x) -> float:
        return float(self.values(float(x))[1])

    def residual(self, x: float) -> tuple[float, float]:
        """Relative defect of both equations at x.

        The derivative is the central difference of the dense output with
        step 1e-6, shrunk to fit inside the stored range.
        """
        x = float(x)
        hh = min(1e-6, (x - self.x0) / 2.0, (self.x_end - x) / 2.0)
        if hh <= 0.0:
            raise OutOfRange("cannot form a central difference at the range edge")
        dnum = (self.values(x + hh) - self.values(x - hh)) / (2.0 * hh)
        f = rhs(x, self.values(x))
        r1 = abs(dnum[0] - f[0]) / (1.0 + abs(dnum[0]))
        r2 = abs(dnum[1] - f[1]) / (1.0 + abs(dnum[1]))
        return r1, r2

    def metadata(self) -> dict:
        return {
            "tau0": self.tau0,
            "x0": self.x0,
            "rtol": self.rtol,
            "atol": self.atol,
            "n_steps": self.n_steps,
        }


def integrate(
    tau0: float,
    x0: float = X0_REF,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> OdeSolution:
    """Integrate the pair on [x0, 1] with an adaptive high-order RK scheme.

    Joint integration of the 2-vector field (single pass), eighth-order
    Dormand-Prince with PI step control and dense output.  psi reaching the
    guard band near 0 or pi terminates the solution early (the stored range
    then ends before 1); error-control failure raises StepFailure.
    """
    if tau0 <= 0.0:
        raise ValueError("tau0 must be positive")
    init = SeriesInit.for_label(tau0, x0)

    def psi_low(x, y):
        return y[0] - PSI_GUARD

    def psi_high(x, y):
        return (PI - PSI_GUARD) - y[0]

    psi_low.terminal = True
    psi_low.direction = -1
    psi_high.terminal = True
    psi_high.direction = -1
    sol = solve_ivp(
        rhs,
        (x0, 1.0),
        (init.psi0, init.tau_start),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=(psi_low, psi_high),
    )
    if sol.status == -1:
        raise StepFailure(sol.message)
    psi, tau = sol.y
    return OdeSolution(
        tau0=tau0,
        x0=x0,
        rtol=rtol,
        atol=atol,
        grid=sol.t,
        psi=psi,
        tau=tau,
        _dense=sol.sol,
    )


#: Step-size control of the lockstep DOP853, as in scipy's: safety factor,
#: bounds on the per-step change of h, and the exponent 1/(error order + 1).
STEP_SAFETY = 0.9
STEP_MIN_FACTOR = 0.2
STEP_MAX_FACTOR = 10.0
STEP_EXPONENT = -1.0 / 8.0


def _rhs_many(x, y: np.ndarray) -> np.ndarray:
    """Right-hand side of the augmented field (psi, tau, I), one column per trajectory."""
    sin = np.sin(y[0])
    cot = np.cos(y[0]) / sin
    out = np.empty_like(y)
    out[0] = -TWO_PI + cot / x
    out[1] = TWO_PI * (y[1] * cot - 1.0)
    out[2] = TWO_PI * x * y[1] / sin
    return out


def _error_norm(err5: np.ndarray, err3: np.ndarray, h: float) -> np.ndarray:
    """DOP853 error norm over the leading axis, per column (scipy's formula).

    The inputs are scaled error estimates of shape (n_components, N).
    """
    e5 = np.sum(err5 * err5, axis=0)
    e3 = np.sum(err3 * err3, axis=0)
    denom = np.sqrt((e5 + 0.01 * e3) * err5.shape[0])
    with np.errstate(invalid="ignore"):
        return np.where(denom > 0.0, h * e5 / denom, 0.0)


def _initial_step(x0: float, y: np.ndarray, f: np.ndarray, rtol: float, atol: float) -> float:
    """scipy's initial step choice on each column's (psi, tau); the smallest is shared."""
    scale = atol + np.abs(y[:2]) * rtol
    d0 = np.sqrt(np.mean((y[:2] / scale) ** 2, axis=0))
    d1 = np.sqrt(np.mean((f[:2] / scale) ** 2, axis=0))
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-300))
    h0 = np.minimum(h0, 1.0 - x0)
    f1 = _rhs_many(x0 + h0, y + h0 * f)
    d2 = np.sqrt(np.mean(((f1[:2] - f[:2]) / scale) ** 2, axis=0)) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** -STEP_EXPONENT,
    )
    return float(np.min(np.minimum(np.minimum(100.0 * h0, h1), 1.0 - x0)))


def _fill_stages(k: np.ndarray, x: float, y: np.ndarray, h: float, stages: range) -> None:
    """Evaluate the given DOP853 stages into k, shape (16, 3, N), from the earlier ones."""
    flat = k.reshape(len(k), -1)
    for s in stages:
        dy = (_DOP853.A[s, :s] @ flat[:s]).reshape(y.shape) * h
        k[s] = _rhs_many(x + _DOP853.C[s] * h, y + dy)


@dataclass
class BatchSolution:
    """Dense-output solutions of (psi, tau, I) on [x0, 1] for many tau0 labels.

    Column k is the trajectory labeled tau0s[k]; I is the inspection
    integral int_x0^x 2*pi*s*tau(s)/sin(psi(s)) ds carried as a third state
    component.  All columns share one step grid.  The per-step interpolant
    coefficients are stored component-major, shape (3, P, n_steps, N).
    """

    tau0s: np.ndarray
    x0: float
    rtol: float
    atol: float
    grid: np.ndarray
    nodes: np.ndarray
    coeffs: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.grid) - 1

    @property
    def x_end(self) -> float:
        return float(self.grid[-1])

    def values(self, x, component: int, cols=None) -> np.ndarray:
        """One state component at abscissae x, per column.

        ``cols`` selects columns (default: all); the last axis of x
        broadcasts against it, so x of shape (M, 1) evaluates every selected
        column on a shared grid and x of shape (len(cols),) one abscissa per
        column.  Same interpolant and segment choice as scipy's DOP853.
        """
        x = _check_range(x, self.x0, self.x_end)
        n = self.coeffs.shape[-1]
        cols = np.arange(n) if cols is None else np.asarray(cols)
        seg = np.clip(np.searchsorted(self.grid, x, side="left") - 1, 0, self.n_steps - 1)
        flat = seg * n + cols
        t = (x - self.grid[seg]) / (self.grid[seg + 1] - self.grid[seg])
        coeffs = self.coeffs[component]
        y = np.zeros(flat.shape)
        for i, f in enumerate(reversed(coeffs)):
            y += f.ravel()[flat]
            y *= t if i % 2 == 0 else 1.0 - t
        return y + self.nodes[component, :-1].ravel()[flat]


def integrate_many(
    tau0s,
    x0: float = X0_REF,
    rtol: float = ODE_RTOL,
    atol: float = ODE_ATOL,
) -> BatchSolution:
    """Integrate every labeled trajectory on [x0, 1] in lockstep.

    Fixed-tableau DOP853 (Hairer-Norsett-Wanner, Solving ODEs I, II.5-II.6)
    over the augmented state (psi, tau, I) with I' = 2*pi*x*tau/sin(psi),
    I(x0) = 0.  All columns take the same step.  Each column's error norm
    is scipy's DOP853 norm over its own (psi, tau), and I is held to the
    same tolerance on its own; a step is accepted only when every column
    passes, so each trajectory is controlled at least as strictly as its
    scalar solve.  Raises StepFailure when the step size underflows or any
    column is outside the psi guard band at an accepted step node; callers
    then fall back to ``integrate`` per label.  The guard is checked at step
    nodes only, as solve_ivp detects the scalar path's terminal events by a
    sign change between nodes: on either path a dip past the guard that
    returns within one step goes unseen, and since the two step grids
    differ, such a dip could stop one path but not the other.
    """
    tau0s = np.asarray(tau0s, dtype=float)
    if np.any(tau0s <= 0.0):
        raise ValueError("tau0 must be positive")
    inits = [SeriesInit.for_label(float(t), x0) for t in tau0s]
    rel = max(rtol, 100.0 * np.finfo(float).eps)
    n_stages = _DOP853.N_STAGES
    y = np.zeros((3, len(tau0s)))
    y[0] = [i.psi0 for i in inits]
    y[1] = [i.tau_start for i in inits]
    x = x0
    f = _rhs_many(x, y)
    h_abs = _initial_step(x0, y, f, rel, atol)

    k = np.empty((_DOP853.N_STAGES_EXTENDED,) + y.shape)
    k_flat = k.reshape(len(k), -1)
    grid, nodes, coeffs = [x], [y], []
    while x < 1.0:
        min_step = 10.0 * abs(np.nextafter(x, np.inf) - x)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepFailure(f"lockstep step size underflow at x={x!r}")
            x_new = min(x + h_abs, 1.0)
            h = x_new - x
            k[0] = f
            _fill_stages(k, x, y, h, range(1, n_stages))
            y_new = y + h * (_DOP853.B @ k_flat[:n_stages]).reshape(y.shape)
            f_new = _rhs_many(x_new, y_new)
            k[n_stages] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rel
            err5 = (_DOP853.E5 @ k_flat[: n_stages + 1]).reshape(y.shape) / scale
            err3 = (_DOP853.E3 @ k_flat[: n_stages + 1]).reshape(y.shape) / scale
            err = float(np.max(np.maximum(
                _error_norm(err5[:2], err3[:2], h), _error_norm(err5[2:], err3[2:], h)
            )))
            if err < 1.0:
                factor = STEP_MAX_FACTOR
                if err > 0.0:
                    factor = min(factor, STEP_SAFETY * err**STEP_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            factor = STEP_SAFETY * err**STEP_EXPONENT if np.isfinite(err) else 0.0
            h_abs *= max(STEP_MIN_FACTOR, factor)
            rejected = True
        if np.any(y_new[0] <= PSI_GUARD) or np.any(y_new[0] >= PI - PSI_GUARD):
            raise StepFailure(f"a column left the psi guard band at x={x_new!r}")
        _fill_stages(k, x, y, h, range(n_stages + 1, len(k)))
        delta = y_new - y
        step = np.empty((3, _DOP853.INTERPOLATOR_POWER, y.shape[1]))
        step[:, 0] = delta
        step[:, 1] = h * f - delta
        step[:, 2] = 2.0 * delta - h * (f_new + f)
        step[:, 3:] = h * (_DOP853.D @ k_flat).reshape((-1,) + y.shape).transpose(1, 0, 2)
        coeffs.append(step)
        x, y, f = x_new, y_new, f_new
        grid.append(x)
        nodes.append(y)
    return BatchSolution(
        tau0s=tau0s,
        x0=x0,
        rtol=rtol,
        atol=atol,
        grid=np.array(grid),
        nodes=np.stack(nodes, axis=1),
        coeffs=np.stack(coeffs, axis=2),
    )


def curve_point(sol: OdeSolution, x: float) -> np.ndarray:
    """Curve point T(x) = tangent_point(-2*pi*x, tau(x)) from dense output."""
    x = float(x)
    tau = sol.tau_at(x)
    c, s = math.cos(TWO_PI * x), math.sin(TWO_PI * x)
    return np.array([c - tau * s, -s - tau * c])


def curve_points(sol: OdeSolution, xs) -> np.ndarray:
    """Vectorized curve evaluation, shape (len(xs), 2)."""
    xs = np.asarray(xs, dtype=float)
    tau = sol.values(xs)[1]
    c, s = np.cos(TWO_PI * xs), np.sin(TWO_PI * xs)
    return np.stack([c - tau * s, -s - tau * c], axis=1)


def self_check_init(tau0: float) -> float:
    """Two-start consistency gap: max over {0.1, 0.5, 0.8} of |dpsi| + |dtau|.

    Both runs integrate the SAME labeled trajectory from the series starts
    SELF_CHECK_STARTS; the gap isolates start-truncation plus solver noise.
    Run at SELF_CHECK_TOL, tighter than the production 1e-12: the tau
    equation amplifies per-step noise by ~5e4 at x=0.8, and 1e-12-tolerance
    runs differ at the 1e-6 level for reasons unrelated to initialization.
    """
    sol_a, sol_b = (
        integrate(tau0, x0=x0, rtol=SELF_CHECK_TOL, atol=SELF_CHECK_TOL)
        for x0 in SELF_CHECK_STARTS
    )
    gap = 0.0
    for x in (0.1, 0.5, 0.8):
        va = sol_a.values(x)
        vb = sol_b.values(x)
        gap = max(gap, float(abs(va[0] - vb[0]) + abs(va[1] - vb[1])))
    return gap
