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
label through the series above, so x0 stays a pure accuracy knob.  The
other is tol, one number that every solve here passes to DOP853 as both
its relative and its absolute error tolerance.

The tau0 pencil.  psi's equation does not involve tau, and tau's is
linear in tau, so every labeled trajectory is one affine family:

    tau(x; tau0) = Tbar(x) + (tau0 - tau_bar) * B(x),  B' = 2*pi * B * cot(psi),

with Tbar the tau of the trajectory labeled tau_bar.  The series start is
affine in the label for any x0, so (Tbar, B)(x0) = (tau_start(tau_bar),
d tau_start/d tau0).  The inspection integral I' = 2*pi*x*tau/sin(psi)
splits the same way into I_Tbar + (tau0 - tau_bar) * I_B.
``integrate_pencil`` solves (psi, Tbar, B, I_Tbar, I_B) in one pass, and
every trajectory of a window is read off its dense output.  B grows to
~4.5e4 by x = 0.81, where tau is below 1 near the optimum.  Written as
A + tau0 * B (tau_bar = 0), tau there is the difference of two terms of
size ~7e4 and loses five digits.  Centred at the window midpoint,
|tau0 - tau_bar| <= 2.8e-3 on the certified window, both terms stay below
~250 and at most two to three digits cancel.  On a wide window a label far
from the centre has a large (tau0 - tau_bar) * B, but then tau itself is
of that size and nothing cancels: rows of one pencil over [0.05, 10] agree
with the scalar path to 3e-13 in xi and 1.3e-10 in cost.

Dense output.  scipy does all the stepping; each solve's DOP853
interpolants are then stacked into arrays once (``StackedDense``) and read
by one searchsorted-and-Horner evaluator, a plain loop for a single point.
It repeats scipy's ``OdeSolution`` arithmetic operation for operation, so
every value is bit-identical to scipy's, and an abscissa on a step
boundary goes to the lower segment as there.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import OutOfRange, StepFailure

#: Reference start abscissa anchoring the tau0 label.
X0_REF = 1e-6
#: Largest series start the truncated series is trusted at.
X0_MAX = 1e-5
#: Integration tolerance for reproduction runs, relative and absolute alike.
ODE_TOL = 1e-12
#: psi leaving (PSI_GUARD, pi - PSI_GUARD) terminates integration cleanly.
PSI_GUARD = 1e-3
#: Series starts and integration tolerance of the two-start self-check.
SELF_CHECK_STARTS = (1e-6, 1e-7)
SELF_CHECK_TOL = 1e-13


def rhs(x: float, state) -> tuple[float, float]:
    """Right-hand side of the (psi, tau) field."""
    psi, tau = float(state[0]), float(state[1])
    cot = math.cos(psi) / math.sin(psi)
    return (-math.tau + cot / x, math.tau * (tau * cot - 1.0))


def psi_series(x0: float) -> float:
    """Start value for psi: pi/2 - pi*x0 + (pi^2/2)*x0^2."""
    return math.pi / 2.0 - math.pi * x0 + (math.pi**2 / 2.0) * x0 * x0


def tau_series_from_center(tau_center: float, x: float) -> float:
    """tau at small x for the trajectory with x->0 limit tau_center."""
    return (tau_center * (1.0 + math.pi**2 * x * x) - math.tau * x
            - (4.0 * math.pi**3 / 3.0) * x**3)


def tau_center_from_label(tau0: float) -> float:
    """Invert the series: x=0 limit of the trajectory labeled tau(X0_REF)=tau0."""
    return (tau0 + math.tau * X0_REF + (4.0 * math.pi**3 / 3.0) * X0_REF**3) / (
        1.0 + math.pi**2 * X0_REF * X0_REF
    )


@dataclass
class SeriesInit:
    """Start state at abscissa x0 for the trajectory labeled tau0.

    At the reference start the tau initialization is flat (tau_start equals
    the label); other starts receive the series-transported value of the
    same trajectory.  The transport is affine in the label, with slope
    tau_slope = d tau_start / d tau0.
    """

    x0: float
    psi0: float
    tau_start: float
    tau_slope: float

    @classmethod
    def for_label(cls, tau0: float, x0: float = X0_REF) -> "SeriesInit":
        if not 0.0 < x0 <= X0_MAX:
            raise ValueError(f"series start x0 must lie in (0, {X0_MAX:g}]")
        if x0 == X0_REF:
            tau_start, tau_slope = tau0, 1.0
        else:
            tau_start = tau_series_from_center(tau_center_from_label(tau0), x0)
            tau_slope = (1.0 + math.pi**2 * x0 * x0) / (1.0 + math.pi**2 * X0_REF * X0_REF)
        return cls(x0=x0, psi0=psi_series(x0), tau_start=tau_start, tau_slope=tau_slope)


def _check_range(x, x0: float, x_end: float):
    """x, a float as is and anything else as a float array, once every point
    lies in [x0, x_end] up to 1e-15; OutOfRange otherwise, also for NaN."""
    if isinstance(x, float):
        if not x0 - 1e-15 <= x <= x_end + 1e-15:
            raise OutOfRange(f"abscissa {x!r} outside stored range [{x0}, {x_end}]")
        return x
    x = np.asarray(x, dtype=float)
    if x.size and not (x.min() >= x0 - 1e-15 and x.max() <= x_end + 1e-15):
        raise OutOfRange(f"abscissa outside stored range [{x0}, {x_end}]")
    return x


class StackedDense:
    """The DOP853 interpolants of one solve, stacked, and their evaluator.

    Segment k covers [ts[k], ts[k+1]] and reads y_old[k] plus the Horner
    polynomial in s = (x - t_old[k]) / h[k] whose coefficient rows are
    F[k, 0..6], in the order scipy's Dop853DenseOutput adds them.  t_old
    and h come from the interpolants, not from ts: the step cut short by a
    terminal event keeps its full step.  Called like scipy's OdeSolution:
    x -> (d,) for a float, 0-d or one-element array (a plain-float loop),
    (d,) + x.shape for any other array.  Range checks are the caller's.
    """

    def __init__(self, ode_solution):
        pieces = ode_solution.interpolants
        self.ts = np.asarray(ode_solution.ts, dtype=float)
        self.t_old = np.array([p.t_old for p in pieces])
        self.h = np.array([p.h for p in pieces])
        self.y_old = np.array([p.y_old for p in pieces])
        self.F = np.array([p.F[::-1] for p in pieces])
        # scipy starts from zeros, so its first sum turns a -0.0 into +0.0
        self.F[:, 0] += 0.0
        # the single-point path: the same numbers as Python floats, and per
        # segment one (7 coefficients, y_old) tuple per component
        self._ts = self.ts.tolist()
        coef = np.concatenate([self.F, self.y_old[:, None]], axis=1).tolist()
        self._rows = list(zip(self.t_old.tolist(), self.h.tolist(),
                              [list(zip(*c)) for c in coef]))

    def _point(self, x: float) -> np.ndarray:
        k = min(max(bisect_left(self._ts, x) - 1, 0), len(self._rows) - 1)
        t_old, h, comps = self._rows[k]
        s = (x - t_old) / h
        u = 1 - s
        return np.array([
            ((((((c0 * s + c1) * u + c2) * s + c3) * u + c4) * s + c5) * u + c6) * s + y0
            for c0, c1, c2, c3, c4, c5, c6, y0 in comps
        ])

    def __call__(self, x):
        if isinstance(x, float):
            return self._point(x)
        x = np.asarray(x, dtype=float)
        if x.size == 1:
            return self._point(x.item()).reshape(self.y_old.shape[1:] + x.shape)
        k = np.searchsorted(self.ts, x, side="left") - 1
        np.clip(k, 0, len(self.h) - 1, out=k)
        s = ((x - self.t_old[k]) / self.h[k])[..., None]
        u = 1 - s
        # one (N, d) gather per term, never F[k] (N, 7, d); take is several
        # times faster than fancy indexing here
        y = self.F[:, 0].take(k, axis=0)
        y *= s
        for i in range(1, 7):
            y += self.F[:, i].take(k, axis=0)
            y *= u if i % 2 else s
        y += self.y_old.take(k, axis=0)
        return np.moveaxis(y, -1, 0)


@dataclass
class OdeSolution:
    """Dense-output solution of the pair on [x0, x_end] for one tau0 label."""

    tau0: float
    x0: float
    tol: float
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
            "rtol": self.tol,
            "atol": self.tol,
            "n_steps": self.n_steps,
        }


def _psi_low(x, y):
    return y[0] - PSI_GUARD


def _psi_high(x, y):
    return (math.pi - PSI_GUARD) - y[0]


_psi_low.terminal = _psi_high.terminal = True
_psi_low.direction = _psi_high.direction = -1


def _solve(fun, x0: float, y0, tol: float):
    """DOP853 (rtol = atol = tol) with dense output on [x0, 1], stopped at the psi guard.

    Returns solve_ivp's result, with scipy's dense output in ``sol`` and
    the same interpolants stacked in ``dense``.
    """
    sol = solve_ivp(
        fun,
        (x0, 1.0),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=True,
        events=(_psi_low, _psi_high),
    )
    if sol.status == -1:
        raise StepFailure(sol.message)
    sol.dense = StackedDense(sol.sol)
    return sol


def integrate(tau0: float, x0: float = X0_REF, tol: float = ODE_TOL) -> OdeSolution:
    """Integrate the pair on [x0, 1] with an adaptive high-order RK scheme.

    Joint integration of the 2-vector field (single pass), eighth-order
    Dormand-Prince with PI step control and dense output; tol is both the
    relative and the absolute error tolerance.  psi reaching the guard band
    near 0 or pi terminates the solution early (the stored range then ends
    before 1); error-control failure raises StepFailure.
    """
    if tau0 <= 0.0:
        raise ValueError("tau0 must be positive")
    init = SeriesInit.for_label(tau0, x0)
    sol = _solve(rhs, x0, (init.psi0, init.tau_start), tol)
    psi, tau = sol.y
    return OdeSolution(
        tau0=tau0,
        x0=x0,
        tol=tol,
        grid=sol.t,
        psi=psi,
        tau=tau,
        _dense=sol.dense,
    )


def _rhs_pencil(x: float, state) -> tuple[float, ...]:
    """Right-hand side of the pencil field (psi, Tbar, B, I_Tbar, I_B)."""
    psi, t, b = float(state[0]), float(state[1]), float(state[2])
    sin = math.sin(psi)
    cot = math.cos(psi) / sin
    w = math.tau * x / sin
    return (-math.tau + cot / x, math.tau * (t * cot - 1.0), math.tau * b * cot,
            w * t, w * b)


@dataclass
class Pencil:
    """Dense output of every labeled trajectory at once, on [x0, x_end].

    Columns (psi, Tbar, B, I_Tbar, I_B): the trajectory labeled tau0 has
    tau = Tbar + (tau0 - tau_bar) * B and inspection integral
    I = I_Tbar + (tau0 - tau_bar) * I_B, where
    I(x) = int_x0^x 2*pi*s*tau(s)/sin(psi(s)) ds; psi is shared by all labels.
    """

    tau_bar: float
    x0: float
    grid: np.ndarray
    _dense: object
    _samples: dict = field(default_factory=dict, repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.grid) - 1

    @property
    def x_end(self) -> float:
        return float(self.grid[-1])

    def columns(self, x) -> np.ndarray:
        """(psi, Tbar, B, I_Tbar, I_B) at abscissae x of any shape, stacked first."""
        return self._dense(_check_range(x, self.x0, self.x_end))

    def state(self, x, tau0):
        """(psi, tau, I) at abscissae x for labels tau0.

        tau0 broadcasts against x: x of shape (M, 1) and tau0 of shape (N,)
        give every label on a shared grid, equal shapes one abscissa per
        label.  psi keeps the shape of x.
        """
        psi, t, b, it, ib = self.columns(x)
        d = np.asarray(tau0, dtype=float) - self.tau_bar
        return psi, t + d * b, it + d * ib

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n uniform abscissae on [x0, x_end] and the columns there, computed once."""
        if n not in self._samples:
            xs = np.linspace(self.x0, self.x_end, n)
            self._samples[n] = xs, self.columns(xs)
        return self._samples[n]


def integrate_pencil(tau_bar: float, x0: float = X0_REF, tol: float = ODE_TOL) -> Pencil:
    """Solve the pencil centred at the label tau_bar with one DOP853 pass.

    Same solver, tolerance and psi guard as ``integrate``; a guard hit
    ends every label's range at the same abscissa.
    """
    if tau_bar <= 0.0:
        raise ValueError("tau0 must be positive")
    init = SeriesInit.for_label(tau_bar, x0)
    y0 = (init.psi0, init.tau_start, init.tau_slope, 0.0, 0.0)
    sol = _solve(_rhs_pencil, x0, y0, tol)
    return Pencil(
        tau_bar=tau_bar,
        x0=x0,
        grid=sol.t,
        _dense=sol.dense,
    )


def curve_points(sol: OdeSolution, xs) -> np.ndarray:
    """Curve points T(x) = tangent_point(-2*pi*x, tau(x)) at xs, shape (len(xs), 2)."""
    xs = np.asarray(xs, dtype=float)
    tau = sol.values(xs)[1]
    c, s = np.cos(math.tau * xs), np.sin(math.tau * xs)
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
        integrate(tau0, x0=x0, tol=SELF_CHECK_TOL)
        for x0 in SELF_CHECK_STARTS
    )
    gap = 0.0
    for x in (0.1, 0.5, 0.8):
        va = sol_a.values(x)
        vb = sol_b.values(x)
        gap = max(gap, float(abs(va[0] - vb[0]) + abs(va[1] - vb[1])))
    return gap
