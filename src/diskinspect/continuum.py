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

    psi(x) = pi/2 - pi*x + (pi^3/12) x^3 + O(x^5)
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

Stepping and dense output.  ``_solve`` is DOP853, the Dormand-Prince
8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6), with
the tableau of scipy's ``scipy.integrate.DOP853`` written out as float
literals in ``dop853`` (scipy is not imported at run time) and the step
control of scipy's ``solve_ivp`` with ``first_step``.  Each field is
declared once, as straight-line source (``rhs`` and ``_rhs_pencil`` are
``dop853.Field``s): called, it is the Python function of (x, state), and
``dop853.kernels`` inlines it at every stage of the step and dense-output
code it generates per field on the first solve, so no step calls a
Python function.  The kernels sum in another order than numpy's BLAS
calls, so a solve agrees with scipy's to rounding, step by step, and does
not depend on the BLAS kernel the CPU selects.  Each accepted step's
interpolant goes into the arrays of ``StackedDense``, whose reads repeat
scipy's ``OdeSolution`` arithmetic (an abscissa on a step boundary goes
to the lower segment).  ``OdeSolution`` and ``Pencil`` hold one each and
read it alike: vectorized (``values``) and in Python floats at a single
point (``point``).  Each is a degree-7 polynomial that its Bernstein
coefficients enclose (``StackedDense.bernstein``), read by the psi band
check below and by ``feasibility``'s certificates.
Every solve takes x0 as its first step, not scipy's initial-step
heuristic: the series start lies on the smooth solution, so the heuristic
sees almost no curvature and would step from x0 = 1e-6 to about 1e-2,
across the region where psi's Jacobian -1/(x sin^2 psi) is near -1/x0,
and lose up to 8x in tau at x = 0.8.
A step that ends with psi outside (PSI_GUARD, pi - PSI_GUARD) raises
StepFailure, and so does a step whose interpolant of psi may leave that
band between its nodes (the Bernstein enclosure of ``_check_psi_band``,
halved by ``dop853.first_piece`` where it is loose), so a solve that
returns reaches x = 1, or the node where its stop test first holds, with
psi inside the band at every x.  Each reader stops
where its reads end: the window pencil, the certificate solves of
``optimizer`` and ``verify``'s solve at the crossing, ``self_check_init``'s
two solves and ``converge``'s at their last read, x = 0.8; only ``trace``
solves on [x0, 1].  psi involves no label: at every start that solves
and every tol up to 1e-3 it stays within [0.16, 1.61], and only far
coarser tolerances step it out.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import dop853
from .dop853 import StackedDense
from .errors import OutOfRange, StepFailure

#: Reference start abscissa anchoring the tau0 label.
X0_REF = 1e-6
#: Largest series start the truncated series is trusted at.
X0_MAX = 1e-5
#: Integration tolerance for reproduction runs, relative and absolute alike.
ODE_TOL = 1e-12
#: Smallest tolerance a solve accepts: 100 float64 epsilons, below which
#: the error estimate is rounding noise (scipy raises its rtol to this).
TOL_FLOOR = 100.0 * sys.float_info.epsilon
#: psi outside (PSI_GUARD, pi - PSI_GUARD) after a step raises StepFailure.
PSI_GUARD = 1e-3
#: Series starts and integration tolerance of the two-start self-check.
SELF_CHECK_STARTS = (1e-6, 1e-7)
SELF_CHECK_TOL = 1e-13
#: Abscissae the self-check compares its two solves at, ascending; each
#: solve stops at its first node at or past the last.
SELF_CHECK_READS = (0.1, 0.5, 0.8)


#: Right-hand side of the (psi, tau) field: rhs(x, state) -> (psi', tau').
rhs = dop853.Field(("psi", "tau"), """
    cot = math.cos(psi) / math.sin(psi)
    return (-math.tau + cot / x, math.tau * (tau * cot - 1.0))
""")


def psi_series(x0: float) -> float:
    """Start value for psi: pi/2 - pi*x0 + (pi^3/12)*x0^3 (no even powers:
    psi - pi/2 is odd in x)."""
    return math.pi / 2.0 - math.pi * x0 + (math.pi**3 / 12.0) * x0**3


def tau_series_from_center(tau_center: float, x: float) -> float:
    """tau at small x for the trajectory with x->0 limit tau_center."""
    return (tau_center * (1.0 + math.pi**2 * x * x) - math.tau * x
            - (4.0 * math.pi**3 / 3.0) * x**3)


def tau_center_from_label(tau0: float) -> float:
    """Invert the series: x=0 limit of the trajectory labeled tau(X0_REF)=tau0."""
    return (tau0 + math.tau * X0_REF + (4.0 * math.pi**3 / 3.0) * X0_REF**3) / (
        1.0 + math.pi**2 * X0_REF * X0_REF
    )


def series_start(tau0: float, x0: float = X0_REF) -> tuple[float, float, float]:
    """(psi0, tau_start, tau_slope) at abscissa x0 for the trajectory labeled tau0.

    psi0 = psi_series(x0) is the same for every label.  At the reference
    start the tau initialization is flat (tau_start equals the label);
    other starts receive the series-transported value of the same
    trajectory.  The transport is affine in the label, with slope
    tau_slope = d tau_start / d tau0.
    """
    if not 0.0 < x0 <= X0_MAX:
        raise ValueError(f"series start x0 must lie in (0, {X0_MAX:g}]")
    if x0 == X0_REF:
        return psi_series(x0), tau0, 1.0
    tau_start = tau_series_from_center(tau_center_from_label(tau0), x0)
    tau_slope = (1.0 + math.pi**2 * x0 * x0) / (1.0 + math.pi**2 * X0_REF * X0_REF)
    return psi_series(x0), tau_start, tau_slope


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


@dataclass
class _Solved:
    """Dense output of one solve on [x0, x_end] (``StackedDense``), with its
    work counts: n_rhs right-hand-side evaluations and n_rejected rejected
    step attempts."""

    x0: float
    _dense: StackedDense
    n_rhs: int
    n_rejected: int

    @property
    def grid(self) -> np.ndarray:
        return self._dense.ts

    @property
    def n_steps(self) -> int:
        return len(self.grid) - 1

    @property
    def x_end(self) -> float:
        return float(self.grid[-1])

    def values(self, x) -> np.ndarray:
        """The components at abscissae x of any shape, stacked first."""
        return self._dense(_check_range(x, self.x0, self.x_end))

    def point(self, x) -> tuple:
        """The components at one abscissa as floats, equal to values(x)."""
        return self._dense.point(_check_range(float(x), self.x0, self.x_end))


@dataclass
class OdeSolution(_Solved):
    """Dense output of the pair (psi, tau) for one tau0 label; metadata()
    leaves the work counts out."""

    tau0: float
    tol: float

    def bernstein(self) -> np.ndarray:
        """tau's Bernstein coefficients on every step (StackedDense.bernstein)."""
        return self._dense.bernstein(1)

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


#: scipy's status -1 message, raised as StepFailure.
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# DOP853 step control, as scipy's RungeKutta solvers apply it
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / (dop853.error_estimator_order + 1)


def _solve(field: dop853.Field, x0: float, y0, tol: float, first_step: float,
           stop=None) -> tuple[StackedDense, int, int]:
    """DOP853 (rtol = atol = tol) with dense output on [x0, 1], or on [x0,
    x_end] with x_end the first accepted node where stop(x_end, state)
    holds: (dense output, n_rhs, n_rejected).

    scipy's solve_ivp(method="DOP853", dense_output=True,
    first_step=first_step) in plain IEEE arithmetic: the same step control,
    and each step by ``dop853.kernels(field)``; see the module docstring.
    A stop test only ends the step sequence early: the steps up to x_end
    are those of the solve to 1.
    A tol below TOL_FLOOR raises ValueError.  A step below 10 ulp of x, psi
    = y[0] outside (PSI_GUARD, pi - PSI_GUARD) after an accepted step (NaN
    too), or an interpolant of psi that may leave that band
    (``_check_psi_band``) raises StepFailure.
    """
    if not tol >= TOL_FLOOR:
        raise ValueError(f"tol {tol!r} is below the floor {TOL_FLOOR:.3g}")
    t, y = x0, tuple(float(v) for v in y0)
    attempt, dense = dop853.kernels(field)
    f = field(t, y)
    h_abs, n_rhs, n_rejected = first_step, 1, 0
    ts, ys, F = [t], [y], []
    while t < 1.0:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too, where scipy would loop forever
                raise StepFailure(TOO_SMALL_STEP)
            t_new = min(t + h_abs, 1.0)
            h = t_new - t
            h_abs = abs(h)
            error_norm, y_new, f_new, K = attempt(t, h, y, f, tol)
            n_rhs += dop853.n_stages
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            n_rejected += 1
        if not PSI_GUARD < y_new[0] < math.pi - PSI_GUARD:
            raise StepFailure(f"psi = {y_new[0]!r} at x = {t_new!r} left the guard band "
                              f"({PSI_GUARD!r}, pi - {PSI_GUARD!r})")
        F += dense(t, h, y, y_new, K)
        n_rhs += len(dop853.A_EXTRA)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        if stop is not None and stop(t, y):
            break
    dense = StackedDense(ts, ys[:-1], np.array(F).reshape(len(ts) - 1, 7, len(y)))
    _check_psi_band(dense)
    return dense, n_rhs, n_rejected


def _check_psi_band(dense: StackedDense) -> None:
    """StepFailure unless psi's interpolant stays in (PSI_GUARD, pi - PSI_GUARD)
    on every step.

    psi's Bernstein coefficients (``StackedDense.bernstein``) enclose it on
    each step.  A step whose enclosure leaves the band is walked by
    ``dop853.first_piece``, so that an enclosure that is merely loose
    passes; a piece at full depth that still leaves the band fails the
    solve.  NaN fails too.
    """
    bern = dense.bernstein(0)
    inside = (bern.min(axis=1) > PSI_GUARD) & (bern.max(axis=1) < math.pi - PSI_GUARD)
    for k in np.flatnonzero(~inside).tolist():
        t_old, h = float(dense.t_old[k]), float(dense.h[k])
        exit_ = dop853.first_piece(
            bern[k], 0.0, 1.0, lambda b, *_: np.all((b > PSI_GUARD) & (b < math.pi - PSI_GUARD)),
            lambda _lo, _hi, depth: depth == 0)
        if exit_ is not None:
            s0, s1, b = exit_
            raise StepFailure(
                f"psi on x in [{t_old + s0 * h!r}, {t_old + s1 * h!r}] is enclosed by "
                f"[{float(b.min())!r}, {float(b.max())!r}], which leaves the guard band "
                f"({PSI_GUARD!r}, pi - {PSI_GUARD!r})")


def integrate(tau0: float, x0: float = X0_REF, tol: float = ODE_TOL, *,
              stop=None) -> OdeSolution:
    """Integrate the pair on [x0, 1] with one adaptive DOP853 pass (``_solve``),
    or only up to the first accepted node where stop(x, (psi, tau)) holds.

    Joint integration of the 2-vector field, eighth-order Dormand-Prince
    with dense output and first step x0: scipy's solve_ivp step control in
    plain IEEE arithmetic, equal to it to rounding in every step; tol is
    both the relative and the absolute error tolerance, at least TOL_FLOOR
    (else ValueError).  psi leaving the guard band, at a node or between
    nodes, or a step size below the spacing of floats, raises StepFailure.
    The solution carries the solve's work counts n_rhs and n_rejected.
    """
    if tau0 <= 0.0:
        raise ValueError("tau0 must be positive")
    psi0, tau_start, _ = series_start(tau0, x0)
    run = _solve(rhs, x0, (psi0, tau_start), tol, first_step=x0, stop=stop)
    return OdeSolution(x0, *run, tau0=tau0, tol=tol)


#: Right-hand side of the pencil field (psi, Tbar, B, I_Tbar, I_B).
_rhs_pencil = dop853.Field(("psi", "t", "b", "i_t", "i_b"), """
    sin = math.sin(psi)
    cot = math.cos(psi) / sin
    w = math.tau * x / sin
    return (-math.tau + cot / x, math.tau * (t * cot - 1.0), math.tau * b * cot,
            w * t, w * b)
""")


@dataclass
class Pencil(_Solved):
    """Dense output of every labeled trajectory at once.

    Components (psi, Tbar, B, I_Tbar, I_B): the trajectory labeled tau0 has
    tau = Tbar + (tau0 - tau_bar) * B and inspection integral
    I = I_Tbar + (tau0 - tau_bar) * I_B, where
    I(x) = int_x0^x 2*pi*s*tau(s)/sin(psi(s)) ds; psi is shared by all labels.
    """

    tau_bar: float

    def state(self, x, tau0):
        """(psi, tau, I) at abscissae x for labels tau0.

        tau0 broadcasts against x: x of shape (M, 1) and tau0 of shape (N,)
        give every label on a shared grid, equal shapes one abscissa per
        label.  psi keeps the shape of x.
        """
        psi, t, b, it, ib = self.values(x)
        d = np.asarray(tau0, dtype=float) - self.tau_bar
        return psi, t + d * b, it + d * ib

    def bernstein(self) -> tuple[np.ndarray, np.ndarray]:
        """Tbar's and B's Bernstein coefficients on every step
        (StackedDense.bernstein): a label's are Tbar_c + (tau0 - tau_bar) * B_c."""
        return self._dense.bernstein(1), self._dense.bernstein(2)


def integrate_pencil(tau_bar: float, x0: float = X0_REF, tol: float = ODE_TOL, *,
                     stop=None) -> Pencil:
    """Solve the pencil centred at the label tau_bar with one DOP853 pass on
    [x0, 1], or only up to the first accepted node where stop(x, (psi,
    Tbar, B, I_Tbar, I_B)) holds.

    Same solver, first step, tolerance and psi guard as ``integrate``.
    """
    if tau_bar <= 0.0:
        raise ValueError("tau0 must be positive")
    run = _solve(_rhs_pencil, x0, (*series_start(tau_bar, x0), 0.0, 0.0), tol,
                 first_step=x0, stop=stop)
    return Pencil(x0, *run, tau_bar=tau_bar)


def curve_points(sol: OdeSolution, xs) -> np.ndarray:
    """Curve points T(x) = tangent_point(-2*pi*x, tau(x)) at xs, shape (len(xs), 2)."""
    xs = np.asarray(xs, dtype=float)
    tau = sol.values(xs)[1]
    c, s = np.cos(math.tau * xs), np.sin(math.tau * xs)
    return np.stack([c - tau * s, -s - tau * c], axis=1)


def self_check_init(tau0: float) -> float:
    """Two-start consistency gap: max over SELF_CHECK_READS of |dpsi| + |dtau|.

    Both runs integrate the SAME labeled trajectory from the series starts
    SELF_CHECK_STARTS; the gap isolates start-truncation plus solver noise.
    Run at SELF_CHECK_TOL, tighter than the production 1e-12: the tau
    equation amplifies per-step noise by ~5e4 at x=0.8, and 1e-12-tolerance
    runs differ at the 1e-6 level for reasons unrelated to initialization.
    Each run stops at its first node at or past the last read, x = 0.8; its
    steps up to there are those of the solve to x = 1, so the gap is too.
    """
    last = SELF_CHECK_READS[-1]
    sol_a, sol_b = (
        integrate(tau0, x0=x0, tol=SELF_CHECK_TOL, stop=lambda x, _: x >= last)
        for x0 in SELF_CHECK_STARTS
    )
    gap = 0.0
    for x in SELF_CHECK_READS:
        va = sol_a.values(x)
        vb = sol_b.values(x)
        gap = max(gap, float(abs(va[0] - vb[0]) + abs(va[1] - vb[1])))
    return gap
