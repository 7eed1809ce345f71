import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import DOP853, Dop853DenseOutput, rk_step

from diskinspect import continuum, dop853
from diskinspect.artifacts import write_csv, write_json
from diskinspect.continuum import (
    ODE_TOL,
    TOL_FLOOR,
    X0_MAX,
    X0_REF,
    curve_points,
    integrate,
    integrate_pencil,
    psi_series,
    rhs,
    self_check_init,
    series_start,
    tau_center_from_label,
    tau_series_from_center,
)
from diskinspect.errors import OutOfRange, StepFailure
from diskinspect.refraction import forward_recursion

from conftest import PUBLISHED_TAU0

PI = math.pi
EPS = sys.float_info.epsilon


class TestSeriesInit:
    def test_reference_start_is_flat(self):
        psi0, tau_start, tau_slope = series_start(1.647)
        assert tau_start == 1.647 and tau_slope == 1.0
        assert psi0 == PI / 2 - PI * X0_REF + (PI**3 / 12) * X0_REF**3

    def test_label_transport_round_trip(self):
        tau_c = tau_center_from_label(1.647)
        assert tau_series_from_center(tau_c, X0_REF) == pytest.approx(1.647, abs=1e-15)

    def test_transport_matches_integration(self):
        # integrating the transported start from 1e-7 back to 1e-6 recovers
        # the flat label value
        sol = integrate(1.647, x0=1e-7, tol=1e-13)
        assert sol.point(1e-6)[1] == pytest.approx(1.647, abs=1e-11)

    def test_rejects_large_x0(self):
        with pytest.raises(ValueError):
            series_start(1.647, x0=1e-4)


class TestIntegrate:
    def test_start_values(self, sol_star):
        assert sol_star.point(X0_REF)[0] == pytest.approx(
            PI / 2 - PI * X0_REF + (PI**3 / 12) * X0_REF**3, abs=1e-15
        )
        # tau0 labels the value AT the reference start (flat initialization)
        assert sol_star.point(X0_REF)[1] == pytest.approx(PUBLISHED_TAU0, abs=1e-14)

    def test_psi_series_residual_is_fourth_order(self):
        # psi' - (-2 pi + cot(psi) / x) on the series start, its derivative
        # taken by the five-point difference, exact on cubics: halving x
        # divides the residual by 16 when the series is right through x^3
        # (an x^2 term leaves an O(x) residual, ratio 2)
        def residual(x):
            h = x / 8
            d = (-psi_series(x + 2 * h) + 8 * psi_series(x + h)
                 - 8 * psi_series(x - h) + psi_series(x - 2 * h)) / (12 * h)
            return d - rhs(x, (psi_series(x), 0.0))[0]

        xs = [0.04, 0.02, 0.01, 0.005]
        for a, b in zip(xs, xs[1:]):
            assert residual(a) / residual(b) == pytest.approx(16.0, abs=0.1)

    def test_psi_asymptote_near_zero(self, sol_star):
        x = 1e-4
        assert abs(sol_star.point(x)[0] - (PI / 2 - PI * x)) <= 1e-6

    def test_ode_residual_at_dense_points(self, sol_star):
        rng = np.random.default_rng(0)
        xs = rng.uniform(2e-6, 0.999, 200)
        worst = max(max(sol_star.residual(float(x))) for x in xs)
        assert worst <= 1e-8

    def test_tolerance_robustness(self):
        # psi is self-stabilizing; tau amplifies solver noise by ~5e4 near
        # x=0.8, so its drift across tolerance decades is bounded at the
        # amplified scale (measured 5.6e-7), far above the naive 1e-8
        s10 = integrate(PUBLISHED_TAU0, tol=1e-10)
        s12 = integrate(PUBLISHED_TAU0, tol=1e-12)
        (psi10, tau10), (psi12, tau12) = s10.point(0.8), s12.point(0.8)
        assert abs(psi10 - psi12) <= 1e-8
        assert abs(tau10 - tau12) <= 5e-6

    def test_invalid_tau0(self):
        for solve, tau0 in ((integrate, -1.0), (integrate_pencil, 0.0), (integrate_pencil, -1.0)):
            with pytest.raises(ValueError, match="tau0 must be positive"):
                solve(tau0)

    def test_out_of_range(self, sol_star):
        with pytest.raises(OutOfRange):
            sol_star.point(1.5)
        with pytest.raises(OutOfRange, match="central difference"):
            sol_star.residual(sol_star.x_end)
        with pytest.raises(OutOfRange):
            sol_star.values(1e-8)

    def test_nan_is_out_of_range(self, sol_star):
        # NaN fails every comparison, so a range test written as
        # "x < x0 or x > x_end" would let it through to a NaN result
        for x in (math.nan, np.float64(math.nan), np.array(math.nan),
                  np.array([0.5, math.nan]), [math.nan]):
            with pytest.raises(OutOfRange):
                sol_star.values(x)
        with pytest.raises(OutOfRange):
            sol_star.point(math.nan)

    def test_pencil_nan_is_out_of_range(self):
        pencil = integrate_pencil(1.649)
        for x in (math.nan, [math.nan], np.array([[0.5], [math.nan]])):
            with pytest.raises(OutOfRange):
                pencil.values(x)
        with pytest.raises(OutOfRange):
            pencil.state(np.array([0.3, math.nan]), 1.649)

    def test_psi_stays_inside_band(self, sol_star):
        psi = sol_star.values(sol_star.grid)[0]
        assert np.all(psi > 0.0)
        assert np.all(psi < PI)

    def test_grid_strictly_increasing(self, sol_star):
        assert np.all(np.diff(sol_star.grid) > 0)


def assert_same_bits(ours, ref):
    """Equal shapes and equal float64 bit patterns (so -0.0 != 0.0)."""
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    assert ours.shape == ref.shape
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


def scipy_solve(fun, x0, y0, tol, first_step):
    """scipy's solve_ivp for the solve continuum._solve makes."""
    return solve_ivp(fun, (x0, 1.0), y0, method="DOP853", rtol=tol, atol=tol,
                     dense_output=True, first_step=first_step)


def scipy_dense(dense):
    """A StackedDense's own arrays as scipy's OdeSolution of DOP853 pieces."""
    return OdeSolution(dense.ts, [
        Dop853DenseOutput(t_old, t, y_old, F[::-1])
        for t_old, t, y_old, F in zip(dense.ts[:-1], dense.ts[1:], dense.y_old, dense.F)
    ])


class TestStackedDense:
    """The stacked evaluator is read with == against scipy's OdeSolution
    built from the same ts, y_old and F: it repeats scipy's evaluation
    arithmetic, so not even the last bit may differ."""

    @pytest.fixture(scope="class")
    def solved(self):
        sol = integrate(1.648)
        return sol, scipy_dense(sol._dense)

    def test_random_points(self, solved):
        sol, ref = solved
        xs = np.random.default_rng(7).uniform(sol.x0, sol.x_end, 5000)
        assert_same_bits(sol.values(xs), ref(xs))
        for x in xs[:1000].tolist():
            assert_same_bits(sol.values(x), ref(x))

    def test_step_boundaries_go_to_the_lower_segment(self, solved):
        sol, ref = solved
        assert_same_bits(sol.values(sol.grid), ref(sol.grid))
        for k, x in enumerate(sol.grid.tolist()):
            lower = ref.interpolants[max(k - 1, 0)](x)
            assert_same_bits(sol.values(x), lower)
            assert_same_bits(ref(x), lower)

    def test_hand_made_segments(self):
        # real solves agree across every step boundary to the last bit, so
        # a wrong tie-break would not show there: these segments read 1.0
        # from the left of x = 1 and 5.0 from its right.  The third one is
        # all -0.0, which scipy's sum from zeros turns into +0.0.
        f = np.zeros((7, 1))
        f[0] = 1.0
        ref = OdeSolution([0.0, 1.0, 2.0, 3.0], [
            Dop853DenseOutput(0.0, 1.0, np.array([0.0]), f),
            Dop853DenseOutput(1.0, 2.0, np.array([5.0]), np.zeros((7, 1))),
            Dop853DenseOutput(2.0, 3.0, np.array([-0.0]), np.full((7, 1), -0.0)),
        ])
        pieces = ref.interpolants
        dense = continuum.StackedDense(ref.ts, [p.y_old for p in pieces],
                                       [p.F[::-1] for p in pieces])
        xs = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        assert_same_bits(dense(xs), ref(xs))
        for x in xs.tolist():
            assert_same_bits(dense(x), ref(x))
        assert dense(1.0)[0] == 1.0
        assert not np.signbit(dense(2.5)[0])

    def test_range_ends(self, solved):
        sol, ref = solved
        xs = [sol.x0 - 5e-16, sol.x0, sol.x0 + 5e-16,
              sol.x_end - 5e-16, sol.x_end, sol.x_end + 5e-16]
        assert_same_bits(sol.values(np.array(xs)), ref(np.array(xs)))
        for x in xs:
            assert_same_bits(sol.values(x), ref(x))

    def test_input_shapes(self, solved):
        sol, ref = solved
        x = 0.4321
        for arg in (x, np.float64(x), np.array(x)):
            assert_same_bits(sol.values(arg), ref(x))
        assert_same_bits(sol.values(np.array([x])), ref(np.array([x])))
        column = np.linspace(0.1, 0.9, 7)[:, None]
        assert_same_bits(sol.values(column), ref(column.ravel()).reshape(2, 7, 1))
        assert sol.values(np.empty(0)).shape == (2, 0)

    def test_pencil_columns(self):
        pencil = integrate_pencil(1.649)
        ref = scipy_dense(pencil._dense)
        rng = np.random.default_rng(8)
        xs = np.concatenate([rng.uniform(pencil.x0, pencil.x_end, 3000), pencil.grid])
        assert_same_bits(pencil.values(xs), ref(xs))
        assert_same_bits(pencil.values(xs[:30, None]), ref(xs[:30]).reshape(5, 30, 1))
        for x in xs[:300].tolist():
            assert_same_bits(pencil.values(x), ref(x))
            assert_same_bits(pencil.values(np.array([x])), ref(np.array([x])))
        assert pencil.values(np.empty((0, 3))).shape == (5, 0, 3)

    def test_point_reads_are_the_vectorized_reads(self):
        # segment rows are built on a segment's first single-point read;
        # before and after, on both fields, a point read is the vectorized
        # read to the last bit
        rng = np.random.default_rng(9)
        for run in (integrate(1.648), integrate_pencil(1.649)):
            dense = run._dense
            assert all(row is None for row in dense._rows)
            for _ in range(2):
                xs = np.concatenate([rng.uniform(run.x0, run.x_end, 200), run.grid[::7]])
                ref = dense(xs)
                for i, x in enumerate(xs.tolist()):
                    assert_same_bits(dense.point(x), ref[:, i])
            assert any(row is None for row in dense._rows)

    def test_a_node_reads_its_left_segment(self):
        # real solves agree across step boundaries to the last bit, so these
        # hand-made segments read s, 5.0 and 7.0: a node reads its left one,
        # on the vectorized and the single-point path alike
        F = np.zeros((3, 7, 1))
        F[0, 6] = 1.0
        dense = dop853.StackedDense([0.0, 1.0, 2.0, 3.0], [[0.0], [5.0], [7.0]], F)
        x = np.array([1.0, 2.0, 2.0, 1.0, 1.0, 2.0])
        assert dense(x)[0].tolist() == [1.0, 5.0, 5.0, 1.0, 1.0, 5.0]
        assert [dense.point(v)[0] for v in x.tolist()] == [1.0, 5.0, 5.0, 1.0, 1.0, 5.0]
        assert dense(np.array([0.0, 0.5, 1.5, 2.5, 3.0]))[0].tolist() == [
            0.0, 0.5, 5.0, 7.0, 7.0]

    def test_point_is_values_as_floats(self, solved):
        sol, _ = solved
        for x in np.random.default_rng(10).uniform(sol.x0, sol.x_end, 300).tolist():
            for arg in (x, np.float64(x)):
                point = sol.point(arg)
                assert type(point) is tuple and all(type(v) is float for v in point)
                assert_same_bits(point, sol.values(x))
        for x in (sol.x0 - 1e-9, 1.5, math.nan):
            with pytest.raises(OutOfRange):
                sol.point(x)

    def test_bernstein_is_the_interpolant(self):
        # every column of both fields, in the Bernstein basis of each step,
        # at 9 points per step; its end coefficients are the node reads
        s = np.linspace(0.0, 1.0, 9)
        basis = np.array([[math.comb(7, i) * v**i * (1 - v)**(7 - i) for i in range(8)]
                          for v in s])
        for run in (integrate(1.648), integrate_pencil(1.649)):
            dense = run._dense
            xs = dense.t_old[:, None] + s * dense.h[:, None]
            for col, ref in enumerate(dense(xs)):
                bern = dense.bernstein(col)
                scale = np.abs(bern).max(axis=1, keepdims=True)
                assert np.all(np.abs(bern @ basis.T - ref) <= 1e-13 * (1.0 + scale))
                assert_same_bits(np.append(bern[0, 0], bern[:, 7]), dense(run.grid)[col])

    @settings(max_examples=25)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8), st.floats(0.0, 1.0))
    def test_split_at_any_s(self, b, s):
        # the two pieces are the polynomial on [0, s] and on [s, 1]
        t = np.linspace(0.0, 1.0, 7)

        def value(coefs, v):
            return sum(c * math.comb(7, i) * v**i * (1 - v)**(7 - i)
                       for i, c in enumerate(coefs))

        left, right = dop853.split(b, s)
        for v in t:
            assert value(left, v) == pytest.approx(value(b, s * v), abs=1e-12)
            assert value(right, v) == pytest.approx(value(b, s + (1 - s) * v), abs=1e-12)
        # at s = 1/2 each level is the halving (p + q) / 2, to the bit
        halves, level = ([b[0]], [b[-1]]), b
        while len(level) > 1:
            level = [(p + q) / 2 for p, q in zip(level, level[1:])]
            halves[0].append(level[0])
            halves[1].insert(0, level[-1])
        for ours, ref in zip(dop853.split(b, 0.5), halves):
            assert_same_bits(ours, ref)

    def test_first_piece_walks_left_first(self):
        def never(*_):
            return False

        def at_full_depth(_lo, _hi, depth):
            return depth == 0

        # nothing clears a constant: the first piece at depth 4 is [0, 1/16]
        lo, hi, b = dop853.first_piece(np.ones(8), 0.0, 1.0, never, at_full_depth)
        assert (lo, hi) == (0.0, 0.0625) and np.array_equal(b, np.ones(8))
        # s^7 clears a piece whose largest coefficient, hi^7, is below 1/2;
        # hi >= 2^(-1/7) = 0.906 first on [0.875, 0.9375]
        lo, hi, b = dop853.first_piece(np.eye(8)[7], 0.0, 1.0,
                                       lambda c, *_: c.max() < 0.5, at_full_depth)
        assert (lo, hi) == (0.875, 0.9375)
        assert b[0] == pytest.approx(lo**7) and b[-1] == pytest.approx(hi**7)
        # a piece is taken before it is halved, and at depth 0 as well
        assert dop853.first_piece(np.ones(8), 0.0, 1.0, never,
                                  lambda _lo, hi, _depth: hi <= 0.5)[:2] == (0.0, 0.5)
        assert dop853.first_piece(np.ones(8), 0.0, 1.0, never, never) is None
        assert dop853.first_piece(np.ones(8), 0.0, 1.0, lambda *_: True, at_full_depth) is None


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(max(10.0 ** e, lo), hi))


def _fields(tau0, x0):
    """Both fields the library solves, (fun, y0), started for the label tau0 at x0."""
    psi0, tau_start, tau_slope = series_start(tau0, x0)
    return ((continuum.rhs, (psi0, tau_start)),
            (continuum._rhs_pencil, (psi0, tau_start, tau_slope, 0.0, 0.0)))


def recorded_solve(field, x0, y0, tol):
    """The dense output of continuum._solve(field, x0, y0, tol, x0), or the
    StepFailure it raises, and every step attempt it made, as (t, h, y, f,
    attempt's result)."""
    attempts = []
    attempt, dense = dop853.kernels(field)

    def recording(*args):
        out = attempt(*args)
        attempts.append(args[:4] + (out,))
        return out

    with mock.patch.object(dop853, "kernels", lambda field: (recording, dense)):
        try:
            dense, _, _ = continuum._solve(field, x0, y0, tol, x0)
        except StepFailure as exc:
            dense = exc
    return dense, attempts


#: The kernel and scipy's numpy DOP853 sum the same terms in another order
#: and grouping, so each compared number may differ by this many eps times
#: the magnitude of the terms it sums.  Measured on 800 solves of both
#: fields: at most 9.6 (y_new), 6.9 (h*f_new) and 15 (dense rows).
ROUNDING = 50 * EPS


def assert_replays(fun, x0, y0, tol, attempts, F):
    """Every recorded step attempt, replayed by scipy's rk_step from the
    kernel's own (t, y, f, h), agrees with it to ROUNDING.

    Compared, on attempts whose stages, y_new and both error norms are
    finite: the accept decision, where scipy's error norm is more than 1e-3
    from 1, and on accepted steps y_new, f_new and, when the solve returned
    its interpolant rows F, the dense rows of scipy's _dense_output_impl.
    Where a sum overflows (steps near the smallest floats), its order
    decides between inf, NaN and a finite value.

    The magnitude of y_new is |y| + |h| (|B|.|K|).  f_new is compared as
    h*f_new, the increment it makes, on that magnitude: it moves with y_new
    by the field's Jacobian, which the step's stability keeps below a few
    1/|h|.  A dense row h*D.K reads every stage, and each carries the
    rounding of its own stage state, so its magnitude is
    |D|.(|h K| + that of y_new).
    """
    solver = DOP853(fun, x0, np.array(y0, dtype=float), 1.0, rtol=tol, atol=tol,
                    first_step=x0)
    accepted = 0
    for t, h, y, f, (error_norm, y_new, f_new, K) in attempts:
        y, f = np.array(y), np.array(f)
        y_ref, f_ref = rk_step(solver.fun, t, y, f, h, solver.A, solver.B, solver.C,
                               solver.K)
        ref_norm = solver._estimate_error_norm(
            solver.K, h, tol + np.maximum(np.abs(y), np.abs(y_ref)) * tol)
        finite = np.all(np.isfinite(K + y_new + (error_norm, ref_norm)))
        if finite and abs(ref_norm - 1) > 1e-3:
            assert (error_norm < 1) == (ref_norm < 1), (t, h, error_norm, ref_norm)
        if error_norm < 1:
            accepted += 1
        if not (finite and error_norm < 1):
            continue
        K = np.array(K).reshape(dop853.n_stages + 1, -1)
        mag = np.abs(y) + abs(h) * (np.abs(dop853.B) @ np.abs(K[:-1]))
        assert np.all(np.abs(np.array(y_new) - y_ref) <= ROUNDING * mag), (t, h)
        assert np.all(abs(h) * np.abs(np.array(f_new) - f_ref) <= ROUNDING * mag), (t, h)
        if F is None:
            continue
        solver.t_old, solver.t, solver.h_previous = t, t + h, h
        solver.y_old, solver.y, solver.f = y, y_ref, f_ref
        F_ref = solver._dense_output_impl().F[::-1]
        stage_mag = abs(h) * np.abs(solver.K_extended) + mag
        mag_F = np.concatenate([np.abs(dop853.D[::-1]) @ stage_mag, np.tile(mag, (3, 1))])
        assert np.all(np.abs(F[accepted - 1] - F_ref) <= ROUNDING * mag_F), (t, h)
    assert F is None or accepted == len(F)


class TestStepper:
    """continuum._solve is DOP853 in plain IEEE arithmetic.

    Every step attempt is replayed through scipy's rk_step and error norm
    from the kernel's own state and checked to rounding (assert_replays):
    one B weight changed by 1e-9 of itself, or two dense-output stages
    swapped, fails it.  The whole solve is checked against solve_ivp to a bound
    derived from tol, since rounding moves the grid: the kernel's sums run
    in another order than numpy's BLAS calls, whose rounding depends on the
    kernel OpenBLAS picks for the CPU.
    """

    # at the smallest starts scipy's own numpy arithmetic overflows (its
    # stage sums) and divides inf by inf (its error norm)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning:scipy")
    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 10.0),
           st.floats(0.0, X0_MAX, exclude_min=True) | _log_uniform(1e-9, X0_MAX),
           _log_uniform(1e-13, 1e-8))
    def test_matches_scipy(self, tau0, x0, tol):
        for fun, y0 in _fields(tau0, x0):
            try:
                ref = scipy_solve(fun, x0, y0, tol, x0)
            except ValueError:
                # a subnormal x0 overflows scipy's stage sums, and its psi
                # reaches math.sin as inf; the kernel's sums may stay finite
                # and end in StepFailure instead
                with pytest.raises((ValueError, StepFailure)):
                    continuum._solve(fun, x0, y0, tol, x0)
                continue
            dense, attempts = recorded_solve(fun, x0, y0, tol)
            failed = isinstance(dense, StepFailure)
            assert_replays(fun, x0, y0, tol, attempts, None if failed else dense.F)
            if ref.status == -1:
                assert failed and str(dense) == ref.message
                continue
            assert not failed, dense
            # rounding alone separates the two solves: they agree to a few
            # tol (measured at most 23 tol (1 + |y|) on 3000 solves), and
            # the step-size feedback drifts the step count by at most 3 of
            # 157 there
            steps, ref_steps = len(dense.ts) - 1, len(ref.t) - 1
            assert abs(steps - ref_steps) <= 2 + 0.02 * ref_steps
            assert dense.ts[0] == ref.t[0] and dense.ts[-1] == ref.t[-1] == 1.0
            xs = np.linspace(x0, 1.0, 101)
            assert np.all(np.abs(dense(xs) - ref.sol(xs))
                          <= 200 * tol * (1 + np.abs(ref.sol(xs))))

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.05, 10.0), _log_uniform(1e-9, X0_MAX), _log_uniform(1e-13, 1e-6))
    def test_inlined_field_is_the_callable(self, tau0, x0, tol):
        # the kernels inline the field's source: every attempt's last stage
        # is the field called at (t + h, y_new), to the last bit
        for field, y0 in _fields(tau0, x0):
            _, attempts = recorded_solve(field, x0, y0, tol)
            assert attempts
            for t, h, y, f, (_, y_new, f_new, K) in attempts:
                assert_same_bits(f_new, field(t + h, y_new))
                assert_same_bits(K[:len(y)], f)

    def test_field_source_form(self):
        assert continuum.rhs(0.25, np.array([1.0, 2.0])) == continuum.rhs(0.25, (1.0, 2.0))
        for state, source in [(("a",), "return a, a"), (("a",), "b = a"),
                              (("_a",), "return (_a,)"), (("a",), "_b = a\nreturn (_b,)")]:
            with pytest.raises(ValueError):
                dop853.kernels(dop853.Field(state, source))

    def test_tableau_literals_are_scipys(self):
        # the stepper's tableau is written out in dop853; scipy is the oracle
        DOP853 = pytest.importorskip("scipy.integrate").DOP853
        for name in ("A", "C", "B", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
            ours, theirs = getattr(dop853, name), getattr(DOP853, name)
            assert ours.shape == theirs.shape, name
            assert np.array_equal(ours, theirs), name
        assert dop853.n_stages == DOP853.n_stages
        assert dop853.error_estimator_order == DOP853.error_estimator_order

    def test_step_failure(self):
        # NaN past x = 0.5 rejects every step there until the step size
        # falls below the spacing of floats: scipy's status -1
        fun = dop853.Field(("a", "b"), "return (1.0 if x < 0.5 else math.nan, a)")

        ref = scipy_solve(fun, 0.0, (1.0, 2.0), ODE_TOL, 1e-3)
        assert ref.status == -1
        assert ref.message == continuum.TOO_SMALL_STEP
        with pytest.raises(StepFailure, match=continuum.TOO_SMALL_STEP):
            continuum._solve(fun, 0.0, (1.0, 2.0), ODE_TOL, 1e-3)

    def test_tolerance_floor(self):
        # scipy would raise such a tol to 100 eps with a warning
        assert TOL_FLOOR == 100.0 * np.finfo(float).eps
        with pytest.raises(ValueError, match="below the floor"):
            integrate(1.648, tol=1e-15)
        with pytest.raises(ValueError, match="below the floor"):
            integrate_pencil(1.648, tol=math.nextafter(TOL_FLOOR, 0.0))

    def test_work_counters(self, sol_star):
        # 1 start evaluation (the first step is given, so no initial-step
        # probe), 12 per step attempt and 3 dense-output stages per accepted step
        assert sol_star.n_rhs == 1 + 12 * (sol_star.n_steps + sol_star.n_rejected) \
            + 3 * sol_star.n_steps
        pencil = integrate_pencil(1.649)
        assert pencil.n_rhs == 1 + 15 * pencil.n_steps + 12 * pencil.n_rejected
        assert "n_rhs" not in sol_star.metadata()

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 10.0),
           st.floats(sys.float_info.min, X0_MAX) | _log_uniform(sys.float_info.min, X0_MAX),
           st.floats(TOL_FLOOR, 1.0) | _log_uniform(TOL_FLOOR, 1.0))
    def test_no_float_exception_escapes(self, tau0, x0, tol):
        # Python floats raise where numpy returns inf or NaN (a zero
        # division, an overflowing power, a math domain error): every solve
        # of either field returns or raises StepFailure
        for fun, y0 in _fields(tau0, x0):
            try:
                dense, _, _ = continuum._solve(fun, x0, y0, tol, x0)
            except StepFailure:
                continue
            assert dense.ts[-1] == 1.0


class TestPsiGuard:
    """psi outside (PSI_GUARD, pi - PSI_GUARD) after a step raises StepFailure.

    psi's equation involves neither tau nor the label, so whether a solve
    leaves the band depends on x0 and tol alone; the library's own field
    stays inside it at every start and tolerance that real runs use.
    """

    @pytest.mark.parametrize("fun, y0", [
        # drives y[0] down through the guard near x = 0.4
        (dop853.Field(("p", "q"), "return (-(2.0 + q * q), math.cos(3.0 * x) * p)"),
         (1.0, 0.2)),
        # on the guard from the start: the first step already fails
        (dop853.Field(("p", "q"), "return (0.0, 1.0)"), (continuum.PSI_GUARD, 0.0)),
        (dop853.Field(("p", "q"), "return (-1.0, 1.0)"), (continuum.PSI_GUARD + 0.5, 0.0)),
        # the upper edge of the band
        (dop853.Field(("p", "q"), "return (4.0, 1.0)"), (PI - 1.0, 0.0)),
    ], ids=["toy-dive", "starts-on-guard", "linear-dive", "upper-edge"])
    def test_leaving_the_band_raises(self, fun, y0):
        with pytest.raises(StepFailure, match=r"^psi = \S+ at x = \S+ left the guard band"):
            continuum._solve(fun, 0.0, y0, ODE_TOL, 1e-3)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 10.0), _log_uniform(1e-12, X0_MAX),
           _log_uniform(TOL_FLOOR, 1e-6))
    def test_band_holds_at_every_start_and_tolerance(self, tau0, x0, tol):
        # 20 dense reads per step lie inside the band, and inside each
        # step's Bernstein enclosure, which is the interpolant itself
        # written in another basis
        sol = integrate(tau0, x0=x0, tol=tol)
        assert sol.x_end == 1.0
        s = np.linspace(0.0, 1.0, 21)
        xs = sol.grid[:-1, None] + s * np.diff(sol.grid)[:, None]
        psi = sol.values(xs)[0]
        assert np.all(psi > continuum.PSI_GUARD)
        assert np.all(psi < PI - continuum.PSI_GUARD)
        dense = sol._dense
        bern = dense.bernstein(0)
        basis = np.array([[math.comb(7, i) * v**i * (1 - v)**(7 - i) for i in range(8)]
                          for v in ((xs - dense.t_old[:, None]) / dense.h[:, None]).ravel()])
        bern_psi = np.sum(basis.reshape(*xs.shape, 8) * bern[:, None, :], axis=2)
        assert np.all(np.abs(bern_psi - psi) <= 1e-13)
        assert np.all(bern.min(axis=1) > continuum.PSI_GUARD)
        assert np.all(bern.max(axis=1) < PI - continuum.PSI_GUARD)

    @staticmethod
    def check_one_step(a):
        """_check_psi_band on one step [0, 1] where psi = 1 - a*s*(1 - s):
        F's row 5 multiplies s*(1 - s); psi is 1 at both nodes."""
        F = np.zeros((1, 7, 1))
        F[0, 5, 0] = -a
        continuum._check_psi_band(dop853.StackedDense([0.0, 1.0], [[1.0]], F))

    def test_dip_between_nodes_raises(self):
        # psi(1/2) = 1 - 4.8/4 = -0.2, and psi < PSI_GUARD on (0.295, 0.705):
        # the first piece of width 1/16 that leaves the band is [0.25, 0.3125]
        with pytest.raises(StepFailure, match=r"^psi on x in \[0\.25, 0\.3125\] is enclosed"):
            self.check_one_step(4.8)

    def test_loose_enclosure_is_split_before_it_fails(self):
        # psi >= 1 - 3.8/4 = 0.05, but s*(1 - s)'s degree-7 Bernstein
        # coefficients reach 2/7, so the enclosure of the whole step
        # reaches 1 - 3.8*2/7 < 0; the halves of the halves are tighter
        F_psi = np.zeros((1, 8))
        F_psi[0, 5], F_psi[0, 7] = -3.8, 1.0
        assert (F_psi @ dop853.BERNSTEIN).min() < continuum.PSI_GUARD
        self.check_one_step(3.8)

    def test_coarse_pencil_leaves_the_band_between_nodes(self):
        # at x0 = 3e-6 and tol 0.3 every node psi of the window pencil lies
        # inside the band, while its dense psi dips below it near x = 0.87
        with pytest.raises(StepFailure, match="^psi on x in"):
            integrate_pencil(1.6497, x0=3e-6, tol=0.3)


def full_self_check_init(tau0):
    """self_check_init with both solves run on to x = 1: its oracle."""
    sol_a, sol_b = (integrate(tau0, x0=x0, tol=continuum.SELF_CHECK_TOL)
                    for x0 in continuum.SELF_CHECK_STARTS)
    gap = 0.0
    for x in (0.1, 0.5, 0.8):
        va, vb = sol_a.values(x), sol_b.values(x)
        gap = max(gap, float(abs(va[0] - vb[0]) + abs(va[1] - vb[1])))
    return gap


class TestSelfCheck:
    def test_two_start_gap_window(self):
        assert self_check_init(1.647) <= 1e-9
        assert self_check_init(1.6525) <= 1e-9

    @pytest.mark.parametrize("tau0", [1.64697, PUBLISHED_TAU0, 1.648, 1.6497, 1.651, 1.6525, 2.0])
    def test_stopped_solves_give_the_full_gap(self, tau0):
        # each solve stops at its first node at or past x = 0.8, and every
        # read lies on steps the full solve shares
        assert self_check_init(tau0) == full_self_check_init(tau0)

    def test_solves_stop_at_the_last_read(self):
        solves = []
        real = continuum.integrate

        def spy(*args, **kwargs):
            solves.append(real(*args, **kwargs))
            return solves[-1]

        with mock.patch.object(continuum, "integrate", spy):
            self_check_init(PUBLISHED_TAU0)
        last = continuum.SELF_CHECK_READS[-1]
        assert len(solves) == 2
        for sol in solves:
            assert sol.grid[-2] < last <= sol.x_end < 1.0


class TestCurve:
    def test_curve_starts_at_tangent_anchor(self, sol_star):
        pt = curve_points(sol_star, [X0_REF])[0]
        assert np.allclose(pt, [1.0, -PUBLISHED_TAU0], atol=1e-5)

    def test_norm_identity(self, sol_star):
        rng = np.random.default_rng(1)
        for x in rng.uniform(X0_REF, 1.0, 100):
            pt = curve_points(sol_star, [x])[0]
            tau = sol_star.point(float(x))[1]
            assert abs(pt @ pt - (1.0 + tau * tau)) <= 1e-10

    def test_first_coordinate_one_at_deployment(self, sol_star):
        from diskinspect.feasibility import deployment_parameter

        xi, _ = deployment_parameter(sol_star)
        assert abs(curve_points(sol_star, [xi])[0][0] - 1.0) <= 1e-7


class TestContinuumLimit:
    @pytest.mark.slow
    def test_chain_interpolants_converge_at_first_order(self, sol_star):
        sup = {}
        for n in (1000, 2000):
            chain = forward_recursion(PUBLISHED_TAU0, n, m=int(0.85 * n))
            grid = np.arange(chain.m + 1) / n
            mask = (grid >= 0.1) & (grid <= 0.8)
            vals = sol_star.values(grid[mask])
            sup[n] = (
                float(np.max(np.abs(chain.y[mask] - vals[0]))),
                float(np.max(np.abs(chain.t[mask] - vals[1]))),
            )
        ratio_psi = sup[1000][0] / sup[2000][0]
        ratio_tau = sup[1000][1] / sup[2000][1]
        assert 1.6 <= ratio_psi <= 2.4
        assert 1.6 <= ratio_tau <= 2.4

    @pytest.mark.slow
    def test_large_chain_matches_ode_at_0p4(self, sol_star):
        n = 1_000_000
        chain = forward_recursion(PUBLISHED_TAU0, n, m=450_000)
        i = 400_000
        psi, tau = sol_star.values(0.4)
        assert abs(chain.y[i] - psi) <= 5e-5
        assert abs(chain.t[i] - tau) <= 5e-5


class TestDumps:
    def test_csv_and_metadata(self, sol_star, tmp_path):
        # the dense output written as trace's solution.csv reads back exactly
        xs = np.linspace(sol_star.x0, sol_star.x_end, 50)
        psi, tau = sol_star.values(xs)
        path = tmp_path / "sol.csv"
        write_csv(path, ("x", "psi", "tau"), zip(xs.tolist(), psi.tolist(), tau.tolist()))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,psi,tau"
        assert len(lines) == 51
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back, np.column_stack([xs, psi, tau]))
        meta = tmp_path / "meta.json"
        write_json(sol_star.metadata(), meta)
        data = json.loads(meta.read_text())
        assert data["tau0"] == PUBLISHED_TAU0
        assert data["rtol"] == data["atol"] == 1e-12
        assert data["n_steps"] == sol_star.n_steps
