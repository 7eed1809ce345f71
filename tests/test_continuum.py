import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import OdeSolution, solve_ivp

from diskinspect import continuum
from diskinspect.artifacts import write_csv, write_json
from diskinspect.continuum import (
    ODE_TOL,
    TOL_FLOOR,
    X0_MAX,
    X0_REF,
    SeriesInit,
    curve_points,
    integrate,
    integrate_pencil,
    self_check_init,
    tau_center_from_label,
    tau_series_from_center,
)
from diskinspect.errors import OutOfRange, StepFailure
from diskinspect.refraction import forward_recursion

from conftest import PUBLISHED_TAU0

PI = math.pi


class TestSeriesInit:
    def test_reference_start_is_flat(self):
        init = SeriesInit.for_label(1.647)
        assert init.tau_start == 1.647
        assert init.psi0 == PI / 2 - PI * X0_REF + (PI**2 / 2) * X0_REF**2

    def test_label_transport_round_trip(self):
        tau_c = tau_center_from_label(1.647)
        assert tau_series_from_center(tau_c, X0_REF) == pytest.approx(1.647, abs=1e-15)

    def test_transport_matches_integration(self):
        # integrating the transported start from 1e-7 back to 1e-6 recovers
        # the flat label value
        sol = integrate(1.647, x0=1e-7, tol=1e-13)
        assert sol.tau_at(1e-6) == pytest.approx(1.647, abs=1e-11)

    def test_rejects_large_x0(self):
        with pytest.raises(ValueError):
            SeriesInit.for_label(1.647, x0=1e-4)


class TestIntegrate:
    def test_start_values(self, sol_star):
        assert sol_star.psi_at(X0_REF) == pytest.approx(
            PI / 2 - PI * X0_REF + (PI**2 / 2) * X0_REF**2, abs=1e-15
        )
        # tau0 labels the value AT the reference start (flat initialization)
        assert sol_star.tau_at(X0_REF) == pytest.approx(PUBLISHED_TAU0, abs=1e-14)

    def test_psi_asymptote_near_zero(self, sol_star):
        x = 1e-4
        assert abs(sol_star.psi_at(x) - (PI / 2 - PI * x)) <= 1e-6

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
        assert abs(s10.psi_at(0.8) - s12.psi_at(0.8)) <= 1e-8
        assert abs(s10.tau_at(0.8) - s12.tau_at(0.8)) <= 5e-6

    def test_invalid_tau0(self):
        with pytest.raises(ValueError):
            integrate(-1.0)

    def test_out_of_range(self, sol_star):
        with pytest.raises(OutOfRange):
            sol_star.psi_at(1.5)
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
            sol_star.tau_at(math.nan)

    def test_pencil_nan_is_out_of_range(self):
        pencil = integrate_pencil(1.649)
        for x in (math.nan, [math.nan], np.array([[0.5], [math.nan]])):
            with pytest.raises(OutOfRange):
                pencil.columns(x)
        with pytest.raises(OutOfRange):
            pencil.state(np.array([0.3, math.nan]), 1.649)

    def test_psi_stays_inside_band(self, sol_star):
        assert np.all(sol_star.psi > 0.0)
        assert np.all(sol_star.psi < PI)

    def test_grid_strictly_increasing(self, sol_star):
        assert np.all(np.diff(sol_star.grid) > 0)


def assert_same_bits(ours, ref):
    """Equal shapes and equal float64 bit patterns (so -0.0 != 0.0)."""
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    assert ours.shape == ref.shape
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


def scipy_solve(fun, x0, y0, tol):
    """scipy's solve_ivp for the solve continuum._solve makes: the bit-for-bit oracle."""
    return solve_ivp(fun, (x0, 1.0), y0, method="DOP853", rtol=tol, atol=tol,
                     dense_output=True)


def _reference(fun, y0):
    """scipy's own OdeSolution for the same solve the library makes."""
    return scipy_solve(fun, X0_REF, y0, ODE_TOL).sol


def stacked(ode_solution):
    """scipy's OdeSolution as the arrays of a continuum.StackedDense."""
    pieces = ode_solution.interpolants
    return continuum.StackedDense(ode_solution.ts, [p.y_old for p in pieces],
                                  [p.F[::-1] for p in pieces])


def assert_same_run(run, ref):
    """continuum._solve's run equals scipy's solve_ivp result to the last bit."""
    assert ref.status == 0
    assert_same_bits(run.dense.ts, ref.t)
    assert_same_bits(run.y, ref.y)
    pieces = ref.sol.interpolants
    # t_old and h are derived from the grid; scipy's come from its steps
    assert_same_bits(run.dense.t_old, [p.t_old for p in pieces])
    assert_same_bits(run.dense.h, [p.h for p in pieces])
    oracle = stacked(ref.sol)
    for name in ("y_old", "F"):
        assert_same_bits(getattr(run.dense, name), getattr(oracle, name))
    assert run.n_rhs == ref.nfev


class TestStackedDense:
    """The stacked evaluator is read against scipy's OdeSolution with ==:
    it repeats scipy's arithmetic, so not even the last bit may differ."""

    @pytest.fixture(scope="class")
    def solved(self):
        init = SeriesInit.for_label(1.648)
        return integrate(1.648), _reference(continuum.rhs, (init.psi0, init.tau_start))

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

    def test_hand_made_segments(self, solved):
        # real solves agree across every step boundary to the last bit, so
        # a wrong tie-break would not show there: these segments read 1.0
        # from the left of x = 1 and 5.0 from its right.  The third one is
        # all -0.0, which scipy's sum from zeros turns into +0.0.
        dop853 = type(solved[1].interpolants[0])
        f = np.zeros((7, 1))
        f[0] = 1.0
        ref = OdeSolution([0.0, 1.0, 2.0, 3.0], [
            dop853(0.0, 1.0, np.array([0.0]), f),
            dop853(1.0, 2.0, np.array([5.0]), np.zeros((7, 1))),
            dop853(2.0, 3.0, np.array([-0.0]), np.full((7, 1), -0.0)),
        ])
        dense = stacked(ref)
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
        init = SeriesInit.for_label(1.649)
        ref = _reference(continuum._rhs_pencil,
                         (init.psi0, init.tau_start, init.tau_slope, 0.0, 0.0))
        rng = np.random.default_rng(8)
        xs = np.concatenate([rng.uniform(pencil.x0, pencil.x_end, 3000), pencil.grid])
        assert_same_bits(pencil.columns(xs), ref(xs))
        assert_same_bits(pencil.columns(xs[:30, None]), ref(xs[:30]).reshape(5, 30, 1))
        for x in xs[:300].tolist():
            assert_same_bits(pencil.columns(x), ref(x))
            assert_same_bits(pencil.columns(np.array([x])), ref(np.array([x])))
        assert pencil.columns(np.empty((0, 3))).shape == (5, 0, 3)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(max(10.0 ** e, lo), hi))


class TestStepper:
    """continuum._solve repeats scipy's solve_ivp(method="DOP853") exactly.

    A scipy release that changes DOP853's arithmetic fails these tests by
    design: the stepper would then no longer be the solver it claims to be.
    """

    @settings(max_examples=30)
    @given(st.floats(0.05, 10.0),
           st.floats(0.0, X0_MAX, exclude_min=True) | _log_uniform(1e-9, X0_MAX),
           _log_uniform(1e-13, 1e-8))
    def test_matches_scipy(self, tau0, x0, tol):
        init = SeriesInit.for_label(tau0, x0)
        for fun, y0 in ((continuum.rhs, (init.psi0, init.tau_start)),
                        (continuum._rhs_pencil,
                         (init.psi0, init.tau_start, init.tau_slope, 0.0, 0.0))):
            try:
                ref = scipy_solve(fun, x0, y0, tol)
            except ValueError as exc:  # a subnormal x0 drives psi to inf
                with pytest.raises(type(exc), match=str(exc)):
                    continuum._solve(fun, x0, y0, tol)
                continue
            if ref.status == -1:
                with pytest.raises(StepFailure, match=ref.message):
                    continuum._solve(fun, x0, y0, tol)
            else:
                assert_same_run(continuum._solve(fun, x0, y0, tol), ref)

    def test_step_failure(self):
        # NaN past x = 0.5 rejects every step there until the step size
        # falls below the spacing of floats: scipy's status -1
        def fun(x, y):
            return (1.0 if x < 0.5 else math.nan, y[0])

        ref = scipy_solve(fun, 0.0, (1.0, 2.0), ODE_TOL)
        assert ref.status == -1
        assert ref.message == continuum.TOO_SMALL_STEP
        with pytest.raises(StepFailure, match=continuum.TOO_SMALL_STEP):
            continuum._solve(fun, 0.0, (1.0, 2.0), ODE_TOL)

    def test_tolerance_floor(self):
        # scipy would raise such a tol to 100 eps with a warning
        assert TOL_FLOOR == 100.0 * np.finfo(float).eps
        with pytest.raises(ValueError, match="below the floor"):
            integrate(1.648, tol=1e-15)
        with pytest.raises(ValueError, match="below the floor"):
            integrate_pencil(1.648, tol=math.nextafter(TOL_FLOOR, 0.0))

    def test_work_counters(self, sol_star):
        init = SeriesInit.for_label(sol_star.tau0)
        ref = scipy_solve(continuum.rhs, X0_REF, (init.psi0, init.tau_start), ODE_TOL)
        assert sol_star.n_steps == len(ref.t) - 1
        assert sol_star.n_rhs == ref.nfev
        # 2 start evaluations, 12 per step attempt and 3 dense-output
        # stages per accepted step
        assert sol_star.n_rhs == 2 + 12 * (sol_star.n_steps + sol_star.n_rejected) \
            + 3 * sol_star.n_steps
        pencil = integrate_pencil(1.649)
        assert pencil.n_rhs == 2 + 15 * pencil.n_steps + 12 * pencil.n_rejected
        assert "n_rhs" not in sol_star.metadata()


class TestPsiGuard:
    """psi outside (PSI_GUARD, pi - PSI_GUARD) after a step raises StepFailure.

    psi's equation involves neither tau nor the label, so whether a solve
    leaves the band depends on x0 and tol alone; the library's own field
    stays inside it at every start and tolerance that real runs use.
    """

    @pytest.mark.parametrize("fun, y0", [
        # drives y[0] down through the guard near x = 0.4
        (lambda x, y: (-(2.0 + y[1] * y[1]), math.cos(3.0 * x) * y[0]), (1.0, 0.2)),
        # on the guard from the start: the first step already fails
        (lambda x, y: (0.0, 1.0), (continuum.PSI_GUARD, 0.0)),
        (lambda x, y: (-1.0, 1.0), (continuum.PSI_GUARD + 0.5, 0.0)),
        # the upper edge of the band
        (lambda x, y: (4.0, 1.0), (PI - 1.0, 0.0)),
    ], ids=["toy-dive", "starts-on-guard", "linear-dive", "upper-edge"])
    def test_leaving_the_band_raises(self, fun, y0):
        with pytest.raises(StepFailure, match=r"^psi = \S+ at x = \S+ left the guard band"):
            continuum._solve(fun, 0.0, y0, ODE_TOL)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 10.0), _log_uniform(1e-12, X0_MAX),
           _log_uniform(TOL_FLOOR, 1e-6))
    def test_band_holds_at_every_start_and_tolerance(self, tau0, x0, tol):
        # the check sees psi at the step nodes only; 20 dense reads per
        # step rule out a dip past the guard that returns within one step
        sol = integrate(tau0, x0=x0, tol=tol)
        assert sol.x_end == 1.0
        t = np.linspace(0.0, 1.0, 21)
        xs = (sol.grid[:-1, None] + t * np.diff(sol.grid)[:, None]).ravel()
        psi = sol.values(xs)[0]
        assert np.all(psi > continuum.PSI_GUARD)
        assert np.all(psi < PI - continuum.PSI_GUARD)


class TestSelfCheck:
    def test_two_start_gap_window(self):
        assert self_check_init(1.647) <= 1e-9
        assert self_check_init(1.6525) <= 1e-9


class TestCurve:
    def test_curve_starts_at_tangent_anchor(self, sol_star):
        pt = curve_points(sol_star, [X0_REF])[0]
        assert np.allclose(pt, [1.0, -PUBLISHED_TAU0], atol=1e-5)

    def test_norm_identity(self, sol_star):
        rng = np.random.default_rng(1)
        for x in rng.uniform(X0_REF, 1.0, 100):
            pt = curve_points(sol_star, [x])[0]
            tau = sol_star.tau_at(float(x))
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
