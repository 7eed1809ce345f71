import math

import numpy as np
import pytest

from diskinspect import bounds as bounds_mod
from diskinspect.bounds import (
    REFERENCE_UPPER_BOUND,
    THETA_LO,
    _chain_geometry,
    _flat_start,
    _grad_hess,
    _newton,
    analytic_lower_bound,
    analytic_lower_bound_derivative,
    nlp_lower_bound,
    nlp_sweep,
    theta_window,
)
from diskinspect.cli import main
from diskinspect.cost import full_cost_from_partial

PI = math.pi


@pytest.fixture(scope="module")
def warm_sweep():
    """11 angles over [0, 0.52] at k=1000, each started from the one before."""
    return nlp_sweep(0.0, THETA_LO, 11, 1000)


class TestAnalyticBound:
    def test_value_at_window_edge(self):
        assert analytic_lower_bound(1.148) == pytest.approx(3.55348, abs=1e-4)

    def test_derivative_positive_beyond_edge(self):
        for theta in np.linspace(1.148, PI / 2 - 1e-3, 500):
            assert analytic_lower_bound_derivative(float(theta)) > 0.0

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for theta in rng.uniform(0.1, 1.4, 20):
            fd = (
                analytic_lower_bound(theta + h) - analytic_lower_bound(theta - h)
            ) / (2.0 * h)
            closed = analytic_lower_bound_derivative(theta)
            assert abs(fd - closed) / abs(closed) <= 1e-6

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            analytic_lower_bound(PI / 2)


class TestNlpLowerBound:
    def test_certificates_at_window_edge(self):
        sol = nlp_lower_bound(THETA_LO, 1000)
        assert sol.kkt_residual <= 1e-8
        assert sol.stationarity_gap <= 1e-9
        assert np.all(sol.t >= 0.0)
        assert sol.t[-1] == math.tan(THETA_LO)
        assert sol.composed_bound == full_cost_from_partial(THETA_LO, sol.objective)

    def test_k1000_value_certified(self):
        # 3.5536376 certified by an independent interior-point SOCP solve;
        # the published 3.5512215 corresponds to half this resolution
        sol = nlp_lower_bound(THETA_LO, 1000)
        assert sol.composed_bound == pytest.approx(3.5536376, abs=1e-3)

    def test_published_value_at_half_resolution(self):
        sol = nlp_lower_bound(THETA_LO, 500)
        assert sol.composed_bound == pytest.approx(3.5512215, abs=1e-3)

    def test_margin_over_reference_bound(self):
        sol = nlp_lower_bound(THETA_LO, 1000)
        assert sol.composed_bound - REFERENCE_UPPER_BOUND >= 2e-4

    def test_discretization_drift_500_to_1000(self):
        a = nlp_lower_bound(THETA_LO, 500).composed_bound
        b = nlp_lower_bound(THETA_LO, 1000).composed_bound
        assert abs(a - b) <= 5e-3

    def test_matches_brute_force_small_instance(self):
        # convex: coordinate descent from random starts agrees
        theta, k = 0.6, 6
        sol = nlp_lower_bound(theta, k)
        idx = np.arange(k + 1)
        phi = 2.0 * PI - (PI - theta) * 2.0 * idx / k
        w = (np.arange(1, k + 1) - 1.0) / k

        def cost(tv):
            ax = np.cos(phi) + tv * np.sin(phi)
            ay = np.sin(phi) - tv * np.cos(phi)
            return float(np.dot(w, np.hypot(np.diff(ax), np.diff(ay))))

        gr = (math.sqrt(5.0) - 1.0) / 2.0

        def golden(f, a, b, tol=1e-13):
            c = b - gr * (b - a)
            d = a + gr * (b - a)
            fc, fd = f(c), f(d)
            while b - a > tol:
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - gr * (b - a)
                    fc = f(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + gr * (b - a)
                    fd = f(d)
            return 0.5 * (a + b)

        rng = np.random.default_rng(11)
        best = math.inf
        for _ in range(50):
            t = np.concatenate([rng.uniform(0.0, 3.0, k), [math.tan(theta)]])
            cur = cost(t)
            for _ in range(600):
                for j in range(k):
                    def f1(v, j=j):
                        t2 = t.copy()
                        t2[j] = v
                        return cost(t2)
                    t[j] = golden(f1, 0.0, 12.0)
                new = cost(t)
                if cur - new < 1e-15:
                    break
                cur = new
            best = min(best, cur)
        assert sol.objective == pytest.approx(best, abs=1e-7)

    def test_objective_convex_midpoints(self):
        from diskinspect.bounds import _chain_geometry, _objective

        p, u, w = _chain_geometry(THETA_LO, 50)
        tk = math.tan(THETA_LO)
        rng = np.random.default_rng(3)
        for _ in range(100):
            ta = np.concatenate([rng.uniform(0, 3, 50), [tk]])
            tb = np.concatenate([rng.uniform(0, 3, 50), [tk]])
            mid = _objective(0.5 * (ta + tb), p, u, w)
            assert mid <= 0.5 * (_objective(ta, p, u, w) + _objective(tb, p, u, w)) + 1e-12

    @pytest.mark.slow
    def test_sweep_decreasing_and_above_reference(self, bound_sweep):
        sols = bound_sweep
        vals = [s.composed_bound for s in sols]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 3.551 for v in vals)
        assert max(s.kkt_residual for s in sols) <= 1e-8

    @pytest.mark.slow
    def test_certificate_near_its_bound_is_polished(self, bound_sweep):
        # warm-started from theta = 0.005, this angle reached the certified
        # exit at pg = 9.9e-9, just under the bound; one more Newton step
        # takes it to rounding level
        row = min(bound_sweep, key=lambda s: abs(s.theta - 0.01))
        assert row.theta == pytest.approx(0.01, abs=1e-15)
        assert row.kkt_residual <= bounds_mod.PG_CERTIFICATE_TOL / 2

    def test_warm_sweep_matches_cold_solves(self, warm_sweep):
        for sol in warm_sweep:
            cold = _newton(sol.theta, 1000, _flat_start(sol.theta, 1000))
            assert abs(sol.composed_bound - cold.composed_bound) <= 1e-12
            assert sol.kkt_residual <= 1e-8
            assert sol.stationarity_gap <= 1e-9
            assert np.all(sol.t >= 0.0)
            assert sol.t[-1] == math.tan(sol.theta)

    def test_warm_started_angles_take_under_40_iterations(self, warm_sweep):
        assert all(sol.iterations < 40 for sol in warm_sweep[1:])

    @pytest.mark.parametrize("j", [None, *range(100, 1000, 100)])
    def test_restart_from_certified_point(self, j):
        # Nudging t_j by 5e-8/H_jj lifts the projected gradient to about
        # 5e-8, above the 1e-8 certificate, while the objective moves by less
        # than an ulp: the line search must still accept the Newton step
        # that undoes the nudge instead of stalling on rounding noise.
        theta, k = 0.16, 1000
        sol = nlp_lower_bound(theta, k)
        start = sol.t.copy()
        if j is not None:
            p, u, w = _chain_geometry(theta, k)
            start[j] += 5e-8 / _grad_hess(sol.t, p, u, w)[2][j]
        again = nlp_lower_bound(theta, k, start=start)
        assert again.iterations <= 2
        assert again.kkt_residual <= 1e-8
        assert again.stationarity_gap <= 1e-9
        assert abs(again.composed_bound - sol.composed_bound) <= 1e-12

    def test_iterations_count_every_level(self, monkeypatch):
        levels = []

        def newton(theta, k, t):
            sol = _newton(theta, k, t)
            levels.append((k, sol.iterations))
            return sol

        monkeypatch.setattr(bounds_mod, "_newton", newton)
        sol = nlp_lower_bound(THETA_LO, 1000)
        assert [k for k, _ in levels] == [62, 250, 1000]
        assert sol.iterations == sum(n for _, n in levels)

    def test_csv_format(self, tmp_path):
        rc = main(["--out", str(tmp_path), "--format", "csv",
                   "lower-bound", "--theta", "0.5", "--k", "60", "--grid", "2"])
        assert rc == 0
        lines = (tmp_path / "lower_bound_sweep.csv").read_text().splitlines()
        assert lines[0] == "theta,k,objective,composed_bound,kkt_residual"
        assert len(lines) == 3
        sol = nlp_sweep(0.0, 0.5, 2, 60)[1]
        assert lines[2].split(",")[:4] == [
            "0.5", "60", repr(sol.objective), repr(sol.composed_bound)
        ]


class TestThetaWindow:
    def test_window_and_margins(self):
        report = theta_window(k=1000)
        assert report["theta_lo"] == 0.52
        assert report["theta_hi"] == 1.148
        assert report["margins"]["at_hi"] == pytest.approx(0.00258, abs=5e-5)
        assert report["margins"]["at_lo"] > 0.0
