import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diskinspect import bounds as bounds_mod
from diskinspect.bounds import (
    REFERENCE_UPPER_BOUND,
    THETA_LO,
    _chain_geometry,
    _objective,
    analytic_lower_bound,
    analytic_lower_bound_derivative,
    nlp_lower_bound,
    nlp_sweep,
    theta_window,
)
from diskinspect.cli import main
from diskinspect.cost import full_cost_from_partial
from diskinspect.errors import AngleDomain, CostDiverges, WindowViolated

PI = math.pi
EPS = float(np.finfo(float).eps)


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
        assert sol.kkt_residual <= 1e-12
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
        # convex: coordinate descent from random starts agrees; k = 12 is the
        # smallest chain whose angle recursion completes at theta = 0.6
        theta, k = 0.6, 12
        sol = nlp_lower_bound(theta, k)
        p, u, w = _chain_geometry(theta, k)
        cos, sin = p[:, 0].tolist(), p[:, 1].tolist()

        def near(t, j, v):
            # the weighted lengths of the two segments at point j, the only
            # terms of the objective that t[j] = v changes (segment i, from
            # point i - 1 to point i, has weight (i - 1)/k)
            x, y = cos[j] + v * sin[j], sin[j] - v * cos[j]
            out = j / k * math.hypot(cos[j + 1] + t[j + 1] * sin[j + 1] - x,
                                     sin[j + 1] - t[j + 1] * cos[j + 1] - y)
            if j > 0:
                out += (j - 1) / k * math.hypot(x - cos[j - 1] - t[j - 1] * sin[j - 1],
                                                y - sin[j - 1] + t[j - 1] * cos[j - 1])
            return out

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
            cur = _objective(t, p, u, w)
            for _ in range(600):
                for j in range(k):
                    tl = t.tolist()
                    t[j] = golden(lambda v: near(tl, j, v), 0.0, 12.0)
                new = _objective(t, p, u, w)
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
        assert max(s.kkt_residual for s in sols) <= 1e-12
        assert all(s.t[-1] == math.tan(s.theta) for s in sols)

    def test_perturbed_chain_fails_the_certificate(self, monkeypatch):
        # nudging one t of the minimizing chain by 1e-6 lifts the projected
        # gradient far above PG_CERTIFICATE_TOL
        anchored = bounds_mod.anchored_chain

        def perturbed(theta, k, m):
            chain = anchored(theta, k, m)
            chain.t[m // 2] += 1e-6
            return chain

        monkeypatch.setattr(bounds_mod, "anchored_chain", perturbed)
        with pytest.raises(WindowViolated, match="fails its certificate"):
            nlp_lower_bound(THETA_LO, 1000)

    @pytest.mark.parametrize("theta", [1.57079632, math.nextafter(PI / 2, 0.0)])
    def test_sin_theta_rounding_to_one_raises(self, theta):
        # below pi/2, yet 1 - sin(theta) rounds to 0 in the composed cost
        with pytest.raises(CostDiverges):
            nlp_lower_bound(theta, 1000)
        with pytest.raises(CostDiverges):
            analytic_lower_bound(theta)

    def test_angle_recursion_boundary_at_theta_zero(self):
        assert nlp_lower_bound(0.0, 19).t[-1] == 0.0
        with pytest.raises(AngleDomain):
            nlp_lower_bound(0.0, 18)

    @given(st.floats(0.0, PI / 2, exclude_max=True), st.integers(5, 3000))
    def test_anchored_and_certified(self, theta, k):
        try:
            sol = nlp_lower_bound(theta, k)
        except AngleDomain:
            return
        assert sol.t[-1] == math.tan(theta)
        assert np.all(sol.t >= 0.0)
        # the gradient reads unit vectors off differences of points of size
        # about 1, so it cannot resolve below about eps/d for the shortest
        # segment d; that floor passes 1e-12 only near theta = 0 at k in the
        # thousands, where the last segments shrink to about 5e-5
        p, u, _ = _chain_geometry(theta, k)
        a = p + sol.t[:, None] * u
        d_min = float(np.min(np.linalg.norm(np.diff(a, axis=0), axis=1)))
        assert sol.kkt_residual <= max(1e-12, 64.0 * EPS / d_min)

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
