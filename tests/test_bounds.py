import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from diskinspect import bounds as bounds_mod
from diskinspect.bounds import (
    REFERENCE_UPPER_BOUND,
    THETA_LO,
    analytic_lower_bound,
    analytic_lower_bound_derivative,
    chain_lengths_and_gradient,
    nlp_lower_bound,
    nlp_sweep,
    theta_window,
)
from diskinspect.cli import main
from diskinspect.cost import full_cost_from_partial
from diskinspect.errors import AngleDomain, CostDiverges, DiskInspectError, WindowViolated
from diskinspect.refraction import anchored_chain

from chain_oracle import anchored_chain_reference, chain_geometry, nlp_reference

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


def _workload_examples(test):
    """The benchmark's 11-angle sweep at k = 1000 (its last angle is
    angle-bounds' 0.52), and both sides of the angle pass's edge at theta = 0."""
    for theta in np.linspace(0.0, THETA_LO, 11):
        test = example(float(theta), 1000)(test)
    return example(0.0, 19)(example(0.0, 18)(test))


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
        p, _, w = chain_geometry(theta, k)
        cos, sin = p[:, 0].tolist(), p[:, 1].tolist()

        def objective(t):
            return float(np.dot(w, chain_lengths_and_gradient(theta, t, w)[0]))

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
            cur = objective(t)
            for _ in range(600):
                for j in range(k):
                    tl = t.tolist()
                    t[j] = golden(lambda v: near(tl, j, v), 0.0, 12.0)
                new = objective(t)
                if cur - new < 1e-15:
                    break
                cur = new
            best = min(best, cur)
        assert sol.objective == pytest.approx(best, abs=1e-7)

    def test_objective_convex_midpoints(self):
        w = (np.arange(1, 51) - 1.0) / 50

        def objective(t):
            return float(np.dot(w, chain_lengths_and_gradient(THETA_LO, t, w)[0]))

        tk = math.tan(THETA_LO)
        rng = np.random.default_rng(3)
        for _ in range(100):
            ta = np.concatenate([rng.uniform(0, 3, 50), [tk]])
            tb = np.concatenate([rng.uniform(0, 3, 50), [tk]])
            mid = objective(0.5 * (ta + tb))
            assert mid <= 0.5 * (objective(ta) + objective(tb)) + 1e-12

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
        anchored = bounds_mod.anchored_pass

        def perturbed(theta, k, m):
            alpha, xs, ys, ts = anchored(theta, k, m)
            ts[m // 2] += 1e-6
            return alpha, xs, ys, ts

        monkeypatch.setattr(bounds_mod, "anchored_pass", perturbed)
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
        except CostDiverges:
            # within about 1.5e-8 of pi/2, where 1 - sin(theta) rounds to 0
            assert math.sin(theta) == 1.0
            return
        assert sol.t[-1] == math.tan(theta)
        assert np.all(sol.t >= 0.0)
        # the gradient reads unit vectors off differences of points of size
        # about 1, so it cannot resolve below about eps/d for the shortest
        # segment d; that floor passes 1e-12 only near theta = 0 at k in the
        # thousands, where the last segments shrink to about 5e-5
        w = (np.arange(1, k + 1) - 1.0) / k
        d_min = float(np.min(chain_lengths_and_gradient(theta, sol.t, w)[0]))
        assert sol.kkt_residual <= max(1e-12, 64.0 * EPS / d_min)

    @given(st.floats(0.0, PI / 2, exclude_max=True), st.integers(5, 3000))
    @_workload_examples
    def test_matches_the_stacked_formulation(self, theta, k):
        # bit for bit against the chain arrays and the (k+1, 2) stacks the
        # bound was first computed with, so no artifact moves
        try:
            t, objective, pg, composed = nlp_reference(theta, k)
        except (AngleDomain, CostDiverges, WindowViolated) as exc:
            with pytest.raises(DiskInspectError) as err:
                nlp_lower_bound(theta, k)
            assert err.type is type(exc)
        else:
            sol = nlp_lower_bound(theta, k)
            assert np.array_equal(sol.t, t)
            assert (sol.objective, sol.kkt_residual, sol.composed_bound) == (
                objective, pg, composed)
        try:
            arrays = anchored_chain_reference(theta, k, k)
        except AngleDomain:
            with pytest.raises(AngleDomain):
                anchored_chain(theta, k, k)
        else:
            chain = anchored_chain(theta, k, k)
            for got, want in zip((chain.x, chain.y, chain.t, chain.d), arrays):
                assert np.array_equal(got, want, equal_nan=True)
            assert chain.tau0 == arrays[2][0]

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
