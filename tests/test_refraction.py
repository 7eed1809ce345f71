import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diskinspect import refraction
from diskinspect.bounds import chain_lengths_and_gradient
from diskinspect.errors import AngleDomain, TriangleDegenerate
from diskinspect.refraction import (
    DiscreteTrajectory,
    discrete_cost,
    forward_recursion,
    refraction_optimum,
    shoot_theta,
)

from conftest import PUBLISHED_TAU0

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EPS = float(np.finfo(float).eps)


def chain_cost_from_points(points, m):
    d = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return float(np.dot(np.arange(1, m + 1), d)) / (m + 1)


class TestForwardRecursion:
    def test_first_step_angle_exact(self):
        for n in (64, 501, 4096):
            traj = forward_recursion(1.7, n, m=3)
            assert traj.x[1] == math.pi / 2 - traj.alpha

    def test_alpha_times_n(self):
        traj = forward_recursion(1.7, 1000, m=10)
        assert abs(traj.alpha * traj.n - 2.0 * math.pi) <= 1e-14

    def test_snell_residual_every_step(self):
        traj = forward_recursion(PUBLISHED_TAU0, 2000, m=1600)
        i = np.arange(1, traj.m + 1)
        residual = np.cos(traj.x[1:]) / np.cos(traj.y[1:]) - (i + 1) / i
        assert np.max(np.abs(residual)) <= 1e-12

    def test_angle_recursion_telescopes_exactly(self):
        traj = forward_recursion(1.66, 700, m=500)
        assert np.array_equal(traj.x[1:], traj.y[:-1] - traj.alpha)

    def test_sine_law_identity(self):
        traj = forward_recursion(PUBLISHED_TAU0, 1500, m=1200)
        c = math.tan(traj.alpha / 2.0)
        lhs = traj.d[1:] * np.sin(traj.x[1:])
        rhs = (traj.t[:-1] - c) * math.sin(traj.alpha)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_segment_lengths_match_embedding(self):
        traj = forward_recursion(PUBLISHED_TAU0, 800, m=640)
        d_embed = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
        assert np.max(np.abs(d_embed - traj.d[1:])) <= 1e-11

    def test_triangle_degenerate_reports_index(self):
        # tau0 barely above the bound dies quickly, with the index attached
        with pytest.raises(TriangleDegenerate) as err:
            forward_recursion(math.tan(math.pi / 100) + 1e-5, 100, m=100)
        assert err.value.index >= 1

    def test_angle_domain_guard(self):
        # coarse full-circle chains die when y falls below alpha
        with pytest.raises(AngleDomain) as err:
            forward_recursion(1.7, 12, m=12)
        assert 1 <= err.value.index <= 12

    def test_preconditions(self):
        with pytest.raises(ValueError):
            forward_recursion(1.7, 4)
        with pytest.raises(ValueError):
            forward_recursion(1.7, 100, m=101)


class TestShootTheta:
    def test_continuum_consistency_at_k2000(self):
        # anchored chains converge to the published start value at O(1/k);
        # the measured gap at k=2000 is 1.27e-3 (k * gap is ~2.5 across k)
        traj = shoot_theta(0.5909025598581181, 2000)
        assert traj.tau0 == pytest.approx(PUBLISHED_TAU0, abs=2e-3)
        traj_big = shoot_theta(0.5909025598581181, 8000)
        gap_ratio = abs(traj.tau0 - PUBLISHED_TAU0) / abs(traj_big.tau0 - PUBLISHED_TAU0)
        assert gap_ratio == pytest.approx(4.0, rel=0.15)

    def test_theta_zero_lands_on_zero(self):
        traj = shoot_theta(0.0, 40)
        assert traj.t[-1] == 0.0

    def test_anchoring_residual_well_conditioned_range(self):
        for theta, k in ((0.52, 300), (0.8, 150), (1.1, 80)):
            traj = shoot_theta(theta, k)
            assert traj.t[-1] == math.tan(theta)

    def test_endpoint_map_affine_in_tau0(self):
        # the forward map: failed runs form a prefix, the angles do not
        # depend on tau0, and t_k lies on one line of slope q > 0
        theta, k = 0.7, 100
        alpha = 2.0 * (math.pi - theta) / k
        grid = np.linspace(math.tan(alpha / 2) + 1e-6, 10.0, 50)
        runs = []
        for g in grid:
            try:
                runs.append(refraction._run_chain(g, alpha, k))
            except (TriangleDegenerate, AngleDomain):
                runs.append(None)
        done = [r is not None for r in runs]
        first = done.index(True)
        assert all(done[first:]) and not any(done[:first])
        xs, ys, _, _ = runs[first]
        for x, y, _, _ in runs[first:]:
            assert np.array_equal(x, xs, equal_nan=True) and np.array_equal(y, ys)
        q = float(np.prod(np.sin(ys[:-1]) / np.sin(xs[1:])))
        assert q > 0.0
        tk = np.array([r[2][k] for r in runs[first:]])
        line = tk[0] + q * (grid[first:] - grid[first])
        assert np.max(np.abs(tk - line)) <= 1e-13 * np.max(np.abs(tk))

    def test_anchored_chain_shares_the_forward_angles(self):
        # one angle pass for both directions; the backward d_i, written with
        # sin(y_{i-1}), are the embedded segment lengths
        traj = shoot_theta(0.7, 100)
        forward = refraction._run_chain(traj.tau0, traj.alpha, traj.m)
        assert np.array_equal(forward[0], traj.x, equal_nan=True)
        assert np.array_equal(forward[1], traj.y)
        d_embed = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
        assert np.max(np.abs(d_embed - traj.d[1:])) <= 1e-14

    def test_backward_pass_equals_the_plain_loop(self):
        # the sines taken ahead of the backward pass and d_i formed after it
        # as one array expression do the loop's arithmetic, number for number
        for theta in np.linspace(0.0, 1.5, 14).tolist():
            for k in (30, 200, 1000):
                traj = refraction.anchored_chain(theta, k, k)
                alpha = 2.0 * (math.pi - theta) / k
                xs, ys, _ = refraction._angle_pass(alpha, k)
                c = math.tan(alpha / 2.0)
                ts, ds = [0.0] * (k + 1), [math.nan] * (k + 1)
                ts[k] = t = math.tan(theta)
                for i in range(k, 0, -1):
                    sy = math.sin(ys[i - 1])
                    ds[i] = (t + c) * math.sin(alpha) / sy
                    t = ts[i - 1] = (t + c) * math.sin(xs[i]) / sy + c
                assert np.array_equal(traj.x, xs, equal_nan=True)
                assert np.array_equal(traj.y, ys)
                assert np.array_equal(traj.t, ts)
                assert np.array_equal(traj.d, ds, equal_nan=True)
                assert traj.tau0 == t

    def test_too_coarse_chain_raises_angle_domain(self):
        # k=6 at theta=0.6 cannot complete the angle recursion
        with pytest.raises(AngleDomain):
            shoot_theta(0.6, 6)

    def test_angle_recursion_boundary_at_theta_zero(self):
        assert shoot_theta(0.0, 20).t[-1] == 0.0
        with pytest.raises(AngleDomain):
            shoot_theta(0.0, 19)

    @given(st.floats(0.0, math.pi / 2, exclude_max=True), st.integers(5, 3000))
    def test_anchoring_residual_conditioning_limited(self, theta, k):
        # the backward pass contracts, so the residual is zero at any
        # conditioning of the forward map
        try:
            traj = shoot_theta(theta, k)
        except AngleDomain:
            return
        assert traj.t[-1] == math.tan(theta)
        assert np.all(traj.t >= 0.0)
        # stationary for the upper weights i/(k+1), t_0 included: the
        # rounding floor is eps/d for the shortest segment d, as for the
        # lower-bound program
        grad = chain_lengths_and_gradient(theta, traj.t, np.arange(1, k + 1) / (k + 1.0))[1]
        d_min = float(np.min(traj.d[1:]))
        assert np.max(np.abs(grad[:k])) <= max(1e-12, 64.0 * EPS / d_min)

    def test_verify_chains_take_few_runs(self, monkeypatch):
        # the 20 chains of `--seed 1 verify`: one angle pass each
        angle_pass = refraction._angle_pass
        calls = []

        def counted(*args):
            calls.append(args)
            return angle_pass(*args)

        monkeypatch.setattr(refraction, "_angle_pass", counted)
        rng = np.random.default_rng(1)
        for _ in range(20):
            theta = float(rng.uniform(0.45, 1.1))
            k = int(rng.integers(60, 400))
            calls.clear()
            shoot_theta(theta, k)
            assert len(calls) == 1

    def test_local_fermat_optimality(self):
        traj = shoot_theta(0.6, 200)
        base = chain_cost_from_points(traj.points, traj.m)
        rng = np.random.default_rng(3)
        ang = -traj.alpha * np.arange(traj.m + 1)
        for i in rng.integers(1, traj.m, 20):
            for delta in (1e-4, -1e-4):
                t2 = traj.t.copy()
                t2[i] += delta
                pts = np.stack(
                    [np.cos(ang) + t2 * np.sin(ang), np.sin(ang) - t2 * np.cos(ang)],
                    axis=1,
                )
                assert chain_cost_from_points(pts, traj.m) > base

    @pytest.mark.slow
    def test_small_instance_matches_coordinate_descent(self):
        # k=6 cannot complete the angle recursion (see above), so the
        # brute-force cross-check runs at k=30
        theta, k = 0.6, 30
        traj = shoot_theta(theta, k)
        target = discrete_cost(traj, "UPPER")
        alpha = traj.alpha
        lo = math.tan(alpha / 2.0)
        phi = 2.0 * math.pi - (math.pi - theta) * 2.0 * np.arange(k + 1) / k
        weights = np.arange(1, k + 1, dtype=float)
        cos, sin = np.cos(phi).tolist(), np.sin(phi).tolist()

        def cost(tv):
            ax = np.cos(phi) + tv * np.sin(phi)
            ay = np.sin(phi) - tv * np.cos(phi)
            d = np.hypot(np.diff(ax), np.diff(ay))
            return float(np.dot(weights, d)) / (k + 1)

        def near(t, j, v):
            # the weighted lengths of the two segments at point j, the only
            # terms of cost(t) that t[j] = v changes (segment i has weight i + 1)
            x, y = cos[j] + v * sin[j], sin[j] - v * cos[j]
            out = (j + 1) * math.hypot(cos[j + 1] + t[j + 1] * sin[j + 1] - x,
                                       sin[j + 1] - t[j + 1] * cos[j + 1] - y)
            if j > 0:
                out += j * math.hypot(x - cos[j - 1] - t[j - 1] * sin[j - 1],
                                      y - sin[j - 1] + t[j - 1] * cos[j - 1])
            return out

        def golden(f, a, b, tol=1e-13):
            c = b - GOLDEN * (b - a)
            d = a + GOLDEN * (b - a)
            fc, fd = f(c), f(d)
            while b - a > tol:
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - GOLDEN * (b - a)
                    fc = f(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + GOLDEN * (b - a)
                    fd = f(d)
            return 0.5 * (a + b)

        rng = np.random.default_rng(17)
        best = math.inf
        for _ in range(2):
            t = np.concatenate([rng.uniform(lo, 3.0, k), [math.tan(theta)]])
            cur = cost(t)
            for _ in range(400):
                for j in range(k):
                    tl = t.tolist()
                    t[j] = golden(lambda v: near(tl, j, v), lo, 12.0)
                new = cost(t)
                if cur - new < 1e-15:
                    break
                cur = new
            best = min(best, cur)
        assert target == pytest.approx(best, abs=1e-7)


class TestDiscreteCost:
    def test_single_segment_weights(self):
        traj = DiscreteTrajectory(
            n=5,
            alpha=2.0 * math.pi / 5,
            tau0=2.0,
            x=np.array([math.nan, 1.0]),
            y=np.array([math.pi / 2, 1.2]),
            t=np.array([2.0, 1.5]),
            d=np.array([math.nan, 2.0]),
        )
        assert discrete_cost(traj, "UPPER") == pytest.approx(1.0)
        assert discrete_cost(traj, "LOWER") == 0.0
        with pytest.raises(ValueError):
            discrete_cost(traj, "MIDDLE")

    def test_upper_dominates_lower_on_same_chain(self):
        # i/(m+1) >= (i-1)/m for all 1 <= i <= m
        for theta, k in ((0.6, 60), (0.9, 120)):
            traj = shoot_theta(theta, k)
            assert discrete_cost(traj, "UPPER") >= discrete_cost(traj, "LOWER")


class TestRefractionOptimum:
    def test_equal_speeds_straight_line(self):
        inst = refraction_optimum((0.7, 1.3), (-0.4, -0.8), 2.0, 2.0)
        assert abs(inst.alpha1 - inst.alpha2) <= 1e-9

    def test_symmetric_crossing_at_zero(self):
        inst = refraction_optimum((0.0, 1.0), (0.0, -1.0), 1.0, 3.0)
        assert abs(inst.crossing_x) <= 1e-12

    def test_snell_law_random_instances(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            a1 = (rng.uniform(-3, 3), rng.uniform(0.1, 3))
            a2 = (rng.uniform(-3, 3), -rng.uniform(0.1, 3))
            s1, s2 = rng.uniform(0.2, 5), rng.uniform(0.2, 5)
            inst = refraction_optimum(a1, a2, s1, s2)
            worst = max(worst, abs(inst.snell_residual))
        assert worst <= 1e-8

    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.2, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.2, 2.0),
        st.floats(0.5, 3.0),
        st.floats(0.5, 3.0),
    )
    def test_snell_property(self, x1, y1, x2, y2, s1, s2):
        # cross form s2*sin(a1) = s1*sin(a2): stays well defined at normal
        # incidence (x1 == x2), where the sine ratio is 0/0
        inst = refraction_optimum((x1, y1), (x2, -y2), s1, s2)
        cross = s2 * math.sin(inst.alpha1) - s1 * math.sin(inst.alpha2)
        assert abs(cross) <= 1e-8 * max(s1, s2)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            refraction_optimum((0.0, -1.0), (0.0, -2.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            refraction_optimum((0.0, 1.0), (0.0, -1.0), 0.0, 1.0)
