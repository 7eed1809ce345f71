import json
import math

import numpy as np
import pytest

from diskinspect.artifacts import write_json
from diskinspect.continuum import integrate
from diskinspect.feasibility import crossed, deployment_parameter
from diskinspect.geometry import Polyline
from diskinspect.oracle import (
    HEURISTIC_UPPER_BOUND,
    WORST_CASE_COST,
    assemble_trajectory,
    average_cost_full,
    average_cost_partial,
    chain_upper_cost,
    exact_angle_cost,
    is_inspective,
)
from diskinspect.refraction import discrete_cost, shoot_theta

from conftest import PUBLISHED_COST, PUBLISHED_TAU0

PI = math.pi


@pytest.fixture(scope="module")
def optimal_polyline(sol_star):
    xi, _ = deployment_parameter(sol_star)
    return assemble_trajectory(sol_star, xi, segments=10_000)


class TestFullOracle:
    @pytest.mark.slow
    def test_assembled_optimum_matches_headline(self, optimal_polyline):
        res = average_cost_full(optimal_polyline, 100_000)
        assert res.never_count == 0
        assert res.mean_cost == pytest.approx(PUBLISHED_COST, abs=2e-3)
        assert res.mean_cost <= res.max_cost <= res.trajectory_length
        # the worst single angle costs at least the worst-case optimum
        assert res.max_cost >= WORST_CASE_COST - 1e-6
        # and the average beats the early spiral heuristics
        assert res.mean_cost < HEURISTIC_UPPER_BOUND

    @pytest.mark.slow
    def test_midpoint_rule_converges(self, optimal_polyline):
        a = average_cost_full(optimal_polyline, 20_000).mean_cost
        b = average_cost_full(optimal_polyline, 40_000).mean_cost
        assert abs(a - b) <= 10.0 / 20_000

    def test_straight_ray_mostly_never(self):
        ray = Polyline(np.array([[0.0, 0.0], [3.0, 0.0]]))
        res = average_cost_full(ray, 10_000)
        # visibility requires cos(phi) >= 1/3 at best: never-fraction > 1/2
        assert res.never_count > 5_000
        assert res.never_count < 10_000

    def test_rotation_invariance(self):
        rng = np.random.default_rng(23)
        verts = np.array([[0.0, 0.0], [1.2, 0.7], [0.3, 2.1], [-1.9, 0.4]])
        poly = Polyline(verts)
        phis = 2.0 * PI * (np.arange(4096) + 0.5) / 4096
        base = exact_angle_cost(poly, phis)
        ang = float(rng.uniform(0, 2 * PI))
        rot = np.array(
            [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
        )
        rotated = Polyline(verts @ rot.T)
        turned = exact_angle_cost(rotated, phis + ang)
        assert abs(base.mean_cost - turned.mean_cost) <= 1e-10

    def test_requires_origin_start(self):
        poly = Polyline(np.array([[0.5, 0.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            average_cost_full(poly, 1000)
        with pytest.raises(ValueError):
            average_cost_full(Polyline(np.array([[0.0, 0.0], [2.0, 0.0]])), 10)


def upper_cost_via_oracle(chain):
    """chain_upper_cost, with every seam-free target seen."""
    cost, res = chain_upper_cost(chain)
    assert res.never_count == 0
    return cost


class TestPartialOracle:
    def test_exact_angles_match_weighted_formula(self):
        chain = shoot_theta(0.6, 500)
        got = upper_cost_via_oracle(chain)
        assert abs(got - discrete_cost(chain, "UPPER")) <= 1e-9

    def test_exact_angles_random_chains(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = float(rng.uniform(0.45, 1.1))
            k = int(rng.integers(60, 400))
            chain = shoot_theta(theta, k)
            got = upper_cost_via_oracle(chain)
            assert abs(got - discrete_cost(chain, "UPPER")) <= 1e-9

    def test_seam_free_mean_matches_lower_weight_sum(self):
        # without the seam target the mean is exactly the (i-1)-weighted sum
        chain = shoot_theta(0.8, 300)
        _, res = chain_upper_cost(chain)
        lower_sum = discrete_cost(chain, "LOWER")
        assert abs(res.mean_cost - lower_sum) <= 1e-9

    def test_sampled_partial_near_formula(self):
        theta, k = 0.6, 500
        chain = shoot_theta(theta, k)
        res = average_cost_partial(chain.chain_polyline(), theta, 100_000)
        # Riemann comparison: sampled mean within O(1/k) of the formula
        assert abs(res.mean_cost - discrete_cost(chain, "UPPER")) <= 10.0 / k

    def test_start_vertex_validated(self):
        poly = Polyline(np.array([[0.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            average_cost_partial(poly, 0.6, 1000)


class TestInspective:
    def test_assembled_optimum_is_inspective(self, optimal_polyline):
        assert is_inspective(optimal_polyline, 100_000)

    def test_segment_is_not(self):
        seg = Polyline(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert not is_inspective(seg, 1000)


class TestAssembly:
    def test_vertices_and_anchor(self, sol_star):
        xi, _ = deployment_parameter(sol_star)
        poly = assemble_trajectory(sol_star, xi, segments=500)
        assert np.allclose(poly.vertices[0], [0.0, 0.0])
        theta = (1.0 - xi) * PI
        assert np.allclose(poly.vertices[1], [1.0, math.tan(theta)], atol=1e-9)
        # path ends near the tangent anchor below the disk
        assert np.allclose(poly.vertices[-1], [1.0, -sol_star.tau0], atol=1e-4)

    @pytest.mark.parametrize("tau0", [1.64697, PUBLISHED_TAU0, 1.6497, 1.6525])
    def test_crossing_stopped_solve_gives_the_full_path(self, tau0):
        # verify's solve ends at its first node with g >= 0: the polyline
        # reads the curve on [x0, xi] only, on steps the full solve shares
        sol, full = integrate(tau0, stop=crossed), integrate(tau0)
        assert sol.x_end < 1.0
        xi, _ = deployment_parameter(sol)
        assert xi == deployment_parameter(full)[0]
        assert np.array_equal(assemble_trajectory(sol, xi, segments=997).vertices,
                              assemble_trajectory(full, xi, segments=997).vertices)

    def test_json_output(self, sol_star, tmp_path):
        xi, _ = deployment_parameter(sol_star)
        poly = assemble_trajectory(sol_star, xi, segments=200)
        res = average_cost_full(poly, 1000)
        write_json(res, tmp_path / "oracle.json")
        data = json.loads((tmp_path / "oracle.json").read_text())
        assert data == {
            "mean_cost": res.mean_cost,
            "samples": 1000,
            "never_count": res.never_count,
            "max_cost": res.max_cost,
            "trajectory_length": res.trajectory_length,
        }
