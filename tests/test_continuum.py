import json
import math

import numpy as np
import pytest

from diskinspect.artifacts import write_csv, write_json
from diskinspect.continuum import (
    X0_REF,
    SeriesInit,
    curve_points,
    integrate,
    self_check_init,
    tau_center_from_label,
    tau_series_from_center,
)
from diskinspect.errors import OutOfRange
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

    def test_psi_stays_inside_band(self, sol_star):
        assert np.all(sol_star.psi > 0.0)
        assert np.all(sol_star.psi < PI)

    def test_grid_strictly_increasing(self, sol_star):
        assert np.all(np.diff(sol_star.grid) > 0)


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
