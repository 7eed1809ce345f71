import math

import numpy as np
import pytest

from diskinspect.cli import main
from diskinspect.continuum import curve_points, integrate
from diskinspect.errors import NoCrossing
from diskinspect.feasibility import (
    WINDOW_HI,
    WINDOW_LO,
    assess,
    clearance_certificate,
    clearance_from_tau,
    deployment_parameter,
    feasibility_sweep,
)
from diskinspect.optimizer import refine_minimum, sweep_cost

from conftest import CONVERGED_XI_AT_PUBLISHED_TAU0

PI = math.pi


class TestDeploymentParameter:
    def test_converged_value_at_published_tau0(self, sol_star):
        # the published root 0.8119098734258519 carries the source pipeline's
        # own ~4e-7 slop; a 30-digit Taylor integration of the same map puts
        # the converged root at 0.8119095137383550
        xi, gap = deployment_parameter(sol_star)
        assert xi == pytest.approx(CONVERGED_XI_AT_PUBLISHED_TAU0, abs=1e-8)
        assert gap <= 2e-8

    def test_published_value_within_its_slop(self, sol_star):
        xi, _ = deployment_parameter(sol_star)
        assert xi == pytest.approx(0.8119098734258519, abs=5e-7)

    def test_window_edge_angles(self):
        for tau0, target in ((1.64697, 0.501177), (1.6525, 1.1600947)):
            rep = assess(integrate(tau0))
            assert rep.theta == pytest.approx(target, abs=1e-5)

    def test_infeasible_start_raises(self):
        sol = integrate(1.64)
        with pytest.raises(NoCrossing):
            deployment_parameter(sol)

    def test_deployment_identity(self, sol_star):
        # T2(xi) = tan((1-xi)*pi)
        xi, _ = deployment_parameter(sol_star)
        t2 = curve_points(sol_star, [xi])[0][1]
        assert abs(t2 - math.tan((1.0 - xi) * PI)) <= 1e-7


class TestClearance:
    def test_tau_min_at_published_tau0(self, sol_star):
        xi, _ = deployment_parameter(sol_star)
        tau_min, clearance = clearance_certificate(sol_star, xi)
        assert tau_min == pytest.approx(0.24774522, abs=1e-4)
        assert clearance == pytest.approx(0.0302318, abs=1e-4)

    @pytest.mark.parametrize("tau0", [0.525, 1.1])
    def test_minimum_at_the_crossing_end(self, tau0):
        # these curves dive into the disk and tau falls all the way to the
        # crossing: the minimum is tau(xi), which bounded Brent alone misses
        # by 2.5e-8 and 2.2e-7 because it never samples a bracket end
        sol = integrate(tau0)
        xi, _ = deployment_parameter(sol)
        tau_min, _ = clearance_certificate(sol, xi)
        assert tau_min == sol.tau_at(xi)
        assert tau_min <= sol.values(np.linspace(sol.x0, xi, 200_001))[1].min()

    def test_clearance_formula(self):
        # sqrt(1.04) - 1; the source text rounds this as 0.01980198
        assert clearance_from_tau(0.2) == pytest.approx(0.019803902718557, abs=1e-14)
        assert abs(clearance_from_tau(0.2) - 0.01980198) <= 2e-6
        assert clearance_from_tau(0.0) == 0.0


class TestSweep:
    def test_two_point_sweep_hits_endpoints(self):
        reports = feasibility_sweep(WINDOW_LO, WINDOW_HI, 2)
        assert [r.tau0 for r in reports] == [WINDOW_LO, WINDOW_HI]
        assert all(r.feasible for r in reports)

    @pytest.mark.parametrize("sweep", [feasibility_sweep, sweep_cost, refine_minimum])
    @pytest.mark.parametrize("lo, hi, grid", [
        (2.0, 1.0, 10), (1.6, 1.6, 10), (0.0, 2.0, 10), (-1.0, 2.0, 10), (1.0, 2.0, 1),
    ], ids=["lo-above-hi", "lo-equals-hi", "lo-zero", "lo-negative", "grid-one"])
    def test_invalid_args(self, sweep, lo, hi, grid):
        # the window is checked once, in window_pencil, before any solve
        with pytest.raises(ValueError, match="need 0 < lo < hi and grid >= 2"):
            sweep(lo, hi, grid)

    def test_error_recorded_inline(self):
        reports = feasibility_sweep(1.63, 1.64, 3)
        assert all(not r.feasible for r in reports)
        assert all(r.error == "NoCrossing" for r in reports)

    @pytest.mark.slow
    def test_window_sweep_certificates(self, window_reports):
        assert all(r.feasible for r in window_reports)
        assert min(r.tau_min for r in window_reports) >= 0.2
        # xi monotone across the sweep (empirical regularity)
        xis = [r.xi for r in window_reports]
        assert all(a > b for a, b in zip(xis, xis[1:]))
        # deployment identity holds across the window
        assert all(0.5 < r.xi <= 1.0 for r in window_reports)
        # self-check gap uniformly small
        assert max(r.xi_selfcheck_gap for r in window_reports) <= 2e-8
        # theta range covers the certified angle window
        thetas = [r.theta for r in window_reports]
        assert thetas[0] < 0.52 and thetas[-1] > 1.148

    def test_csv_format(self, tmp_path):
        rc = main(["--out", str(tmp_path), "--format", "csv",
                   "sweep-feasibility", "--grid", "2"])
        assert rc == 0
        lines = (tmp_path / "feasibility_sweep.csv").read_text().splitlines()
        assert lines[0] == "tau0,xi,theta,tau_min,clearance,feasible,selfcheck_gap"
        assert len(lines) == 3
        assert lines[1].endswith(",true,") is False  # gap column present
        assert lines[1].split(",")[5] == "true"


class TestReportInvariants:
    def test_theta_consistency(self):
        rep = assess(integrate(1.649))
        assert rep.tau0 == 1.649
        assert rep.theta == (1.0 - rep.xi) * PI
        assert rep.clearance == pytest.approx(
            math.sqrt(1.0 + rep.tau_min**2) - 1.0, abs=1e-14
        )
        assert rep.feasible
