import math

import numpy as np
import pytest

from diskinspect import feasibility
from diskinspect.cli import main
from diskinspect.continuum import curve_points, integrate
from diskinspect.errors import NoCrossing, OutOfRange
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

from conftest import CONVERGED_XI_AT_PUBLISHED_TAU0, crossing_only

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


class _DriftingPolish:
    """sol, except that each point() read after the first reads tau 1e-7
    higher: the Newton polish's residual grows while it stays inside the
    scan bracket.  The scan and the bisections are untouched."""

    def __init__(self, sol):
        self.sol = sol
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.sol, name)

    def point(self, x):
        psi, tau = self.sol.point(x)
        tau += 1e-7 * self.calls
        self.calls += 1
        return psi, tau


class TestNewtonPolishGuard:
    @staticmethod
    def astray(monkeypatch):
        # a crossing root past its bracket, as a Newton iterate leaving it
        # would be; the point is still inside the solved range
        monkeypatch.setattr(feasibility, "_bisect_root", crossing_only(
            feasibility._bisect_root, lambda f, a, b: b + 1e-3))

    def test_iterate_outside_bracket_raises(self, sol_star, monkeypatch):
        self.astray(monkeypatch)
        with pytest.raises(OutOfRange, match="left the scan bracket"):
            deployment_parameter(sol_star)

    def test_growing_residual_raises(self, sol_star):
        with pytest.raises(OutOfRange, match="raised"):
            deployment_parameter(_DriftingPolish(sol_star))

    def test_trace_exits_2(self, tmp_path, monkeypatch, capsys):
        self.astray(monkeypatch)
        rc = main(["--out", str(tmp_path / "o"), "trace", "--tau0", "1.6475"])
        assert rc == 2
        assert "OutOfRange" in capsys.readouterr().out


class TestSelfCheckGap:
    """The gap is |polished xi - bisection root|: a bisection root moved 1e-6
    inside its scan bracket leaves xi where it was, and the gap shows it."""

    @staticmethod
    def displaced(root, a, b):
        return root + np.where(root < 0.5 * (a + b), 1e-6, -1e-6)

    def test_scalar_path(self, sol_star, monkeypatch):
        xi, _ = deployment_parameter(sol_star)
        bisect = feasibility._bisect_root
        monkeypatch.setattr(feasibility, "_bisect_root", crossing_only(
            bisect, lambda f, a, b: float(self.displaced(bisect(f, a, b), a, b))))
        moved, gap = deployment_parameter(sol_star)
        assert abs(moved - xi) <= 1e-12
        assert gap > 2e-8

    def test_pencil_path(self, monkeypatch):
        reports = feasibility_sweep(WINDOW_LO, WINDOW_HI, 4)
        bisect = feasibility._bisect_many
        monkeypatch.setattr(feasibility, "_bisect_many", crossing_only(
            bisect, lambda f, a, b: self.displaced(bisect(f, a, b), a, b)))
        moved = feasibility_sweep(WINDOW_LO, WINDOW_HI, 4)
        assert all(m.error is None for m in moved)
        for r, m in zip(reports, moved):
            assert abs(m.xi - r.xi) <= 1e-12
            assert m.xi_selfcheck_gap > 2e-8


def dense_minimum(tau_of, x0, xi):
    """Minimum of tau over 200,001 uniform points on [x0, xi], refined by the
    vertex of the parabola through the smallest sample and its neighbours.

    The samples alone lie up to tau'' * dx^2 / 8 ~ 1.3e-11 above an interior
    minimum on the window (dx = 4e-6); the vertex removes that to O(dx^3).
    A smallest sample at an end is the minimum as it is.
    """
    tau = tau_of(np.linspace(x0, xi, 200_001))
    j = int(np.argmin(tau))
    if j in (0, len(tau) - 1):
        return tau[j], tau[j]
    y0, y1, y2 = tau[j - 1 : j + 2]
    return y1 - (y2 - y0) ** 2 / (8.0 * (y2 - 2.0 * y1 + y0)), tau[j]


#: Start values whose curves clear the disk (the window and its edges) and
#: whose tau falls all the way to the crossing (the minimum is tau(xi)).
CLEARING = (WINDOW_LO, 1.6475, 1.65, WINDOW_HI)
DIVING = (0.525, 1.1)


class TestClearance:
    def test_tau_min_at_published_tau0(self, sol_star):
        xi, _ = deployment_parameter(sol_star)
        tau_min = clearance_certificate(sol_star, xi)
        assert tau_min == pytest.approx(0.24774522, abs=1e-4)
        assert clearance_from_tau(tau_min) == pytest.approx(0.0302318, abs=1e-4)

    @pytest.mark.parametrize("tau0", DIVING)
    def test_minimum_at_the_crossing_end(self, tau0):
        # these curves dive into the disk and tau falls all the way to the
        # crossing: tau' < 0 across the last bracket, so its bisection has no
        # root to find and closes in on xi, 2.5e-10 short of it; only the
        # bracket end gives tau(xi) itself
        sol = integrate(tau0)
        xi, _ = deployment_parameter(sol)
        tau_min = clearance_certificate(sol, xi)
        assert tau_min == sol.tau_at(xi)
        assert tau_min <= sol.values(np.linspace(sol.x0, xi, 200_001))[1].min()

    @pytest.mark.parametrize("tau0", CLEARING + DIVING)
    def test_scalar_matches_dense_minimum(self, tau0):
        sol = integrate(tau0)
        xi, _ = deployment_parameter(sol)
        tau_min = clearance_certificate(sol, xi)
        refined, sampled = dense_minimum(lambda x: sol.values(x)[1], sol.x0, xi)
        assert abs(tau_min - refined) <= 1e-12
        assert tau_min <= sampled

    @pytest.mark.parametrize("lo, hi, grid", [(WINDOW_LO, WINDOW_HI, 5), (*DIVING, 2)],
                             ids=["window", "diving"])
    def test_pencil_matches_dense_minimum(self, lo, hi, grid):
        pencil, tau0s = feasibility.window_pencil(lo, hi, grid)
        xi, _, _ = feasibility.deployment_parameters(pencil, tau0s)
        tau_min = feasibility.clearance_minima(pencil, xi, tau0s)
        for tau0, x, m in zip(tau0s, xi, tau_min):
            refined, sampled = dense_minimum(lambda y: pencil.state(y, tau0)[1],
                                             pencil.x0, x)
            assert abs(m - refined) <= 1e-12
            assert m <= sampled
            if tau0 in DIVING:
                assert m == pencil.state(x, tau0)[1]

    def test_clearance_formula(self):
        # sqrt(1.04) - 1; the source text rounds this as 0.01980198
        assert clearance_from_tau(0.2) == pytest.approx(0.019803902718557, abs=1e-14)
        assert abs(clearance_from_tau(0.2) - 0.01980198) <= 2e-6
        assert clearance_from_tau(0.0) == 0.0

    def test_touching_curve_has_zero_clearance(self):
        # tau_min <= 0: tau passed through 0, where ||T|| = 1, so the curve
        # touches the disk; sqrt(1 + tau_min^2) - 1 would read 0.14 at
        # tau0 = 0.5 (tau_min = -0.547)
        assert clearance_from_tau(-0.547) == 0.0
        assert clearance_from_tau(-0.0) == 0.0
        assert math.isnan(clearance_from_tau(math.nan))
        rep = assess(integrate(0.5))
        assert rep.tau_min < 0 and rep.clearance == 0.0 and not rep.feasible
        reports = feasibility_sweep(0.5, 1.2, 8)
        touching = [r for r in reports if r.error is None]
        assert len(touching) == 7
        assert all(r.tau_min < 0 and r.clearance == 0.0 for r in touching)
        assert math.isnan(reports[-1].clearance)


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
