import json
import math

import numpy as np
import pytest

from diskinspect import feasibility, optimizer
from diskinspect.cli import main
from diskinspect.errors import NotUnimodal, OutOfRange, WindowViolated
from diskinspect.feasibility import (
    PROBE_XI_STEP,
    WINDOW_HI,
    WINDOW_LO,
    deployment_parameters,
    window_pencil,
)
from diskinspect.optimizer import (
    _check_unimodal,
    cost_at,
    refine_minimum,
    sweep_cost,
)

from conftest import PUBLISHED_COST, PUBLISHED_TAU0


class TestSweep:
    def test_two_point_sweep(self):
        rows = sweep_cost(1.6469768, 1.6469770, 2)
        assert len(rows) == 2
        assert rows[0][0] < rows[1][0]
        assert all(e is None for _, _, e in rows)

    def test_error_rows_recorded(self):
        rows = sweep_cost(1.63, 1.64, 2)
        assert all(e == "NoCrossing" for _, _, e in rows)
        assert all(math.isnan(c) for _, c, _ in rows)

    def test_refined_window_minimum_in_published_band(self):
        # the grid over the final refinement interval brackets the true
        # minimum to ~2.5e-10, so its min matches the published sandwich
        rows = sweep_cost(1.6469764, 1.6469774, 200)
        costs = [c for _, c, e in rows if e is None]
        assert 3.5492590 <= min(costs) <= 3.5492599
        # the curvature ~1.8e8 lifts the interval edges visibly above the
        # bottom: the published reference band only holds near the minimum
        assert max(costs) > 3.5492599

    @pytest.mark.slow
    def test_window_sweep_minimum(self, cost_rows):
        costs = [c for _, c, e in cost_rows if e is None]
        assert len(costs) == len(cost_rows)
        # nearest window-grid point sits ~1.3e-6 from the optimum, which the
        # curvature turns into ~1.5e-4 of cost excess
        assert min(costs) == pytest.approx(PUBLISHED_COST, abs=5e-4)
        assert min(costs) > PUBLISHED_COST

    def test_csv(self, tmp_path):
        rc = main(["--out", str(tmp_path), "--format", "csv", "sweep-cost",
                   "--tau0-lo", "1.6469768", "--tau0-hi", "1.6469770", "--grid", "2"])
        assert rc == 0
        lines = (tmp_path / "cost_sweep.csv").read_text().splitlines()
        assert lines[0] == "tau0,cost,error"
        assert len(lines) == 3
        rows = sweep_cost(1.6469768, 1.6469770, 2)
        assert lines[1] == f"{rows[0][0]!r},{rows[0][1]!r},"


class TestUnimodalCheck:
    def test_accepts_noisy_flat_bottom(self):
        costs = np.array([3.0, 2.0, 1.0 + 1e-12, 1.0, 1.0 + 2e-12, 2.0, 3.0])
        assert _check_unimodal(costs) == 3

    def test_rejects_double_dip(self):
        costs = np.array([3.0, 1.0, 2.0, 1.0, 3.0])
        with pytest.raises(NotUnimodal):
            _check_unimodal(costs)

    def test_rejects_error_row_between_valid_rows(self):
        # the error row hides the ascent 2.0 -> 2.5
        costs = np.array([3.0, 2.0, math.nan, 2.5, 1.5, 3.0])
        with pytest.raises(NotUnimodal):
            _check_unimodal(costs)

    def test_rejects_all_error_rows(self):
        with pytest.raises(NotUnimodal):
            _check_unimodal(np.full(3, math.nan))

    def test_allows_error_runs_at_both_ends(self):
        costs = np.array([math.nan, math.nan, 3.0, 2.0, 1.0, 2.0, math.nan])
        assert _check_unimodal(costs) == 4


class TestRefine:
    @pytest.mark.slow
    def test_headline_reproduction(self, optimum):
        assert optimum.tau0_star == pytest.approx(PUBLISHED_TAU0, abs=1e-6)
        assert optimum.cost_star == pytest.approx(PUBLISHED_COST, abs=1e-6)
        assert optimum.clearance_star == pytest.approx(0.0302318, abs=1e-4)
        assert optimum.bracket[0] <= optimum.tau0_star <= optimum.bracket[1]
        assert optimum.certificate.feasible

    @pytest.mark.slow
    def test_optimality_against_endpoints_and_sweep(self, optimum, cost_rows):
        for endpoint in optimum.bracket:
            assert optimum.cost_star <= cost_at(endpoint)
        sweep_min = min(c for _, c, e in cost_rows if e is None)
        assert optimum.cost_star <= sweep_min

    @pytest.mark.slow
    def test_theta_star_inside_angle_window(self, optimum):
        assert 0.52 < optimum.theta_star < 1.148

    @pytest.mark.slow
    def test_near_stationarity(self, optimum):
        # the landscape has |f'''| ~ 5e13 from the feasibility cliff, so a
        # central difference at h=1e-6 measures the cubic term (~8), not the
        # gradient; optimality is certified by the dominance checks above
        h = 1e-6
        fd = (
            cost_at(optimum.tau0_star + h) - cost_at(optimum.tau0_star - h)
        ) / (2.0 * h)
        assert abs(fd) <= 10.0
        # at h=1e-8 the cubic term fades but per-evaluation noise (~1e-10 of
        # cost, amplified by 1/h) dominates; this is a sanity band only
        h = 1e-8
        fd_small = (
            cost_at(optimum.tau0_star + h) - cost_at(optimum.tau0_star - h)
        ) / (2.0 * h)
        assert abs(fd_small) <= 5e-2

    @pytest.mark.parametrize("module, name, value, words", [
        (optimizer, "THETA_HI", 0.55, "deployment-angle window"),
        (feasibility, "FEASIBLE_TAU_MIN", 1.0, "clearance certificate"),
    ], ids=["theta-outside-angle-window", "infeasible-certificate"])
    def test_uncertified_optimum_raises(self, monkeypatch, module, name, value, words):
        monkeypatch.setattr(module, name, value)
        with pytest.raises(WindowViolated, match=words):
            refine_minimum(WINDOW_LO, WINDOW_HI, grid=50)

    def test_bracket_reaching_past_the_cliff(self):
        # the bracket starts at a NoCrossing row, which counts as the
        # cliff side (slope -inf): the refinement bisects until both ends
        # have a slope, then moves right, onto the optimum
        opt = refine_minimum(1.6469, 1.64701, grid=4)
        assert sweep_cost(1.6469, 1.64701, 4)[1][2] == "NoCrossing"
        assert opt.bracket == (1.6469366666666667, 1.64701)
        assert opt.tau0_star == pytest.approx(PUBLISHED_TAU0, abs=1e-6)
        assert opt.cost_star == pytest.approx(PUBLISHED_COST, abs=1e-6)

    def test_fallback_probes_keep_python_floats(self, tmp_path, capsys):
        # 8 probes on this window fall back to deployment_parameters, whose
        # xi is an np.float64; the optimum must still be plain floats
        opt = refine_minimum(1.6, 1.7, grid=20)
        for value in (opt.tau0_star, opt.xi_star, opt.cost_star):
            assert type(value) is float
        rc = main(["--out", str(tmp_path), "optimize", "--tau0-lo", "1.6",
                   "--tau0-hi", "1.7", "--grid", "20"])
        assert rc == 0
        assert "np.float64(" not in capsys.readouterr().out

    def test_wide_window_polish_fails(self, tmp_path, capsys):
        # the probe of the label 1.64697265625 starts past the cliff and
        # falls back to deployment_parameters; centred at 2.75, the pencil
        # reads its tau at x = 0.8255 as Tbar + (tau0 - tau_bar) B, two
        # terms of 8e4 that cancel to 0.61, and g's noise makes the polish
        # from its bracket root raise |g|: that row is OutOfRange
        rc = main(["--out", str(tmp_path), "optimize", "--tau0-lo", "0.5",
                   "--tau0-hi", "5", "--grid", "40"])
        out, err = capsys.readouterr()
        assert rc == 2 and err == ""
        assert json.loads(out)["error"] == {
            "kind": "OutOfRange",
            "message": "the Newton polish of the label tau0=1.64697265625 fails"}

    def test_not_unimodal_raises(self):
        costs = np.array([3.0, 1.0, 2.0, 1.0, 3.0])
        with pytest.raises(NotUnimodal):
            _check_unimodal(costs)


class _DriftingPencil:
    """pencil, except that each point() read reads Tbar 1e-7 higher than the
    one before: a probe's Newton residual grows while its iterates stay
    inside [x0, x_end].  state() reads pencil as it is."""

    def __init__(self, pencil):
        self.pencil = pencil
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.pencil, name)

    def point(self, x):
        psi, t, b, i, i_b = self.pencil.point(x)
        self.calls += 1
        return psi, t + 1e-7 * (self.calls - 1), b, i, i_b


def pencil_slope(lo, hi, tau0):
    """dcost/dtau0 of the label tau0 on the window pencil of [lo, hi], from its scanned xi."""
    pencil, _ = window_pencil(lo, hi, 2)
    (xi,), _, _ = deployment_parameters(pencil, np.array([tau0]))
    slope, probe_xi = optimizer._probe(pencil, tau0, float(xi))
    assert abs(probe_xi - xi) <= PROBE_XI_STEP
    return pencil, slope


class TestSlopeRefinement:
    @pytest.mark.parametrize("tau0", [1.646975, 1.6475, 1.65])
    def test_slope_matches_central_difference(self, tau0):
        # at h = 1e-8 the cliff's third derivative (~5e13) and the cost
        # noise over 2h both stay below 1e-5 of the slope
        pencil, slope = pencil_slope(WINDOW_LO, WINDOW_HI, tau0)
        h = 1e-8
        rows, _ = optimizer._cost_rows(pencil, np.array([tau0 + h, tau0 - h]))
        central = (rows[0][1] - rows[1][1]) / (2.0 * h)
        assert abs(slope - central) <= 1e-5 * abs(central)

    def test_cost_still_falling_at_right_edge(self):
        # the optimum, 1.6469768, lies right of this window: the cost still
        # falls at its right edge, so the last grid cell has no interior root
        assert pencil_slope(1.64697, 1.646975, 1.646975)[1] < 0.0
        with pytest.raises(WindowViolated, match="edge"):
            refine_minimum(1.64697, 1.646975, grid=20)

    def test_wrong_root_probe_fails_the_certificate(self, monkeypatch):
        # a probe whose xi is not the first root of g, as the certificate's
        # full scan finds it, must not pass silently
        probe = optimizer._probe

        def wrong_root(*args, **kwargs):
            slope, xi = probe(*args, **kwargs)
            return slope, xi + 1e-3

        monkeypatch.setattr(optimizer, "_probe", wrong_root)
        with pytest.raises(OutOfRange, match="root other than the first"):
            refine_minimum(WINDOW_LO, WINDOW_HI, grid=50)

    def test_fallback_out_of_range_raises(self, monkeypatch, tmp_path, capsys):
        # the bracket's left end has no crossing, so its probe starts at
        # xi = NaN, outside [x0, x_end], and falls back to
        # deployment_parameters on that label alone: an OutOfRange there
        # must surface, not read as the cliff's slope -inf
        batch = optimizer.deployment_parameters

        def out_of_range_alone(pencil, taus, lines=None):
            xi, gap, error = batch(pencil, taus, lines)
            if len(taus) == 1:
                error[:] = OutOfRange.kind
            return xi, gap, error

        monkeypatch.setattr(optimizer, "deployment_parameters", out_of_range_alone)
        with pytest.raises(OutOfRange, match="Newton polish of the label tau0=1.6469366666666667 "):
            refine_minimum(1.6469, 1.64701, grid=4)
        rc = main(["--out", str(tmp_path), "optimize", "--tau0-lo", "1.6469",
                   "--tau0-hi", "1.64701", "--grid", "4"])
        assert rc == 2
        assert '"kind": "OutOfRange"' in capsys.readouterr().out

    @pytest.mark.parametrize("grid", [50, 2000])
    def test_warm_start_lands_on_the_sweep_xi(self, grid):
        # started from either neighbouring label's sweep xi, as the
        # refinement starts each new probe, the polish ends on the label's own
        pencil, taus = window_pencil(WINDOW_LO, WINDOW_HI, grid)
        xi, _, _ = deployment_parameters(pencil, taus)
        for k in range(grid):
            for j in (k - 1, k + 1):
                if 0 <= j < grid:
                    _, probe_xi = optimizer._probe(pencil, float(taus[k]), float(xi[j]))
                    assert abs(probe_xi - xi[k]) <= PROBE_XI_STEP

    def test_growing_residual_falls_back(self, monkeypatch):
        # the polish's |g| guard, not its range guard, sends the probe to
        # deployment_parameters on its label; an OutOfRange there names it
        pencil, taus = window_pencil(WINDOW_LO, WINDOW_HI, 50)
        xi, _, _ = deployment_parameters(pencil, taus)
        tau0, start = float(taus[20]), float(xi[20]) + 1e-9
        batch, calls = optimizer.deployment_parameters, []

        def recorded(pencil, taus, lines=None):
            calls.append(list(taus))
            return batch(pencil, taus, lines)

        monkeypatch.setattr(optimizer, "deployment_parameters", recorded)
        _, probe_xi = optimizer._probe(_DriftingPencil(pencil), tau0, start)
        assert calls == [[tau0]]
        assert abs(probe_xi - xi[20]) <= PROBE_XI_STEP

        def out_of_range(pencil, taus, lines=None):
            xis, gap, error = batch(pencil, taus, lines)
            error[:] = OutOfRange.kind
            return xis, gap, error

        monkeypatch.setattr(optimizer, "deployment_parameters", out_of_range)
        with pytest.raises(OutOfRange, match=f"Newton polish of the label tau0={tau0!r} "):
            optimizer._probe(_DriftingPencil(pencil), tau0, start)

    @pytest.mark.parametrize("grid, most", [(50, 16), (2000, 12)])
    def test_probe_count(self, monkeypatch, grid, most):
        calls = []
        probe = optimizer._probe

        def counted(pencil, tau0, xi, **kwargs):
            calls.append(tau0)
            return probe(pencil, tau0, xi, **kwargs)

        monkeypatch.setattr(optimizer, "_probe", counted)
        opt = refine_minimum(WINDOW_LO, WINDOW_HI, grid=grid)
        assert len(calls) <= most
        assert opt.tau0_star in calls
        assert opt.tau0_star == pytest.approx(PUBLISHED_TAU0, abs=1e-6)
