"""The lockstep batch behind the window sweeps, checked against the scalar path.

The scalar pipeline (integrate -> assess / cost_at) is the reference: every
test recomputes its rows one start value at a time and compares.
"""

import math

import numpy as np
import pytest

from diskinspect import continuum, feasibility
from diskinspect.continuum import OdeSolution, integrate_many
from diskinspect.cost import inspection_integral
from diskinspect.errors import DiskInspectError, StepFailure
from diskinspect.feasibility import (
    WINDOW_HI,
    WINDOW_LO,
    assess,
    deployment_parameters,
    feasibility_sweep,
)
from diskinspect.optimizer import SWEEP_NOISE_TOL, cost_at, sweep_cost

#: Agreement required of a batched row with its scalar row.
XI_TOL = 1e-8
TAU_MIN_TOL = 1e-8
GAP_MAX = 2e-8


def _scalar_report(tau0, **kwargs):
    try:
        return assess(tau0, **kwargs), None
    except DiskInspectError as exc:
        return None, exc.kind


def _scalar_cost(tau0, **kwargs):
    try:
        return cost_at(tau0, **kwargs), None
    except DiskInspectError as exc:
        return math.nan, exc.kind


def column_solution(bsol, k):
    """Column k of a batch as a scalar OdeSolution over the same dense output."""

    def dense(x):
        return np.stack([bsol.values(x, c, k) for c in (0, 1)])

    return OdeSolution(
        tau0=float(bsol.tau0s[k]),
        x0=bsol.x0,
        rtol=bsol.rtol,
        atol=bsol.atol,
        grid=bsol.grid,
        psi=bsol.nodes[0, :, k],
        tau=bsol.nodes[1, :, k],
        _dense=dense,
    )


def assert_reports_match(reports, lo, hi, grid, **kwargs):
    taus = np.linspace(lo, hi, grid)
    assert [r.tau0 for r in reports] == [float(t) for t in taus]
    for r in reports:
        ref, kind = _scalar_report(r.tau0, **kwargs)
        assert r.error == kind
        if kind is not None:
            assert not r.feasible
            assert all(math.isnan(v) for v in (r.xi, r.theta, r.tau_min,
                                               r.clearance, r.xi_selfcheck_gap))
            continue
        assert abs(r.xi - ref.xi) <= XI_TOL
        assert abs(r.tau_min - ref.tau_min) <= TAU_MIN_TOL
        assert r.feasible == ref.feasible
        assert r.xi_selfcheck_gap <= GAP_MAX
        assert r.theta == (1.0 - r.xi) * math.pi


def assert_costs_match(rows, lo, hi, grid, **kwargs):
    taus = np.linspace(lo, hi, grid)
    assert [t for t, _, _ in rows] == [float(t) for t in taus]
    for tau0, cost, err in rows:
        ref, kind = _scalar_cost(tau0, **kwargs)
        assert err == kind
        if kind is None:
            assert abs(cost - ref) <= SWEEP_NOISE_TOL
        else:
            assert math.isnan(cost)


class TestRowsMatchScalar:
    def test_window_edges(self):
        assert_reports_match(feasibility_sweep(WINDOW_LO, WINDOW_HI, 2),
                             WINDOW_LO, WINDOW_HI, 2)
        assert_costs_match(sweep_cost(WINDOW_LO, WINDOW_HI, 2),
                           WINDOW_LO, WINDOW_HI, 2)

    def test_grid_not_a_multiple_of_the_block(self, monkeypatch):
        monkeypatch.setattr(feasibility, "BATCH_BLOCK", 4)
        lo, hi, grid = 1.6469764, 1.6469774, 10
        assert_reports_match(feasibility_sweep(lo, hi, grid), lo, hi, grid)
        assert_costs_match(sweep_cost(lo, hi, grid), lo, hi, grid)

    @pytest.mark.parametrize("kwargs", [
        {"x0": 1e-7},
        {"rtol": 1e-11, "atol": 1e-11},
    ])
    def test_start_and_tolerance_variants(self, kwargs):
        assert_reports_match(feasibility_sweep(WINDOW_LO, WINDOW_HI, 3, **kwargs),
                             WINDOW_LO, WINDOW_HI, 3, **kwargs)
        assert_costs_match(sweep_cost(WINDOW_LO, WINDOW_HI, 3, **kwargs),
                           WINDOW_LO, WINDOW_HI, 3, **kwargs)

    def test_no_crossing_rows(self):
        reports = feasibility_sweep(1.63, 1.64, 3)
        assert [r.error for r in reports] == ["NoCrossing"] * 3
        assert_reports_match(reports, 1.63, 1.64, 3)
        rows = sweep_cost(1.63, 1.64, 3)
        assert [e for _, _, e in rows] == ["NoCrossing"] * 3
        assert_costs_match(rows, 1.63, 1.64, 3)


class TestFallback:
    def test_guard_exit_recomputes_block_on_scalar_path(self, monkeypatch):
        # psi dips to ~0.16 inside the window; a band of (0.3, pi - 0.3) makes
        # every column leave it, which only a tightened guard can provoke
        monkeypatch.setattr(continuum, "PSI_GUARD", 0.3)
        taus = np.linspace(WINDOW_LO, WINDOW_HI, 3)
        with pytest.raises(StepFailure):
            integrate_many(taus)
        reports = feasibility_sweep(WINDOW_LO, WINDOW_HI, 3)
        rows = sweep_cost(WINDOW_LO, WINDOW_HI, 3)
        for tau0, r, (_, cost, err) in zip(taus, reports, rows):
            ref, kind = _scalar_report(float(tau0))
            assert r.error == kind
            if kind is None:
                assert (r.xi, r.tau_min, r.xi_selfcheck_gap) == (
                    ref.xi, ref.tau_min, ref.xi_selfcheck_gap)
            ref_cost, ref_kind = _scalar_cost(float(tau0))
            assert err == ref_kind
            assert cost == ref_cost or (math.isnan(cost) and math.isnan(ref_cost))

    def test_real_guard_not_reached(self):
        # integrate_many checks the guard at step nodes only (as solve_ivp
        # does its events); sampling the dense output 20 times per step
        # also rules out a dip past the guard between nodes
        bsol = integrate_many(np.linspace(0.05, 10.0, 9))
        assert bsol.x_end == 1.0
        assert np.all(bsol.nodes[0] > continuum.PSI_GUARD)
        assert np.all(bsol.nodes[0] < math.pi - continuum.PSI_GUARD)
        t = np.linspace(0.0, 1.0, 21)
        xs = (bsol.grid[:-1, None] + t * np.diff(bsol.grid)[:, None]).ravel()
        psi = bsol.values(xs[:, None], 0)
        assert np.all(psi > continuum.PSI_GUARD)
        assert np.all(psi < math.pi - continuum.PSI_GUARD)


class TestQuadratureTolerances:
    def test_unknown_keyword_is_rejected(self):
        with pytest.raises(TypeError):
            sweep_cost(WINDOW_LO, WINDOW_HI, 2, quad_rtl=1e-9)


class TestAugmentedState:
    def test_integral_matches_quadrature_over_same_dense_output(self):
        # augmented-state counterpart of the quadrature tolerance-halving check
        bsol = integrate_many(np.linspace(WINDOW_LO, WINDOW_HI, 5))
        xi, _ = deployment_parameters(bsol)
        for k in range(5):
            carried = bsol.values(xi[k : k + 1], 2, [k])[0]
            quad = inspection_integral(column_solution(bsol, k), float(xi[k]))
            assert abs(carried - quad) <= 1e-10

    def test_column_view_matches_shared_evaluation(self):
        bsol = integrate_many(np.linspace(WINDOW_LO, WINDOW_HI, 4))
        xs = np.linspace(0.1, 0.9, 9)
        shared = bsol.values(xs[:, None], 1)
        for k in range(4):
            assert np.array_equal(column_solution(bsol, k).values(xs)[1], shared[:, k])
        assert bsol.values(bsol.x0, 2)[0] == 0.0
