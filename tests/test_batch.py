"""The tau0 pencil behind the window sweeps, checked against the scalar path.

The scalar pipeline (integrate -> assess / cost_at) is the reference: every
test recomputes its rows one start value at a time and compares.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from diskinspect import continuum, feasibility, optimizer
from diskinspect.continuum import OdeSolution, integrate, integrate_pencil
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

from conftest import crossing_only

#: Agreement required of a pencil row with its scalar row.
XI_TOL = 1e-8
TAU_MIN_TOL = 1e-8
GAP_MAX = 2e-8

WINDOW_MID = 0.5 * (WINDOW_LO + WINDOW_HI)


def _scalar_report(tau0, **kwargs):
    try:
        return assess(integrate(tau0, **kwargs)), None
    except DiskInspectError as exc:
        return None, exc.kind


def _scalar_cost(tau0, **kwargs):
    try:
        return cost_at(tau0, **kwargs), None
    except DiskInspectError as exc:
        return math.nan, exc.kind


def row_solution(pencil, tau0):
    """The label tau0 of a pencil as a scalar OdeSolution over the same dense output."""

    def dense(x):
        psi, tau, _ = pencil.state(x, tau0)
        return np.stack([psi, tau])

    dense.ts = pencil.grid
    return OdeSolution(pencil.x0, dense, 0, 0, tau0=tau0, tol=continuum.ODE_TOL)


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

    @pytest.mark.parametrize("kwargs", [
        {"x0": 1e-7},
        {"tol": 1e-11},
    ])
    def test_start_and_tolerance_variants(self, kwargs):
        assert_reports_match(feasibility_sweep(WINDOW_LO, WINDOW_HI, 3, **kwargs),
                             WINDOW_LO, WINDOW_HI, 3, **kwargs)
        assert_costs_match(sweep_cost(WINDOW_LO, WINDOW_HI, 3, **kwargs),
                           WINDOW_LO, WINDOW_HI, 3, **kwargs)

    @pytest.mark.parametrize("lo, hi, grid", [(1.7, 2.5, 9), (0.05, 10.0, 12),
                                              (1.6469764, 1.6469774, 10)])
    def test_wide_windows(self, lo, hi, grid):
        # |tau0 - tau_bar| reaches 0.4 and 5 here, but so does |tau| where
        # (tau0 - tau_bar) * B is large, so the rows lose no digits; the
        # third window is 1e-6 wide, at tau0*
        assert_reports_match(feasibility_sweep(lo, hi, grid), lo, hi, grid)
        assert_costs_match(sweep_cost(lo, hi, grid), lo, hi, grid)

    def test_no_crossing_rows(self):
        reports = feasibility_sweep(1.63, 1.64, 3)
        assert [r.error for r in reports] == ["NoCrossing"] * 3
        assert_reports_match(reports, 1.63, 1.64, 3)
        rows = sweep_cost(1.63, 1.64, 3)
        assert [e for _, _, e in rows] == ["NoCrossing"] * 3
        assert_costs_match(rows, 1.63, 1.64, 3)


class TestNewtonLeavesRange:
    def test_only_that_row_is_an_error_row(self, monkeypatch):
        # throw one label's crossing root past the solved range, as a
        # Newton iterate leaving it would be; the other rows are untouched
        lo, hi, grid = WINDOW_LO, WINDOW_HI, 4
        reports = feasibility_sweep(lo, hi, grid)
        rows = sweep_cost(lo, hi, grid)
        falsi = feasibility._falsi_many

        def astray(f, a, b):
            xi = falsi(f, a, b)
            xi[1] = 1.5  # past the solved range [x0, x_end], x_end <= 1
            return xi

        monkeypatch.setattr(feasibility, "_falsi_many", crossing_only(falsi, astray))
        bad_reports = feasibility_sweep(lo, hi, grid)
        bad_rows = sweep_cost(lo, hi, grid)
        assert [r.error for r in bad_reports] == [None, "OutOfRange", None, None]
        assert all(math.isnan(v) for v in (bad_reports[1].xi, bad_reports[1].tau_min))
        assert [e for _, _, e in bad_rows] == [None, "OutOfRange", None, None]
        assert math.isnan(bad_rows[1][1])
        for k in (0, 2, 3):
            assert bad_reports[k] == reports[k]
            assert bad_rows[k] == rows[k]

    def test_leaving_the_bracket_inside_the_range(self, monkeypatch):
        # one label's crossing root past its scan bracket but inside the
        # solved range: the Newton iterate is out of its bracket
        lo, hi, grid = WINDOW_LO, WINDOW_HI, 4
        reports = feasibility_sweep(lo, hi, grid)
        x_end = feasibility.window_pencil(lo, hi, grid)[0].x_end
        falsi = feasibility._falsi_many

        def astray(f, a, b):
            xi = falsi(f, a, b)
            xi[2] = b[2] + 1e-3
            assert xi[2] < x_end  # inside the solved range [x0, x_end]
            return xi

        monkeypatch.setattr(feasibility, "_falsi_many", crossing_only(falsi, astray))
        bad_reports = feasibility_sweep(lo, hi, grid)
        assert [r.error for r in bad_reports] == [None, None, "OutOfRange", None]
        for k in (0, 1, 3):
            assert bad_reports[k] == reports[k]


class _DriftingPencil:
    """pencil, except that once armed each state() read reads the label
    tau0's tau 1e-7 higher than the read before: that row's Newton residual
    grows while its iterates stay inside the scan bracket."""

    def __init__(self, pencil, tau0):
        self.pencil = pencil
        self.tau0 = tau0
        self.armed = False
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.pencil, name)

    def state(self, x, tau0):
        psi, tau, integral = self.pencil.state(x, tau0)
        if self.armed:
            tau = tau + np.where(np.asarray(tau0) == self.tau0, 1e-7 * self.calls, 0.0)
            self.calls += 1
        return psi, tau, integral


class TestNewtonResidualGuard:
    def test_only_that_row_is_an_error_row(self, monkeypatch):
        # the pencil counterpart of the scalar polish's residual guard
        lo, hi, grid = WINDOW_LO, WINDOW_HI, 4
        reports = feasibility_sweep(lo, hi, grid)
        rows = sweep_cost(lo, hi, grid)
        pencil, taus = feasibility.window_pencil(lo, hi, grid)
        drifting = _DriftingPencil(pencil, taus[1])
        falsi = feasibility._falsi_many

        def arming(f, a, b):
            # drift only in the Newton polish, which follows the crossing
            # root
            drifting.armed = False
            xi = falsi(f, a, b)
            drifting.armed, drifting.calls = True, 0
            return xi

        monkeypatch.setattr(feasibility, "_falsi_many", crossing_only(falsi, arming))
        for module in (feasibility, optimizer):
            monkeypatch.setattr(module, "window_pencil", lambda *a, **k: (drifting, taus))
        bad_reports = feasibility_sweep(lo, hi, grid)
        bad_rows = sweep_cost(lo, hi, grid)
        assert drifting.calls > 3
        assert [r.error for r in bad_reports] == [None, "OutOfRange", None, None]
        assert all(math.isnan(v) for v in (bad_reports[1].xi, bad_reports[1].tau_min))
        assert [e for _, _, e in bad_rows] == [None, "OutOfRange", None, None]
        assert math.isnan(bad_rows[1][1])
        for k in (0, 2, 3):
            assert bad_reports[k] == reports[k]
            assert bad_rows[k] == rows[k]


class TestToleranceDrift:
    def test_halving_rtol_moves_rows_below_noise(self):
        tol = continuum.ODE_TOL
        coarse = sweep_cost(WINDOW_LO, WINDOW_HI, 5, tol=tol)
        fine = sweep_cost(WINDOW_LO, WINDOW_HI, 5, tol=tol / 2)
        for (t_a, c_a, e_a), (t_b, c_b, e_b) in zip(coarse, fine):
            assert (t_a, e_a, e_b) == (t_b, None, None)
            assert abs(c_a - c_b) <= SWEEP_NOISE_TOL


class TestGuard:
    def test_tightened_guard_raises(self, monkeypatch):
        # psi dips to ~0.16 inside the window, so a band of (0.3, pi - 0.3)
        # is left near x ~ 0.576 by every label alike: the scalar solve and
        # the pencil fail the same way, and no row is ever read off a range
        # that ends before x = 1
        monkeypatch.setattr(continuum, "PSI_GUARD", 0.3)
        with pytest.raises(StepFailure, match="left the guard band"):
            integrate(WINDOW_LO)
        with pytest.raises(StepFailure, match="left the guard band"):
            integrate_pencil(WINDOW_MID)

    def test_real_guard_not_reached(self):
        # the guard checks psi at the step nodes only; sampling the
        # pencil's psi 20 times per step also rules out a dip past the
        # guard that returns within one step
        pencil = integrate_pencil(0.5 * (0.05 + 10.0))
        assert pencil.x_end == 1.0
        t = np.linspace(0.0, 1.0, 21)
        xs = (pencil.grid[:-1, None] + t * np.diff(pencil.grid)[:, None]).ravel()
        psi = pencil.values(xs)[0]
        assert np.all(psi > continuum.PSI_GUARD)
        assert np.all(psi < math.pi - continuum.PSI_GUARD)


def state_rows(pencil, tau0s):
    """(xi, gap, error, tau_min, tau_lower) of the labels tau0s as the sweeps
    read them, every regula falsi step and Newton step through Pencil.state:
    a label's polish ends once its iterate leaves its bracket or its Newton
    step is at most PROBE_XI_STEP."""
    lines = feasibility._Lines.of_pencil(pencil, tau0s)
    a, b, found = feasibility._brackets(lines, lambda x, i: pencil.state(x, tau0s[i])[1])
    taus, a, b = tau0s[found], a[found], b[found]
    root = feasibility._falsi_many(lambda x: feasibility._g(
        pencil.state(x, taus)[1], np.sin(math.pi * x), np.cos(math.pi * x)), a, b)
    xi, g_root, g_last = root.copy(), np.full(len(taus), math.nan), np.full(len(taus), math.nan)
    for k in range(len(taus)):
        for step in range(3):
            if not a[k] <= xi[k] <= b[k]:
                break
            psi, tau, _ = pencil.state(xi[k:k + 1], taus[k:k + 1])
            x = math.pi * xi[k:k + 1]
            g, g_x = feasibility.g_and_slope(tau, np.cos(psi) / np.sin(psi), np.sin(x), np.cos(x))
            g_last[k] = abs(g[0])
            g_root[k] = g_root[k] if step else g_last[k]
            xi[k] -= g[0] / g_x[0]
            if abs(g[0] / g_x[0]) <= feasibility.PROBE_XI_STEP:
                break
    ok = (xi >= a) & (xi <= b) & ~(g_last > g_root + feasibility.NEWTON_G_SLACK)
    out = np.full((4, len(tau0s)), math.nan)
    out[:2, found] = np.where(ok, [xi, np.abs(xi - root)], math.nan)
    error = np.full(tau0s.shape, "NoCrossing", dtype=object)
    error[found] = np.where(ok, None, "OutOfRange")

    xi, taus = out[0, ~np.isnan(out[0])], tau0s[~np.isnan(out[0])]
    lines = lines.labels(~np.isnan(out[0]))
    lo, hi = feasibility._clearance_brackets(lines, pencil.state(xi, taus)[1], xi)

    def slope(x):
        psi, tau, _ = pencil.state(x, taus)
        return tau * np.cos(psi) / np.sin(psi) - 1.0

    x = feasibility._falsi_many(slope, lo, hi)
    out[2:, ~np.isnan(out[0])] = (np.min([pencil.state(e, taus)[1] for e in (x, lo, hi)], axis=0),
                                  feasibility._tau_lower(lines, xi))
    return out[0], out[1], list(error), out[2], out[3]


def _windows(lo, hi):
    """(lo, hi) pairs inside [lo, hi]."""
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted).filter(
        lambda w: w[0] < w[1])


class TestTruncatedPencil:
    """The window pencil ends once both end labels have crossed: every row
    is the one that a pencil solved to x = 1 gives when each label is
    polished on its own (``state_rows``)."""

    @given(st.one_of(_windows(WINDOW_LO, WINDOW_HI),
                     st.tuples(st.floats(1.6469, 1.64697), st.floats(1.64697, 1.6471)),
                     _windows(0.5, 3.0), _windows(1e-12, 1e-3)),
           st.integers(2, 12))
    @example((WINDOW_LO, WINDOW_HI), 50)
    @example((1.6469, 1.64697), 8)
    @example((0.5, 3.0), 9)
    @example((1e-12, 1e-3), 4)
    def test_rows_are_the_full_pencil_rows(self, window, grid):
        lo, hi = window
        assume(lo < hi)
        pencil, tau0s = feasibility.window_pencil(lo, hi, grid)
        xi, gap, error = deployment_parameters(pencil, tau0s)
        found = ~np.isnan(xi)
        tau_min, tau_lower = np.full((2, grid), math.nan)
        tau_min[found], tau_lower[found] = feasibility.clearance_minima(
            pencil, xi[found], tau0s[found])
        full = integrate_pencil(pencil.tau_bar)
        ref = state_rows(full, tau0s)
        assert list(error) == ref[2]
        for ours, theirs in zip((xi, gap, tau_min, tau_lower), ref[:2] + ref[3:]):
            assert np.array_equal(ours, theirs, equal_nan=True)
        assert pencil.grid.tolist() == full.grid[:len(pencil.grid)].tolist()
        if "NoCrossing" in ref[2]:
            assert pencil.x_end == 1.0


class TestQuadratureTolerances:
    def test_unknown_keyword_is_rejected(self):
        with pytest.raises(TypeError):
            sweep_cost(WINDOW_LO, WINDOW_HI, 2, quad_rtl=1e-9)


class TestAugmentedState:
    def test_integral_matches_quadrature_over_same_dense_output(self):
        # augmented-state counterpart of the quadrature tolerance-halving check
        pencil = integrate_pencil(WINDOW_MID)
        taus = np.linspace(WINDOW_LO, WINDOW_HI, 5)
        xi, _, _ = deployment_parameters(pencil, taus)
        for k, tau0 in enumerate(taus):
            carried = pencil.state(xi[k], tau0)[2]
            quad = inspection_integral(row_solution(pencil, float(tau0)), float(xi[k]))
            assert abs(carried - quad) <= 1e-10

    def test_column_view_matches_shared_evaluation(self):
        pencil = integrate_pencil(WINDOW_MID)
        taus = np.linspace(WINDOW_LO, WINDOW_HI, 4)
        xs = np.linspace(0.1, 0.9, 9)
        shared = pencil.state(xs[:, None], taus)[1]
        for k, tau0 in enumerate(taus):
            row = row_solution(pencil, tau0).values(xs)[1]
            assert np.array_equal(row, shared[:, k])
        assert np.all(pencil.state(pencil.x0, taus)[2] == 0.0)

    def test_scalar_rows_read_off_the_pencil(self):
        # tau is affine in the label: the pencil reproduces each scalar
        # trajectory to within the scalar solver's own tolerance drift
        pencil = integrate_pencil(WINDOW_MID)
        xs = np.array([0.1, 0.3, 0.5, 0.7])
        for tau0 in np.linspace(WINDOW_LO, WINDOW_HI, 3):
            ref = integrate(float(tau0)).values(xs)
            psi, tau, _ = pencil.state(xs, tau0)
            assert np.max(np.abs(psi - ref[0])) <= 1e-10
            assert np.max(np.abs(tau - ref[1])) <= 1e-9
