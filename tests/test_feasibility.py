import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from diskinspect import continuum, feasibility
from diskinspect.cli import main
from diskinspect.continuum import curve_points, integrate, integrate_pencil
from diskinspect.cost import total_cost
from diskinspect.errors import DiskInspectError, NoCrossing, OutOfRange
from diskinspect.feasibility import (
    ENCLOSURE_SLACK,
    ROOT_TOL,
    WINDOW_HI,
    WINDOW_LO,
    assess,
    clearance_certificate,
    clearance_from_tau,
    deployment_parameter,
    feasibility_sweep,
)
from diskinspect.optimizer import REFINE_XATOL, refine_minimum, sweep_cost

from conftest import CONVERGED_XI_AT_PUBLISHED_TAU0, PUBLISHED_TAU0, crossing_only
from scan_oracle import bisect_root, scan_crossing, scan_tau_min

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

    @pytest.mark.parametrize("tau0", [1e-12, 1e-6, 1e-4])
    def test_tiny_tau0_crosses_near_the_start(self, tau0):
        # tau falls below -pi x just past x0: g rises through 0 next to the
        # node 2 x0, and the curve has passed through the disk
        for r in (assess(integrate(tau0)), feasibility_sweep(tau0, 2.0 * tau0, 2)[0]):
            assert r.tau0 == tau0 and r.error is None
            assert r.xi < 1e-3 and r.tau_min < 0.0 and not r.feasible

    def test_deployment_identity(self, sol_star):
        # T2(xi) = tan((1-xi)*pi)
        xi, _ = deployment_parameter(sol_star)
        t2 = curve_points(sol_star, [xi])[0][1]
        assert abs(t2 - math.tan((1.0 - xi) * PI)) <= 1e-7


class _DriftingPolish:
    """sol, except that once armed each point() read after the first reads
    tau 1e-7 higher: the Newton polish's residual grows while it stays
    inside the crossing bracket.  It is armed once the crossing root
    returns (``arm_after``), so the brackets and the regula falsi read sol."""

    def __init__(self, sol):
        self.sol = sol
        self.calls = None

    def __getattr__(self, name):
        return getattr(self.sol, name)

    def point(self, x):
        psi, tau = self.sol.point(x)
        if self.calls is not None:
            tau += 1e-7 * self.calls
            self.calls += 1
        return psi, tau

    def arm_after(self, falsi):
        """falsi, which arms the drift as it returns."""

        def armed(f, a, b):
            root = falsi(f, a, b)
            self.calls = 0
            return root

        return armed


class TestNewtonPolishGuard:
    @staticmethod
    def astray(monkeypatch):
        # a crossing root past its bracket, as a Newton iterate leaving it
        # would be; the point is still inside the solved range
        monkeypatch.setattr(feasibility, "_falsi_root", crossing_only(
            feasibility._falsi_root, lambda f, a, b: b + 1e-3))

    def test_iterate_outside_bracket_raises(self, sol_star, monkeypatch):
        self.astray(monkeypatch)
        with pytest.raises(OutOfRange, match="left the crossing bracket"):
            deployment_parameter(sol_star)

    def test_growing_residual_raises(self, sol_star, monkeypatch):
        drifting = _DriftingPolish(sol_star)
        monkeypatch.setattr(feasibility, "_falsi_root",
                            drifting.arm_after(feasibility._falsi_root))
        with pytest.raises(OutOfRange, match="raised"):
            deployment_parameter(drifting)

    def test_trace_exits_2(self, tmp_path, monkeypatch, capsys):
        self.astray(monkeypatch)
        rc = main(["--out", str(tmp_path / "o"), "trace", "--tau0", "1.6475"])
        assert rc == 2
        assert "OutOfRange" in capsys.readouterr().out


class TestSelfCheckGap:
    """The gap is |polished xi - bracket root|: a bracket root moved 1e-6
    inside its scan bracket leaves xi where it was, and the gap shows it."""

    @staticmethod
    def displaced(root, a, b):
        return root + np.where(root < 0.5 * (a + b), 1e-6, -1e-6)

    def test_scalar_path(self, sol_star, monkeypatch):
        xi, _ = deployment_parameter(sol_star)
        falsi = feasibility._falsi_root
        monkeypatch.setattr(feasibility, "_falsi_root", crossing_only(
            falsi, lambda f, a, b: float(self.displaced(falsi(f, a, b), a, b))))
        moved, gap = deployment_parameter(sol_star)
        assert abs(moved - xi) <= 1e-12
        assert gap > 2e-8

    def test_pencil_path(self, monkeypatch):
        reports = feasibility_sweep(WINDOW_LO, WINDOW_HI, 4)
        falsi = feasibility._falsi_many
        monkeypatch.setattr(feasibility, "_falsi_many", crossing_only(
            falsi, lambda f, a, b: self.displaced(falsi(f, a, b), a, b)))
        moved = feasibility_sweep(WINDOW_LO, WINDOW_HI, 4)
        assert all(m.error is None for m in moved)
        for r, m in zip(reports, moved):
            assert abs(m.xi - r.xi) <= 1e-12
            assert m.xi_selfcheck_gap > 2e-8


def _cubic(s, r, c):
    """x -> s (x - r) (1 + c (x - r)^2), for floats or arrays alike: one sign
    change, at r, and |f| grows with |x - r|."""

    def f(x):
        d = x - r
        return s * d * (1.0 + c * d * d)

    return f


def _counted(f):
    """f, and the list of the abscissae it is called at."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return counted, calls


def _cap(a, b, tol):
    """_falsi_root's evaluation cap on [a, b] at tol."""
    return 4 * math.ceil(math.log2((b - a) / tol)) + 2


class _CountedPoints:
    """sol, counting its single-point reads."""

    def __init__(self, sol):
        self.sol = sol
        self.points = 0

    def __getattr__(self, name):
        return getattr(self.sol, name)

    def point(self, x):
        self.points += 1
        return self.sol.point(x)


#: The tolerances of _falsi_root's callers: x for the crossing and the
#: clearance, tau0 for the optimizer's dcost/dtau0.
TOLS = (ROOT_TOL, REFINE_XATOL)


class TestRegulaFalsi:
    """The crossing, clearance and dcost/dtau0 roots, against the bisection
    that found the first two before (``scan_oracle.bisect_root``)."""

    @given(st.sampled_from([1.0, -1.0]), st.floats(0.0, 1.0), st.floats(-9.0, -1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1e4), st.sampled_from(TOLS))
    @example(1.0, 0.3, -1.0, 1.0, 0.0, ROOT_TOL)  # the root at b, where f = 0 >= 0
    @example(-1.0, 0.3, -1.0, 0.0, 0.0, ROOT_TOL)  # the root at a, where f = 0 >= 0
    @example(1.0, 0.3, -1.0, 0.5, 1e4, ROOT_TOL)
    @example(1.0, 0.3, -1.0, 0.5, 1e4, REFINE_XATOL)
    def test_closes_on_the_bisection_root(self, s, a, log_width, u, c, tol):
        b = a + 10.0 ** log_width
        r = a + u * (b - a)
        assume(a < r or s < 0)  # f >= 0 on all of [a, b]: no sign change
        f, calls = _counted(_cubic(s, r, c))
        x = feasibility._falsi_root(f, a, b, tol)
        assert abs(x - r) <= tol
        assert abs(x - bisect_root(_cubic(s, r, c), a, b)) <= ROOT_TOL
        assert len(calls) <= _cap(a, b, tol)

    def test_same_sign_ends_return_b(self):
        f, calls = _counted(_cubic(1.0, -1.0, 0.0))
        assert feasibility._falsi_root(f, 0.0, 1.0) == 1.0
        assert calls == [0.0, 1.0]

    @pytest.mark.parametrize("low, high", [(-1.0, 1.0), (-1.0, 1e12), (-1e-300, 1e300)])
    def test_jump_stays_within_the_cap(self, low, high):
        for tol in TOLS:
            f, calls = _counted(lambda x: low if x < 0.3 else high)
            assert abs(feasibility._falsi_root(f, 0.0, 1.0, tol) - 0.3) <= tol
            assert len(calls) <= _cap(0.0, 1.0, tol)

    def test_a_converged_end_does_not_hold_the_other(self):
        # label 17 of the 50-point window: its secant points fall within
        # ROOT_TOL/4 of the end that has converged, and moving them inward
        # closes the bracket in 7 evaluations instead of 18
        pencil, taus = feasibility.window_pencil(WINDOW_LO, WINDOW_HI, 50)
        tau0 = float(taus[17])
        assert tau0 == 1.6488885714285715
        (a,), (b,), _ = feasibility._brackets(
            feasibility._Lines.of_pencil(pencil, taus[17:18]),
            lambda x, i: pencil.state(x, tau0)[1])
        f, calls = _counted(lambda x: float(feasibility._g(
            pencil.state(x, tau0)[1], math.sin(math.pi * x), math.cos(math.pi * x))))
        feasibility._falsi_root(f, float(a), float(b))
        assert len(calls) <= 9

    def test_many_decides_as_one(self):
        # 50 independent functions, some without a sign change in [a, b] and
        # some with their root at an end
        rng = np.random.default_rng(33)
        s = rng.choice([-1.0, 1.0], 50)
        c = np.where(rng.random(50) < 0.3, 0.0, 10.0 ** rng.uniform(-2.0, 4.0, 50))
        a = rng.uniform(0.0, 1.0, 50)
        b = a + 10.0 ** rng.uniform(-9.0, -1.0, 50)
        r = a + rng.uniform(-0.2, 1.2, 50) * (b - a)
        r[:4] = a[:2].tolist() + b[2:4].tolist()
        one = [feasibility._falsi_root(_cubic(*args[:3]), *args[3:])
               for args in zip(s.tolist(), r.tolist(), c.tolist(), a.tolist(), b.tolist())]
        assert feasibility._falsi_many(_cubic(s, r, c), a, b).tolist() == one

    def test_point_reads_at_published_tau0(self, sol_star):
        # the bisection made 28 reads for the crossing and 31 for the
        # clearance; without the Illinois halving the clearance takes 17, and
        # reading its bracket ends anew instead of their node values 14
        sol = _CountedPoints(sol_star)
        xi, _ = deployment_parameter(sol)
        assert sol.points <= 12
        sol.points = 0
        clearance_certificate(sol, xi)
        assert sol.points <= 12

    def test_vectorized_reads_of_a_window_pass(self, monkeypatch):
        # sweep-feasibility and optimize at grid 50: the bisection read the
        # pencil 88 times, 83 of them on its steps gathered per bracket
        reads = []
        values = continuum.Pencil.values

        def counted(pencil, x):
            reads.append(np.ndim(x))
            return values(pencil, x)

        monkeypatch.setattr(continuum.Pencil, "values", counted)
        feasibility_sweep(WINDOW_LO, WINDOW_HI, 50)
        refine_minimum(WINDOW_LO, WINDOW_HI, 50)
        assert 0 < len(reads) <= 35


class TestCrossingNextToScanAbscissa:
    """Labels whose root lies 1e-11 right of an abscissa of the 10,000-point
    scan that once found the crossing, where g read about -1e-10 on the
    sample left of it.  Each path has its own labels, found by a secant on
    tau0 and kept with their xi as the scan-based code computed them."""

    #: (scalar label, its xi, pencil label, its xi) per scan abscissa.
    LABELS = (
        (1.6491068945004959, 0.6600663465445725, 1.6491068945004963, 0.6600663465446547),
        (1.647449783845541, 0.7050708019902322, 1.6474497838455546, 0.7050708019902024),
        (1.6470683202885357, 0.7500752574362829, 1.647068320288562, 0.7500752574350847),
        (1.646986104371242, 0.7950797128816582, 1.6469861043712708, 0.7950797128812975),
        (1.6469700507569074, 0.8400841683287038, 1.646970050756939, 0.8400841683267464),
    )

    def test_both_paths_find_the_crossing(self):
        pencil, _ = feasibility.window_pencil(WINDOW_LO, WINDOW_HI, 2)
        for scalar, xi_scalar, label, xi_pencil in self.LABELS:
            assert deployment_parameter(integrate(scalar))[0] == pytest.approx(
                xi_scalar, abs=1e-15)
            xi, _, error = feasibility.deployment_parameters(pencil, [label])
            # the pencil's tau cancels to ~250 eps near x = 0.84, and Newton
            # steps from 41 starts within 2.5e-10 of that root end in a band
            # 7e-15 wide; at the other four labels xi moves by <= 1 ulp
            assert error[0] is None
            assert xi[0] == pytest.approx(xi_pencil, abs=5e-15)


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


#: Labels of the crossing oracle: wide, in the cliff band below the window,
#: and three whose curves cross just past the start.
LABELS = st.one_of(st.floats(0.05, 10.0), st.floats(1.6469, 1.64697),
                   st.sampled_from([1e-12, 1e-6, 1e-4]))


class TestStepEnclosure:
    @given(st.floats(0.0, 1.0), st.floats(1e-6, 0.2), st.floats(-50.0, 50.0),
           st.floats(0.0, 10.0))
    @example(0.7, 0.1, 1.0, 0.0)  # sin's minimum at x = 3/4 is inside
    @example(0.95, 0.05, -5.0, 1.0)  # g(1) = 0 exactly, and tau < 0 there
    def test_bound_encloses_g(self, x_lo, width, t_lo, t_width):
        # g at the abscissae where it is known exactly (x = 1/4, 1/2, 3/4
        # and 1), and within 8 eps (1 + |tau|) of its float value elsewhere
        x_hi, t_hi = min(x_lo + width, 1.0), t_lo + t_width
        slack = ENCLOSURE_SLACK * (1.0 + max(abs(t_lo), abs(t_hi)))
        bound = feasibility._g_bound(t_lo, t_hi, x_lo, x_hi, slack)
        exact = {0.25: lambda t: -t - 1.0, 0.5: lambda t: -2.0, 0.75: lambda t: t - 1.0,
                 1.0: lambda t: 0.0}
        for t in (t_lo, t_hi):
            for x, g in exact.items():
                if x_lo <= x <= x_hi:
                    assert bound >= g(t), (x, t)
            for x in np.linspace(x_lo, x_hi, 33):
                g = math.cos(math.tau * x) - t * math.sin(math.tau * x) - 1.0
                assert bound >= g - 8 * sys.float_info.epsilon * (1.0 + abs(t)), (x, t)

    @given(LABELS)
    @example(1e-12)
    @example(1.6469)
    @example(WINDOW_LO)
    def test_brackets_hold_the_scan_crossing(self, tau0):
        # both paths, each solved up to its crossing: the bracket holds the
        # root of the first sign change on the 10,000-point scan of [x0, 1],
        # and there is no bracket where the scan finds no sign change.  The
        # scans read solves to x = 1, whose steps up to the crossing are the
        # same
        sol = integrate(tau0, stop=feasibility.crossed)
        pencil, (label, _) = feasibility.window_pencil(tau0, 2.0 * tau0, 2)
        full_sol, full_pencil = integrate(tau0), integrate_pencil(pencil.tau_bar)
        paths = {
            "scalar": (feasibility._brackets(
                feasibility._Lines.of_solution(sol), lambda x, i: sol.values(x)[1]),
                lambda x: full_sol.values(x)[1]),
            "pencil": (feasibility._brackets(
                feasibility._Lines.of_pencil(pencil, np.array([label])),
                lambda x, i: pencil.state(x, label)[1]),
                lambda x: full_pencil.state(x, label)[1]),
        }
        for name, (((a,), (b,), (found,)), tau_of) in paths.items():
            root = scan_crossing(pencil.x0, tau_of)
            assert found == (root is not None), name
            if found:
                tol = feasibility.ROOT_TOL
                assert a - tol <= root <= b + tol, (name, a, root, b)

    @pytest.mark.parametrize("tau0", [1.6, 1.64696])
    def test_curve_below_the_line_at_x1_has_no_crossing(self, tau0):
        # tau(1) < 0: g(1) = T1(1) - 1 is exactly 0 but reads -|tau| 2.4e-16,
        # so the last step's end is no bracket, and no earlier step rises
        sol = integrate(tau0)
        assert sol.point(1.0)[1] < 0.0
        with pytest.raises(NoCrossing):
            deployment_parameter(sol)
        assert feasibility_sweep(tau0, tau0 + 1e-3, 2)[0].error == "NoCrossing"


class TestSolveToTheCrossing:
    @given(LABELS)
    @example(PUBLISHED_TAU0)
    @example(1.6)  # tau(1) < 0: no crossing, so the solve runs on to x = 1
    def test_certificate_and_cost_are_the_full_solve_ones(self, tau0):
        # the solve that refine_minimum certifies and cost_at prices ends at
        # its first node with g >= 0; nothing they read lies past it
        def certify(sol):
            # the report, then the cost; the kind of the first that raises
            done = []
            try:
                done.append(assess(sol))
                done.append(total_cost(sol, done[0].xi))
            except DiskInspectError as exc:
                done.append(exc.kind)
            return done

        sol, full = integrate(tau0, stop=feasibility.crossed), integrate(tau0)
        assert certify(sol) == certify(full)
        assert sol.grid.tolist() == full.grid[:len(sol.grid)].tolist()
        if certify(full) == ["NoCrossing"]:
            assert sol.x_end == 1.0


class TestClearance:
    def test_tau_min_at_published_tau0(self, sol_star):
        xi, _ = deployment_parameter(sol_star)
        tau_min, _ = clearance_certificate(sol_star, xi)
        assert tau_min == pytest.approx(0.24774522, abs=1e-4)
        assert clearance_from_tau(tau_min) == pytest.approx(0.0302318, abs=1e-4)

    @pytest.mark.parametrize("tau0", DIVING)
    def test_minimum_at_the_crossing_end(self, tau0):
        # these curves dive into the disk and tau falls all the way to the
        # crossing: tau' < 0 across the last bracket, so its regula falsi has no
        # sign change and returns xi itself, the bracket end
        sol = integrate(tau0)
        xi, _ = deployment_parameter(sol)
        tau_min, _ = clearance_certificate(sol, xi)
        assert tau_min == sol.point(xi)[1]
        assert tau_min <= sol.values(np.linspace(sol.x0, xi, 200_001))[1].min()

    @staticmethod
    def check(tau_min, tau_lower, tau_of, slope_of, x0, xi):
        """tau_min against the dense minimum and the scan's prefix argmin, and
        tau_lower below both, by at most 2e-3 (a step's enclosure is loose by
        ~1e-4 near an interior minimum, and tight at an end)."""
        refined, sampled = dense_minimum(tau_of, x0, xi)
        assert abs(tau_min - refined) <= 1e-12
        assert tau_min <= sampled
        assert tau_min == pytest.approx(scan_tau_min(x0, xi, tau_of, slope_of),
                                        rel=1e-14, abs=1e-15)
        assert min(refined, sampled) >= tau_lower >= tau_min - 2e-3

    @pytest.mark.parametrize("tau0", CLEARING + DIVING)
    def test_scalar_matches_dense_minimum(self, tau0):
        sol = integrate(tau0)
        xi, _ = deployment_parameter(sol)
        self.check(*clearance_certificate(sol, xi), lambda x: sol.values(x)[1],
                   lambda x: feasibility._tau_slope(sol, x), sol.x0, xi)
        # the bracket ends' smaller tau, from the step nodes or tau(xi) where
        # the bracket ends at xi, as a diving curve's does, is the dense read
        (a,), (b,), (ends,) = feasibility._clearance_brackets(
            feasibility._Lines.of_solution(sol), sol.point(xi)[1], np.array([xi]))
        assert ends == min(sol.point(float(a))[1], sol.point(float(b))[1])
        assert (b == xi) == (tau0 in DIVING)

    @pytest.mark.parametrize("lo, hi, grid", [(WINDOW_LO, WINDOW_HI, 5), (*DIVING, 2)],
                             ids=["window", "diving"])
    def test_pencil_matches_dense_minimum(self, lo, hi, grid):
        # the oracles scan [x0, 1] on the pencil solved to x = 1, whose steps
        # up to the window pencil's end are the same
        pencil, tau0s = feasibility.window_pencil(lo, hi, grid)
        full = integrate_pencil(pencil.tau_bar)
        xi, _, _ = feasibility.deployment_parameters(pencil, tau0s)
        a, b, ends = feasibility._clearance_brackets(
            feasibility._Lines.of_pencil(pencil, tau0s), pencil.state(xi, tau0s)[1], xi)
        assert np.array_equal(ends, np.minimum(pencil.state(a, tau0s)[1],
                                               pencil.state(b, tau0s)[1]))
        for tau0, x, m, lower in zip(tau0s, xi, *feasibility.clearance_minima(pencil, xi, tau0s)):
            def slope_of(y, tau0=tau0):
                psi, tau, _ = full.state(y, tau0)
                return float(tau * np.cos(psi) / np.sin(psi) - 1.0)

            self.check(m, lower, lambda y: full.state(y, tau0)[1], slope_of, pencil.x0, x)
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
