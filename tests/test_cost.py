import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diskinspect import cost as cost_mod
from diskinspect.artifacts import write_json
from diskinspect.continuum import integrate
from diskinspect.cost import (
    QUAD_ATOL,
    QUAD_RTOL,
    closed_form_slope,
    deployment_term,
    full_cost_from_partial,
    inspection_integral,
    log_term,
    partial_cost,
    total_cost,
)
from diskinspect.errors import QuadratureNoConverge, XiOutOfRange
from diskinspect.feasibility import WINDOW_HI, WINDOW_LO, deployment_parameter

from conftest import PUBLISHED_COST, PUBLISHED_TAU0

PI = math.pi


def adaptive_quadrature(sol, xi, **kwargs):
    """scipy's adaptive Gauss-Kronrod quadrature of the inspection integrand,
    an oracle independent of the library's rule."""
    quad = pytest.importorskip("scipy.integrate").quad

    def integrand(x):
        psi, tau = sol.point(x)
        return 2.0 * PI * x * tau / math.sin(psi)

    return quad(integrand, sol.x0, xi, epsabs=QUAD_ATOL, epsrel=QUAD_RTOL, **kwargs)[0]


class TestInspectionIntegral:
    def test_empty_interval(self, sol_star):
        assert inspection_integral(sol_star, 0.0) == 0.0
        assert inspection_integral(sol_star, sol_star.x0) == 0.0

    def test_derivative_matches_integrand(self, sol_star):
        # d/dxi of the integral is 2*pi*xi*tau(xi)/sin(psi(xi))
        xi, _ = deployment_parameter(sol_star)
        h = 1e-5
        fd = (
            inspection_integral(sol_star, xi + h)
            - inspection_integral(sol_star, xi - h)
        ) / (2.0 * h)
        psi, tau = sol_star.values(xi)
        exact = 2.0 * PI * xi * tau / math.sin(psi)
        assert abs(fd - exact) / abs(exact) <= 1e-6

    def test_tolerance_halving_drift(self, sol_star, monkeypatch):
        xi, _ = deployment_parameter(sol_star)
        a = inspection_integral(sol_star, xi)
        monkeypatch.setattr(cost_mod, "QUAD_RTOL", 5e-13)
        monkeypatch.setattr(cost_mod, "QUAD_ATOL", 5e-15)
        b = inspection_integral(sol_star, xi)
        assert abs(a - b) <= 1e-10

    def test_increasing_in_xi(self, sol_star):
        xis = np.linspace(0.2, 0.81, 12)
        vals = [inspection_integral(sol_star, float(x)) for x in xis]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("tau0", [WINDOW_LO, PUBLISHED_TAU0, 1.6497, WINDOW_HI, 2.0])
    def test_matches_adaptive_quadrature(self, tau0):
        # across the window and at one wide label
        sol = integrate(tau0)
        xi, _ = deployment_parameter(sol)
        ref = adaptive_quadrature(sol, xi, limit=200)
        assert abs(inspection_integral(sol, xi) - ref) <= 1e-11

    @pytest.mark.parametrize("tol", [1e-3, 1e-2])
    def test_long_steps_are_halved(self, tol, monkeypatch):
        # a coarse solve's longest step is too long for the rule pair alone;
        # halving the segments meets the tolerance, here against the adaptive
        # quadrature with a breakpoint at every step boundary
        sol = integrate(1.6475, tol=tol)
        xi, _ = deployment_parameter(sol)
        ref = adaptive_quadrature(sol, xi, limit=500,
                                  points=sol.grid[(sol.grid > sol.x0) & (sol.grid < xi)])
        assert abs(inspection_integral(sol, xi) - ref) <= 1e-11
        monkeypatch.setattr(cost_mod, "QUAD_HALVINGS", 0)
        with pytest.raises(QuadratureNoConverge):
            inspection_integral(sol, xi)

    def test_unmeetable_tolerance_raises(self, sol_star, monkeypatch):
        # rounding alone puts the error estimate far above 1e-20 relative
        xi, _ = deployment_parameter(sol_star)
        monkeypatch.setattr(cost_mod, "QUAD_RTOL", 1e-20)
        monkeypatch.setattr(cost_mod, "QUAD_ATOL", 0.0)
        with pytest.raises(QuadratureNoConverge, match="error estimate"):
            inspection_integral(sol_star, xi)


class TestTotalCost:
    def test_published_value_at_published_tau0(self, sol_star):
        xi, _ = deployment_parameter(sol_star)
        breakdown = total_cost(sol_star, xi)
        assert breakdown.total == pytest.approx(PUBLISHED_COST, abs=1e-6)

    def test_terms_sum_exactly(self, sol_star):
        xi, _ = deployment_parameter(sol_star)
        b = total_cost(sol_star, xi)
        assert b.total == b.log_term + b.deployment_term + b.integral
        assert all(
            v >= 0.0 for v in (b.log_term, b.deployment_term, b.integral)
        )

    def test_away_from_optimum_costs_more(self):
        sol = integrate(1.6525)
        xi, _ = deployment_parameter(sol)
        assert total_cost(sol, xi).total > 3.5493

    def test_log_term_formula(self):
        xi = 0.9
        s = math.sin(0.9 * PI)
        assert log_term(xi) == pytest.approx(
            math.log((1.0 + s) / (1.0 - s)) / (2.0 * PI), abs=1e-15
        )

    @given(st.floats(0.55, 0.95, exclude_min=True, exclude_max=True))
    def test_closed_form_slope_matches_central_difference(self, xi):
        h = 1e-6
        terms = lambda x: log_term(x) + deployment_term(x)
        fd = (terms(xi + h) - terms(xi - h)) / (2.0 * h)
        assert closed_form_slope(xi) == pytest.approx(fd, rel=1e-7)

    def test_xi_domain_guard(self, sol_star):
        with pytest.raises(XiOutOfRange):
            total_cost(sol_star, 0.4)

    def test_json_dump(self, sol_star, tmp_path):
        xi, _ = deployment_parameter(sol_star)
        b = total_cost(sol_star, xi)
        write_json({**asdict(b), "tau0": PUBLISHED_TAU0}, tmp_path / "cost.json")
        data = json.loads((tmp_path / "cost.json").read_text())
        assert set(data) == {
            "tau0", "xi", "theta", "log_term", "deployment_term", "integral", "total",
        }


class TestPartialCost:
    def test_equals_scaled_integral(self, sol_star):
        xi, _ = deployment_parameter(sol_star)
        assert partial_cost(sol_star, xi) == inspection_integral(sol_star, xi) / xi

    def test_composes_to_published_value(self, sol_star):
        xi, _ = deployment_parameter(sol_star)
        s = partial_cost(sol_star, xi)
        assert full_cost_from_partial((1.0 - xi) * PI, s) == pytest.approx(
            PUBLISHED_COST, abs=1e-6
        )


class TestFullFromPartial:
    def test_zero_angle(self):
        assert full_cost_from_partial(0.0, 2.5) == pytest.approx(3.5, abs=1e-15)

    @given(st.floats(0.0, 1.4), st.floats(0.0, 4.0), st.floats(0.01, 0.5))
    def test_monotone_in_partial_cost(self, theta, s, ds):
        assert full_cost_from_partial(theta, s + ds) > full_cost_from_partial(theta, s)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            full_cost_from_partial(PI / 2, 1.0)

    def test_composition_identity_across_window(self):
        # the three-term form and the angle-composed form agree
        rng = np.random.default_rng(13)
        for tau0 in rng.uniform(1.64697, 1.6525, 10):
            sol = integrate(float(tau0))
            xi, _ = deployment_parameter(sol)
            b = total_cost(sol, xi)
            composed = full_cost_from_partial(
                (1.0 - xi) * PI, b.integral / xi
            )
            assert abs(composed - b.total) <= 1e-10
