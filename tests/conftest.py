"""Shared fixtures: the expensive sweeps run once per session."""

import sys

import hypothesis
import pytest

from diskinspect.bounds import THETA_LO, nlp_sweep
from diskinspect.continuum import integrate
from diskinspect.feasibility import WINDOW_HI, WINDOW_LO, feasibility_sweep
from diskinspect.optimizer import refine_minimum, sweep_cost

hypothesis.settings.register_profile(
    "numeric", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("numeric")

#: Published headline values this artifact reproduces.
PUBLISHED_TAU0 = 1.6469768608776936
PUBLISHED_COST = 3.5492595860809693
PUBLISHED_XI = 0.8119098734258519
PUBLISHED_THETA = 0.5909025598581181

#: Converged values of this map at PUBLISHED_TAU0 (certified against a
#: 30-digit Taylor integration; see the acceptance module for context).
CONVERGED_XI_AT_PUBLISHED_TAU0 = 0.8119095137383550
CONVERGED_THETA_AT_PUBLISHED_TAU0 = 0.5909036898497157


def crossing_only(real, stand_in):
    """A bisection that is stand_in where deployment_parameter or
    deployment_parameters calls it, for the crossing root, and real
    elsewhere: the clearance bisection that follows keeps its own root."""

    def bisect(f, a, b):
        caller = sys._getframe(1).f_code.co_name
        return (stand_in if caller.startswith("deployment_parameter") else real)(f, a, b)

    return bisect


@pytest.fixture(scope="session")
def sol_star():
    """Dense solution at the published optimal start value."""
    return integrate(PUBLISHED_TAU0)


@pytest.fixture(scope="session")
def window_reports():
    """2000-point feasibility sweep over the certified window."""
    return feasibility_sweep(WINDOW_LO, WINDOW_HI, 2000)


@pytest.fixture(scope="session")
def cost_rows():
    """2000-point cost sweep over the certified window."""
    return sweep_cost(WINDOW_LO, WINDOW_HI, 2000)


@pytest.fixture(scope="session")
def optimum():
    """Refined window optimum over the same 2000-point grid as cost_rows."""
    return refine_minimum(WINDOW_LO, WINDOW_HI)


@pytest.fixture(scope="session")
def bound_sweep():
    """105-angle convex-bound sweep over [0, 0.52] at k=1000."""
    return nlp_sweep(0.0, THETA_LO, 105, 1000)
