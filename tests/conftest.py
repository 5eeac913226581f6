import numpy as np
import pytest

import partmob as pm


@pytest.fixture(scope="session")
def attractive_problem():
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.zero_potential(), pm.newtonian(True)),
                      pm.parabolic_bump())


@pytest.fixture(scope="session")
def repulsive_confined_problem():
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.quadratic_potential(1.0),
                                    pm.newtonian(False)),
                      pm.parabolic_bump())


@pytest.fixture(scope="session")
def repulsive_free_problem():
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.zero_potential(), pm.newtonian(False)),
                      pm.parabolic_bump())


@pytest.fixture(scope="session")
def reduction_problem():
    """Conservation-law reduction: constant unit leftward force, no kernel."""
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.linear_potential(-1.0),
                                    pm.no_interaction()),
                      pm.parabolic_bump())


@pytest.fixture(scope="session")
def short_attractive_run(attractive_problem):
    """Small, fast trajectory shared by unit tests."""
    state = pm.quantile_partition(attractive_problem.initial, 40)
    return pm.integrate(state, attractive_problem, 0.2, dt=2e-3)


def ordered_state(positions, h=None):
    positions = np.asarray(positions, dtype=float)
    if h is None:
        h = 1.0 / (len(positions) - 1)
    return pm.ParticleState(positions, h=h)
