import pytest

from hartreekit import (
    FlowConfig,
    Problem,
    coupling_constants,
    from_callable,
    make_constants_table,
    make_grid,
    make_trial_profile,
)
from hartreekit.checks import VerifyContext, choose_a_and_cbar
from hartreekit.runner import C_STAR_MARGIN, PROFILE_M


@pytest.fixture(scope="session")
def grid():
    return make_grid(5, 400, 40.0, 1.02)


@pytest.fixture(scope="session")
def fine_grid():
    return make_grid(5, 640, 40.0, 1.025)


@pytest.fixture(scope="session")
def constants(grid):
    return make_constants_table(grid)


@pytest.fixture(scope="session")
def cc(constants):
    return coupling_constants(1.0, 2.0, 3.0, constants.s_hl_sq)


@pytest.fixture(scope="session")
def potential(grid):
    return from_callable(grid, lambda r: 0.1 * (1.0 + r**2) ** -2.0,
                         p_tail=4.0, c_tail=0.1)


@pytest.fixture(scope="session")
def problem(grid, potential):
    return Problem(N=5, mu1=1.0, mu2=2.0, beta=3.0, lam1=0.1, lam2=0.1,
                   V1=potential, V2=potential)


@pytest.fixture(scope="session")
def free_problem(grid):
    return Problem(N=5, mu1=1.0, mu2=2.0, beta=3.0)


@pytest.fixture(scope="session")
def c_star_lower(cc):
    return (1.0 + C_STAR_MARGIN) * cc.c_inf


@pytest.fixture(scope="session")
def profile_grid():
    return make_grid(5, PROFILE_M, 1.0, 1.0)


@pytest.fixture(scope="session")
def trial_profile(constants, cc, problem, c_star_lower, profile_grid):
    _, cbar = choose_a_and_cbar(problem, constants, c_star_lower=c_star_lower)
    return make_trial_profile(cc, cbar, profile_grid, constants.bubble_norm)


@pytest.fixture(scope="session")
def context(grid, constants, cc, problem, c_star_lower, trial_profile):
    return VerifyContext(grid=grid, constants=constants, cc=cc, prob=problem,
                         c_star_lower=c_star_lower, profile=trial_profile,
                         flow=FlowConfig())
