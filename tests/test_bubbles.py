import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartreekit import (
    ConstructionError,
    DomainError,
    Pair,
    ParameterError,
    Problem,
    RadialFn,
    bubble_constant,
    bubble_profile,
    coupling_constants,
    dirichlet_seminorm,
    double_energy,
    ground_pair,
    lp_norm,
    make_grid,
    make_trial_profile,
    quotient_infimum,
    trial_member,
    trial_pair,
    weak_residual,
)

C5 = 0.9836391782538883  # sqrt(30 / pi^3), independent closed-form evaluation
S_HL_SQ = 225.0 / 16.0
C_INF_123 = 675.0 / 448.0


def test_bubble_constant_matches_closed_form(grid):
    assert abs(bubble_constant(5, grid) - C5) <= 2e-5 * C5


def test_bubble_constant_rejects_low_dimension():
    with pytest.raises(ParameterError):
        bubble_constant(4)


def test_bubble_constant_is_owned_by_each_grid(grid):
    coarse = make_grid(5, 320, 40.0, 1.02)
    fine = make_grid(5, 800, 40.0, 1.02)
    c_coarse = bubble_constant(5, coarse)
    c_fine = bubble_constant(5, fine)
    assert c_coarse != c_fine
    assert bubble_constant(5, coarse) == c_coarse
    assert bubble_constant(5, make_grid(5, 320, 40.0, 1.02)) == c_coarse
    assert bubble_constant(5, fine) == c_fine
    # dilated copies carry their root grid's amplitude, bit for bit
    assert bubble_constant(5, coarse.scaled(0.3)) == c_coarse
    assert bubble_constant(5, grid.scaled(0.3).scaled(4.0)) == bubble_constant(5, grid)
    assert bubble_profile(1.0, fine.scaled(0.3)).c_tail == c_fine


def test_bubble_closed_form_values(grid):
    c5 = bubble_constant(5, grid)
    for d in (0.5, 2.0):
        U = bubble_profile(d, grid)
        assert np.array_equal(U.values, c5 * (d / (d**2 + grid.r**2)) ** 1.5)
        assert U.p_tail == 3 and U.c_tail == c5 * d**1.5
    for d in (0.0, -1.0):
        with pytest.raises(ParameterError):
            bubble_profile(d, grid)


def test_bubble_dirichlet_scale_invariance(grid):
    vals = [dirichlet_seminorm(bubble_profile(d, grid))
            for d in (0.5, 1.0, 2.0)]
    assert (max(vals) - min(vals)) / min(vals) <= 1e-4


def test_bubble_double_energy_level(grid):
    U = bubble_profile(1.0, grid)
    d4 = double_energy(U.squared(), U.squared())
    assert abs(d4 - S_HL_SQ) <= 1e-3 * S_HL_SQ


def test_bubble_residual_certification(grid):
    # a (U, 0) pair under unit self-coupling reduces to the scalar limit
    # equation, so this is a direct certification of the amplitude
    prob = Problem(N=5, mu1=1.0, mu2=1.0, beta=2.0)
    zero = RadialFn(grid, np.zeros(grid.M))
    U1 = bubble_profile(1.0, grid)
    U2 = bubble_profile(2.0, grid)
    assert weak_residual(Pair(U1, zero), prob) < 1e-3
    assert weak_residual(Pair(U2, zero), prob) < 1e-3


def test_wrong_amplitude_rejected(grid):
    prob = Problem(N=5, mu1=1.0, mu2=1.0, beta=2.0)
    zero = RadialFn(grid, np.zeros(grid.M))
    U1 = bubble_profile(1.0, grid)
    assert weak_residual(Pair(2.0 * U1, zero), prob) > 0.1


def test_bubble_critical_norm_oracle(grid):
    # per unit amplitude the critical norm is (pi^3/32)^(3/10); dividing out
    # the numerically pinned amplitude isolates the quadrature accuracy
    U = bubble_profile(1.0, grid)
    oracle = 0.96894614625936938 ** 0.3
    assert abs(lp_norm(U, 10.0 / 3.0) / bubble_constant(5, grid) - oracle) <= 1e-8 * oracle


def test_coupling_constants_exact_fractions():
    cc = coupling_constants(1.0, 2.0, 3.0, S_HL_SQ)
    assert abs(cc.k1 - 1.0 / 7.0) <= 1e-15
    assert abs(cc.k2 - 2.0 / 7.0) <= 1e-15
    assert abs(cc.identity_defect()) <= 1e-12
    assert abs(cc.c_inf - C_INF_123) <= 1e-12 * C_INF_123


def test_coupling_constants_symmetric_case():
    cc = coupling_constants(1.0, 1.0, 2.0, S_HL_SQ)
    assert abs(cc.k1 - 1.0 / 3.0) <= 1e-15
    assert abs(cc.k2 - 1.0 / 3.0) <= 1e-15


def test_coupling_constants_domain_error():
    with pytest.raises(DomainError):
        coupling_constants(1.0, 2.0, 1.5, S_HL_SQ)


@given(
    mu1=st.floats(0.1, 5.0),
    mu2=st.floats(0.1, 5.0),
    boost=st.floats(1.001, 5.0),
)
@settings(max_examples=100, deadline=None)
def test_coupling_identity_random(mu1, mu2, boost):
    beta = max(mu1, mu2) * boost
    cc = coupling_constants(mu1, mu2, beta, S_HL_SQ)
    assert abs(cc.identity_defect()) <= 1e-12 * cc.k_sum
    # the level-separation mechanism: k_sum strictly below both 1/mu
    assert cc.k_sum < min(1.0 / mu1, 1.0 / mu2)


def test_quotient_infimum_brute_force():
    t_star, val = quotient_infimum(1.0, 2.0, 3.0)
    assert abs(val - 3.0 / 7.0) <= 1e-10
    assert abs(t_star - 0.5) <= 1e-12
    ts = np.linspace(0, 1000, 2_000_001)
    brute = np.min((1 + ts) ** 2 / (ts**2 + 6 * ts + 2))
    assert abs(val - brute) <= 1e-10


def test_quotient_infimum_symmetric():
    t_star, val = quotient_infimum(1.0, 1.0, 2.0)
    assert abs(val - 2.0 / 3.0) <= 1e-12
    assert abs(t_star - 1.0) <= 1e-12


@given(
    mu1=st.floats(0.1, 5.0),
    mu2=st.floats(0.1, 5.0),
    boost=st.floats(1.01, 5.0),
)
@settings(max_examples=50, deadline=None)
def test_quotient_matches_coupling_sum(mu1, mu2, boost):
    beta = max(mu1, mu2) * boost
    _, val = quotient_infimum(mu1, mu2, beta)
    cc = coupling_constants(mu1, mu2, beta, S_HL_SQ)
    assert abs(val - cc.k_sum) <= 1e-12 * cc.k_sum


def test_ground_pair_ratio_and_level(grid, cc):
    gp = ground_pair(1.0, 0.0, cc, grid)
    ratio = gp.v.values / gp.u.values
    assert np.max(np.abs(ratio - math.sqrt(2.0))) <= 1e-12
    K = dirichlet_seminorm(gp.u) + dirichlet_seminorm(gp.v)
    u2, v2 = gp.u.squared(), gp.v.squared()
    NL = (cc.mu1 * double_energy(u2, u2) + cc.mu2 * double_energy(v2, v2)
          + 2 * cc.beta * double_energy(u2, v2))
    total = 0.5 * K - 0.25 * NL
    assert abs(total - C_INF_123) <= 1e-3 * C_INF_123
    # Nehari residual scaled by the pair norm
    assert abs(K - NL) / K <= 1e-3


def test_trial_profile_certificates(trial_profile, cc):
    p = trial_profile
    d4 = double_energy(p.profile.squared(), p.profile.squared())
    grad = dirichlet_seminorm(p.profile)
    assert abs(grad - d4) <= 1e-10 * d4
    assert p.energy > S_HL_SQ
    assert cc.c_inf < p.sigma < p.cbar
    vals = p.profile.values
    assert np.all(np.diff(vals) <= 1e-12 * vals.max())
    assert p.profile(1.5) == 0.0
    assert p.profile(1.2) == 0.0


def test_trial_profile_unattainable_window(cc, constants, profile_grid):
    with pytest.raises(ConstructionError):
        make_trial_profile(cc, cc.c_inf * (1.0 + 1e-9), profile_grid, constants.bubble_norm)


def test_trial_member_identity(trial_profile):
    m = trial_member(trial_profile, 1.0)
    assert np.array_equal(m.values, trial_profile.profile.values)
    assert trial_pair(trial_profile, 1.0, 0.0).offset == 0.0


def test_trial_member_norm_preservation(trial_profile):
    rng = np.random.default_rng(3)
    base = trial_profile.lp_crit
    for _ in range(10):
        d = float(rng.uniform(0.05, 50.0))
        m = trial_member(trial_profile, d)
        assert abs(lp_norm(m, 10.0 / 3.0) - base) <= 1e-8 * base


def test_trial_member_support(trial_profile):
    m = trial_member(trial_profile, 2.0)
    assert m(2.5) == 0.0
    assert m.grid.R_max == pytest.approx(2.0)


def test_trial_pair_shares_grid(trial_profile):
    pair = trial_pair(trial_profile, 2.0, 1.0)
    assert pair.u.grid is pair.v.grid
    assert pair.offset == 1.0
