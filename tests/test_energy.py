import dataclasses
import gc
import math
import tracemalloc
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest

from hartreekit import (
    DivergenceError,
    Pair,
    ParameterError,
    Problem,
    ProjectionError,
    RadialFn,
    barycenter,
    bicenter_integral,
    bubble_constant,
    bubble_profile,
    coupling_constants,
    energy_I,
    from_callable,
    ground_pair,
    make_constants_table,
    nehari_project,
    pohozaev_residual,
    sphere_area,
    trial_projection_scalars,
    verify_lemma,
    weak_residual,
)
from hartreekit import energy, runner
from hartreekit.checks import TrialSamples
from hartreekit.config import PotentialSpec, load_config
from hartreekit.energy import (
    _pair_density,
    default_test_set,
    potential_energy,
    potential_mass,
    residual_fields,
    trial_overlaps,
)
from hartreekit.grids import (
    _tail_integral,
    _theta_rule,
    apply_stencil,
    axis_moment_integrals,
    bicenter_integrals,
    bicenter_rows,
    dirichlet_seminorm,
    integrate,
    make_grid,
)

from conftest import dilate, dilated_grid, explicit_trial_pair

C_INF_123 = 675.0 / 448.0
DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def test_energy_zero_state(grid, free_problem):
    z = Pair(RadialFn(grid, np.zeros(grid.M)), RadialFn(grid, np.zeros(grid.M)))
    br = energy_I(z, free_problem)
    assert br.kinetic == br.potential == br.total == br.defect == 0.0


def test_energy_ground_pair_level(grid, cc, free_problem):
    gp = ground_pair(1.0, 0.0, cc, grid)
    br = energy_I(gp, free_problem)
    assert abs(br.total - C_INF_123) <= 1e-3 * C_INF_123
    assert abs(br.defect) / br.kinetic <= 1e-3
    br2 = energy_I(gp, Problem.limit(5, cc))
    assert br2.total == br.total


def test_energy_negative_pair_has_no_nonlocal_part(grid, cc, free_problem):
    gp = ground_pair(1.0, 0.0, cc, grid)
    neg = gp.scale(-1.0)
    br = energy_I(neg, free_problem)
    assert br.nonlocal_11 == br.nonlocal_22 == br.nonlocal_12 == 0.0
    assert br.total == 0.5 * (br.kinetic + br.potential)


def test_energy_homogeneity(grid, cc):
    gp = ground_pair(1.0, 0.0, cc, grid)
    base = energy_I(gp, Problem.limit(5, cc))
    for t in (0.5, 1.0, 2.0):
        br = energy_I(gp.scale(t), Problem.limit(5, cc))
        pred = 0.5 * t**2 * base.kinetic - 0.25 * t**4 * base.nonlocal_sum
        assert abs(br.total - pred) <= 1e-12 * max(abs(pred), 1.0)


def test_energy_trial_pair_in_window(trial_profile, cc):
    pair = explicit_trial_pair(trial_profile, 1.0, 0.0)
    br = energy_I(pair, Problem.limit(5, cc))
    assert cc.c_inf < br.total < trial_profile.cbar
    assert abs(br.total - trial_profile.sigma) <= 1e-6 * trial_profile.sigma


def test_energy_divergence_for_slow_tail(grid):
    prob = Problem(N=5, mu1=1.0, mu2=1.0, beta=2.0, lam1=0.5, lam2=0.0)
    slow = from_callable(grid, lambda r: (1.0 + r**2) ** -1.0, p_tail=2.0, c_tail=1.0)
    pair = Pair(slow, slow)
    with pytest.raises(DivergenceError):
        energy_I(pair, prob)


def test_nehari_idempotence(grid, cc, problem):
    gp = ground_pair(1.0, 0.0, cc, grid)
    t1, proj = nehari_project(gp, problem)
    t2, _ = nehari_project(proj, problem)
    assert abs(t2 - 1.0) <= 1e-12


def test_nehari_homogeneity(grid, cc, free_problem):
    gp = ground_pair(1.0, 0.0, cc, grid)
    t0, proj = nehari_project(gp, free_problem)
    t3, _ = nehari_project(proj.scale(3.0), free_problem)
    assert abs(t3 - 1.0 / 3.0) <= 1e-12


def test_nehari_ordering(grid, cc, problem, free_problem):
    gp = ground_pair(1.0, 0.0, cc, grid)
    tau, _ = nehari_project(gp, free_problem)
    t, _ = nehari_project(gp, problem)
    assert tau <= t
    assert t > tau  # potentials strictly positive on this pair


def test_nehari_rejects_vanishing_positive_part(grid, free_problem):
    neg = Pair(RadialFn(grid, -np.exp(-grid.r**2)), RadialFn(grid, -np.exp(-grid.r**2)))
    with pytest.raises(ProjectionError):
        nehari_project(neg, free_problem)


def test_projected_defect_vanishes(grid, cc, problem):
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = RadialFn(grid, rng.uniform(0.5, 1.5) * np.exp(-(grid.r / rng.uniform(0.5, 2)) ** 2))
        v = RadialFn(grid, rng.uniform(0.5, 1.5) * np.exp(-(grid.r / rng.uniform(0.5, 2)) ** 2))
        t, proj = nehari_project(Pair(u, v), problem)
        br = energy_I(proj, problem)
        assert abs(br.defect) <= 1e-10 * (br.kinetic + br.potential)


def test_on_nehari_energy_formula(grid, cc, problem):
    rng = np.random.default_rng(6)
    u = RadialFn(grid, np.exp(-grid.r**2))
    v = RadialFn(grid, 0.7 * np.exp(-(grid.r / 1.3) ** 2))
    _, proj = nehari_project(Pair(u, v), problem)
    br = energy_I(proj, problem)
    assert abs(br.total - 0.25 * (br.kinetic + br.potential)) \
        <= 1e-12 * (br.kinetic + br.potential)


def test_trial_projection_scalars_free_case(trial_profile, cc, grid):
    free = Problem(N=5, mu1=cc.mu1, mu2=cc.mu2, beta=cc.beta)
    t0, t_lam = trial_projection_scalars(trial_profile, 1.0, 0.0, free)
    assert t0 == 1.0 and t_lam == 1.0


def test_trial_projection_scalars_concentration_trend(trial_profile, problem):
    sups = []
    for d in (1.0, 0.3, 0.1, 0.03):
        devs = [abs(trial_projection_scalars(trial_profile, d, rho, problem)[0] - 1.0)
                for rho in (0.0, 1.0, 3.0)]
        sups.append(max(devs))
    assert all(a > b for a, b in zip(sups[:-1], sups[1:]))
    assert sups[-1] < 0.1 * sups[0]


def test_trial_projection_lambda_term_matches_quadrature(trial_profile, cc, grid, potential):
    from hartreekit import integrate

    prob = Problem(N=5, mu1=1.0, mu2=2.0, beta=3.0, lam1=0.1, lam2=0.1,
                   V1=potential, V2=potential)
    t0, t_lam = trial_projection_scalars(trial_profile, 1.0, 0.0, prob)
    # direct quadrature of the shift term on the unit member's grid
    lam_term = (cc.k1 * 0.1 + cc.k2 * 0.1) * integrate(trial_profile.square)
    pred = (t_lam**2 - t0**2) * cc.k_sum * trial_profile.energy
    assert abs(pred - lam_term) <= 1e-10 * lam_term
    assert t_lam > t0


def test_barycenter_centered_exact_zero(grid, cc):
    gp = ground_pair(1.0, 0.0, cc, grid)
    xi, gamma = barycenter(gp, cc.mu1, cc.mu2, cc.beta)
    assert xi == 0.0
    assert 0 < gamma < 1


def test_barycenter_scale_invariance(trial_profile, cc):
    pair = explicit_trial_pair(trial_profile, 0.5, 2.0)
    xi, gamma = barycenter(pair, cc.mu1, cc.mu2, cc.beta)
    for t in (0.5, 2.0):
        xi_t, gamma_t = barycenter(pair.scale(t), cc.mu1, cc.mu2, cc.beta)
        assert abs(xi_t - xi) <= 1e-12 * max(abs(xi), 1.0)
        assert abs(gamma_t - gamma) <= 1e-12 * max(gamma, 1.0)


def test_barycenter_small_dilation_bound(trial_profile, cc):
    for rho in (0.0, 1.0, 3.0):
        pair = explicit_trial_pair(trial_profile, 0.01, rho)
        _, gamma = barycenter(pair, cc.mu1, cc.mu2, cc.beta)
        assert gamma < 4 * 0.01


def test_barycenter_zero_density_rejected(grid, cc):
    z = Pair(RadialFn(grid, np.zeros(grid.M)), RadialFn(grid, np.zeros(grid.M)))
    with pytest.raises(ProjectionError):
        barycenter(z, cc.mu1, cc.mu2, cc.beta)


def test_axis_sign_positive(trial_profile, problem):
    # <xi | y> = xi |y| for an offset y on the first axis
    samples = TrialSamples(trial_profile, problem)
    for d, rho in ((1.0, 1.0), (0.1, 2.0), (1.0, 2.0), (10.0, 2.0)):
        assert samples.shape(d, rho)[1] * rho > 0


def test_pohozaev_ground_pair(grid, cc, free_problem):
    gp = ground_pair(1.0, 0.0, cc, grid)
    lam_mass, gap = pohozaev_residual(gp, free_problem)
    assert lam_mass == 0.0
    assert gap < 1e-3


def test_pohozaev_flags_shifted_nonsolution(grid, cc, free_problem):
    gp = ground_pair(1.0, 0.0, cc, grid)
    shifted = free_problem.with_lambda(0.5, 0.5)
    lam_mass, gap = pohozaev_residual(gp, shifted)
    assert lam_mass > 0.1
    assert weak_residual(gp, shifted) > 1e-3


def test_pohozaev_zero_state(grid, free_problem):
    z = Pair(RadialFn(grid, np.zeros(grid.M)), RadialFn(grid, np.zeros(grid.M)))
    assert pohozaev_residual(z, free_problem) == (0.0, 0.0)


def test_pohozaev_requires_zero_potential(grid, cc, problem):
    gp = ground_pair(1.0, 0.0, cc, grid)
    with pytest.raises(ParameterError):
        pohozaev_residual(gp, problem)


def test_weak_residual_ground_pair(grid, cc, free_problem):
    gp = ground_pair(1.0, 0.0, cc, grid)
    assert weak_residual(gp, free_problem) < 1e-3


def test_weak_residual_negative_control(grid, cc, free_problem):
    gp = ground_pair(1.0, 0.0, cc, grid)
    assert weak_residual(gp.scale(1.2), free_problem) > 1e-2


def test_weak_residual_zero_state(grid, free_problem):
    z = Pair(RadialFn(grid, np.zeros(grid.M)), RadialFn(grid, np.zeros(grid.M)))
    assert weak_residual(z, free_problem) == 0.0


# ---------------------------------------------------------------------------
# an exact solution of the full system
# ---------------------------------------------------------------------------

EXACT_V = 0.1
# unequal potential amplitudes (v1, v2), where both a^2 and b^2 stay positive
UNEQUAL_V = (0.1, 0.3)


def _exact_pair(N, v1, v2):
    """The exact pair (a U, b U) in R^N, its problem, and the same pair with a^2
    raised by 1 % (the negative control), on an M = 400 grid.

    The bubble U solves -Lap U = (|x|^-4 * U^2) U with |x|^-4 * U^2 =
    N (N - 2) (1 + r^2)^-2.  So with V_j = v_j (1 + r^2)^-2, lam = 0,
    mu = (1, 2) and beta = 3, the pair solves the full system when
    mu1 a^2 + beta b^2 = c1 and beta a^2 + mu2 b^2 = c2, c_j = 1 + v_j / (N (N - 2)),
    that is a^2 = (3 c2 - 2 c1) / 7 and b^2 = (3 c1 - c2) / 7 (c / 7 and
    2 c / 7 at v1 = v2).  Since ||grad U||^2 = S_HL^2 = N (N - 2) times
    int (1 + r^2)^-2 U^2, the pair's kinetic plus potential energy is
    (c1 a^2 + c2 b^2) S_HL^2, and on the Nehari set its energy is a quarter
    of that: c^2 c_inf at v1 = v2.  One potential object stands for both
    when v1 = v2.
    """
    g = make_grid(N, 400, 40.0, 1.02)
    U = bubble_profile(1.0, g)

    def potential(v):
        return from_callable(g, lambda r: v * (1.0 + r**2) ** -2.0, p_tail=4.0, c_tail=v)

    V1 = potential(v1)
    prob = Problem(N=N, mu1=1.0, mu2=2.0, beta=3.0, V1=V1, V2=V1 if v2 == v1 else potential(v2))
    c1, c2 = (1.0 + v / (N * (N - 2)) for v in (v1, v2))
    a, b = math.sqrt((3.0 * c2 - 2.0 * c1) / 7.0), math.sqrt((3.0 * c1 - c2) / 7.0)
    return dict(N=N, grid=g, U=U, prob=prob, v=(v1, v2), c=(c1, c2), a=a, b=b,
                pair=Pair(a * U, b * U), perturbed=Pair(math.sqrt(1.01) * a * U, b * U))


@pytest.fixture(scope="module", params=[5, 6, 7, 8])
def exact(request):
    """The exact pair at v1 = v2 = EXACT_V (`_exact_pair`).  The flow's
    amplitude ratio at the pair is tested with the ratio's contract in
    test_flow."""
    return _exact_pair(request.param, EXACT_V, EXACT_V)


@pytest.fixture(scope="module", params=[5, 6, 7, 8])
def unequal(request):
    """The exact pair at (v1, v2) = UNEQUAL_V (`_exact_pair`)."""
    return _exact_pair(request.param, *UNEQUAL_V)


# weak residual at the exact pair: 1.52e-6, 2.61e-6, 6.48e-6 and 1.26e-5 at
# N = 5..8, the discretization level; with a^2 raised by 1 % it reads
# 2.26e-3 down to 1.82e-3
EXACT_WEAK_RESIDUAL_BOUND = {5: 3e-6, 6: 5e-6, 7: 1.3e-5, 8: 2.5e-5}


def test_exact_pair_weak_residual_is_at_the_discretization_level(exact):
    prob = exact["prob"]
    assert weak_residual(exact["pair"], prob) <= EXACT_WEAK_RESIDUAL_BOUND[exact["N"]]
    assert weak_residual(exact["perturbed"], prob) > 1e-3


def test_exact_pair_residual_fields_are_at_the_discretization_level(exact):
    # each field in the weighted L2 norm of the grid, relative to the same
    # norm of its component's -Lap term: 4.7e-5 to 1.09e-4 over N = 5..8 at
    # the exact pair, 1.42e-3 to 4.31e-3 with a^2 raised by 1 %
    g = exact["grid"]
    lap = math.sqrt(float(g.w @ apply_stencil(g.laplacian_matrix(), exact["U"].values) ** 2))

    def relative(pair):
        return [math.sqrt(float(g.w @ R.values**2)) / (amp * lap)
                for R, amp in zip(residual_fields(pair, exact["prob"]), (exact["a"], exact["b"]))]

    assert max(relative(exact["pair"])) <= 3e-4
    assert min(relative(exact["perturbed"])) >= 1e-3


def test_exact_pair_energy_is_the_closed_form_level(exact):
    # energy within 5e-5 of c^2 c_inf (measured 5.6e-6, 4.8e-6, -1.6e-6 and
    # -1.8e-5 at N = 5..8) and on the Nehari set within 1e-6 (measured
    # <= 1.9e-8); raising a^2 by 1 % leaves it off the set by about 3e-3
    a, b, U = exact["a"], exact["b"], exact["U"]
    cc = coupling_constants(1.0, 2.0, 3.0, make_constants_table(exact["grid"]).s_hl_sq)
    br = energy_I(exact["pair"], exact["prob"])
    level = exact["c"][0] ** 2 * cc.c_inf
    assert abs(br.total - level) <= 5e-5 * level
    assert abs(br.defect) <= 1e-6 * (br.kinetic + br.potential)
    bad = energy_I(exact["perturbed"], exact["prob"])
    assert abs(bad.defect) >= 1e-3 * (bad.kinetic + bad.potential)
    # the breakdown of a pair of multiples of one profile, at round-off
    assert abs(br.kinetic - (a**2 + b**2) * dirichlet_seminorm(U)) <= 1e-13 * br.kinetic
    for got, want in ((br.nonlocal_12, 6.0 * a**2 * b**2), (br.nonlocal_22, 2.0 * b**4)):
        assert abs(got / br.nonlocal_11 - want / a**4) <= 1e-12 * want / a**4


def test_unequal_exact_pair_weak_residual_is_at_the_discretization_level(unequal):
    # measured 1.52e-6, 2.59e-6, 6.46e-6 and 1.26e-5 at N = 5..8, as at v1 = v2;
    # with a^2 raised by 1 % it reads 2.33e-3 down to 1.84e-3
    prob = unequal["prob"]
    assert prob.V1 is not prob.V2
    assert weak_residual(unequal["pair"], prob) <= EXACT_WEAK_RESIDUAL_BOUND[unequal["N"]]
    assert weak_residual(unequal["perturbed"], prob) > 1e-3


def test_unequal_exact_pair_energy_is_the_closed_form_level(unequal):
    # energy within 5e-5 of (c1 a^2 + c2 b^2) S_HL^2 / 4 (measured 5.5e-6,
    # 4.8e-6, -1.6e-6 and -1.8e-5 at N = 5..8) and on the Nehari set within
    # 1e-6 (measured <= 4.3e-8); raising a^2 by 1 % leaves it off the set by
    # about 3.4e-3
    (c1, c2), a, b = unequal["c"], unequal["a"], unequal["b"]
    s_hl_sq = make_constants_table(unequal["grid"]).s_hl_sq
    br = energy_I(unequal["pair"], unequal["prob"])
    level = 0.25 * (c1 * a**2 + c2 * b**2) * s_hl_sq
    assert abs(br.total - level) <= 5e-5 * level
    assert abs(br.defect) <= 1e-6 * (br.kinetic + br.potential)
    bad = energy_I(unequal["perturbed"], unequal["prob"])
    assert abs(bad.defect) >= 1e-3 * (bad.kinetic + bad.potential)


def _potential_closed_form(ex, amplitude_a):
    """(v1 a^2 + v2 b^2) int (1 + r^2)^-2 U^2 dx, the integral being
    C_N^2 |S^{N-1}| int_0^inf r^(N-1) (1 + r^2)^-N dr = C_N^2 |S^{N-1}| B(N/2, N/2) / 2."""
    N, (v1, v2) = ex["N"], ex["v"]
    C_N = bubble_constant(N, ex["grid"])
    beta_half = float(mpmath.beta(N / 2.0, N / 2.0)) / 2.0
    return (v1 * amplitude_a**2 + v2 * ex["b"] ** 2) * C_N**2 * sphere_area(N) * beta_half


def test_exact_pair_potential_energy_is_its_closed_form(unequal):
    # measured within 1.4e-10 at N = 5..8; raising a^2 by 1 % moves it by
    # 1.45e-3 relative
    pot = potential_energy(unequal["pair"], unequal["prob"])
    want = _potential_closed_form(unequal, unequal["a"])
    assert abs(pot - want) <= 1e-8 * want
    bad = potential_energy(unequal["perturbed"], unequal["prob"])
    assert abs(bad - want) >= 1e-3 * want
    assert bad == pytest.approx(_potential_closed_form(unequal, math.sqrt(1.01) * unequal["a"]),
                                rel=1e-8, abs=0.0)


@pytest.mark.parametrize("delta", [0.3, 3.0])
def test_dilated_problem_potential_term_matches_a_quadrature(unequal, delta):
    # Problem.dilated reads delta^2 V_j(delta x) on the grid, so at the pair its
    # potential term is (v1 a^2 + v2 b^2) delta^2 C_N^2 |S^{N-1}| J(delta), with
    # J(delta) = int_0^inf r^(N-1) (1 + delta^2 r^2)^-2 (1 + r^2)^-(N-2) dr by
    # mpmath; measured within 4.0e-7 for delta in {0.3, 0.5, 2, 3} at N = 5..8
    # (V's spline read between its nodes); a^2 raised by 1 % moves it by 1.45e-3
    N, (v1, v2), a, b = unequal["N"], unequal["v"], unequal["a"], unequal["b"]
    dilated = unequal["prob"].dilated(delta, unequal["grid"])
    J = mpmath.quad(lambda r: r ** (N - 1) * (1 + delta**2 * r**2) ** -2 * (1 + r**2) ** (2 - N),
                    [0, 1, 10, mpmath.inf])
    C_N = bubble_constant(N, unequal["grid"])
    want = (v1 * a**2 + v2 * b**2) * delta**2 * C_N**2 * sphere_area(N) * float(J)
    got = potential_energy(unequal["pair"], dilated)
    assert abs(got - want) <= 2e-6 * want
    assert abs(potential_energy(unequal["perturbed"], dilated) - want) >= 1e-3 * want


def test_projection_ordering_fifty_random_pairs(grid, problem, free_problem):
    rng = np.random.default_rng(1234)
    violations = 0
    for _ in range(50):
        a1, a2 = rng.uniform(0.3, 2.0, 2)
        w1, w2 = rng.uniform(0.5, 3.0, 2)
        u = RadialFn(grid, a1 * np.exp(-((grid.r / w1) ** 2)))
        v = RadialFn(grid, a2 * np.exp(-((grid.r / w2) ** 2)))
        pair = Pair(u, v)
        tau, _ = nehari_project(pair, free_problem)
        t, _ = nehari_project(pair, problem)
        if tau > t:
            violations += 1
    assert violations == 0


def test_offset_pair_energy_consistent_with_scalar_path(trial_profile, problem):
    # projecting the translated trial pair through the full energy machinery
    # must reproduce the certified scalar quotients
    delta, rho = 2.0, 1.5
    pair = explicit_trial_pair(trial_profile, delta, rho)
    t0_scalar, _ = trial_projection_scalars(trial_profile, delta, rho,
                                            problem.with_lambda(0.0, 0.0))
    t_full, proj = nehari_project(pair, problem.with_lambda(0.0, 0.0))
    assert abs(t_full - t0_scalar) <= 1e-6 * t0_scalar
    br = energy_I(proj, problem.with_lambda(0.0, 0.0))
    assert abs(br.total - t0_scalar**4 * trial_profile.sigma) \
        <= 1e-6 * trial_profile.sigma


def test_axis_moments_divergent_profile_rejected(grid):
    from hartreekit import DivergenceError, axis_moment_integrals

    slow = from_callable(grid, lambda r: (1.0 + r) ** -1.2, p_tail=1.2, c_tail=1.0)
    with pytest.raises(DivergenceError):
        axis_moment_integrals(slow.power(10.0 / 3.0), 1.0)


@pytest.mark.parametrize("delta, rho", [(0.4, 0.0), (0.4, 1.3), (37.0, 2.0)])
def test_trial_projection_scalars_match_a_fresh_square(trial_profile, cc, problem,
                                                       delta, rho):
    # the square of the member built on its own dilated grid, against the
    # dilation law on the unit square
    sq = dilate(trial_profile.profile, delta).squared()
    P = sum(k * bicenter_integral(V, sq, rho)
            for k, V in ((cc.k1, problem.V1), (cc.k2, problem.V2)))
    lam_term = ((cc.k1 * problem.lam1 + cc.k2 * problem.lam2)
                * delta**2 * trial_profile.l2_mass)
    ksum_E = cc.k_sum * trial_profile.energy
    expected = (math.sqrt(1.0 + P / ksum_E), math.sqrt(1.0 + (P + lam_term) / ksum_E))
    got = trial_projection_scalars(trial_profile, delta, rho, problem)
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_trial_projection_scalars_reject_negative_offset(trial_profile, problem):
    with pytest.raises(ParameterError):
        trial_projection_scalars(trial_profile, 1.0, -0.5, problem)


# ---------------------------------------------------------------------------
# shared overlap sides: the same numbers as the plain overlap quadrature
# ---------------------------------------------------------------------------

def _slow_pair(grid):
    u = from_callable(grid, lambda r: (1.0 + r**2) ** -1.5, p_tail=3.0, c_tail=1.0)
    return Pair(u, 0.5 * RadialFn(grid, np.exp(-grid.r**2)))


def _plain_weak_residual(p, prob, test_set):
    """weak_residual with every pairing a fresh bicenter_integral."""
    res_u, res_v = residual_fields(p, prob)
    u, v = p.u, p.v
    norm_p = math.sqrt(dirichlet_seminorm(u) + dirichlet_seminorm(v)
                       + prob.lam1 * integrate(u.squared())
                       + prob.lam2 * integrate(v.squared()))
    worst = 0.0
    for phi, rho in test_set:
        base = dirichlet_seminorm(phi)
        mass = integrate(phi.squared())
        for res, lam in ((res_u, prob.lam1), (res_v, prob.lam2)):
            val = bicenter_integral(res, phi, rho)
            worst = max(worst, abs(val) / (math.sqrt(base + lam * mass) * norm_p))
    return worst


def _assert_rows_pair_like_the_quadrature(W, test_set, fields):
    assert W.shape == (len(test_set), fields[0].grid.M)
    for row, (phi, rho) in zip(W, test_set):
        for f in fields:
            assert math.isclose(row @ f.values, bicenter_integral(f, phi, rho),
                                rel_tol=1e-13, abs_tol=1e-15)


def _unrelated_fields(grid):
    """Two tail-free fields that do not vanish near R_max or near the origin."""
    return [RadialFn(grid, np.cos(1.3 * grid.r) / (1.0 + 0.1 * grid.r)),
            RadialFn(grid, 1.0 + 0.5 * grid.r**2 * np.exp(-grid.r / 8.0))]


def test_pairing_matrix_rows_match_the_overlap_quadrature(free_problem):
    g = make_grid(5, 160, 40.0, 1.02)
    weak_residual(_slow_pair(g), free_problem)
    W = g._cache["weak_residual_pairing"]     # the grid keeps the rows alone
    test_set, base, mass = default_test_set(5)
    _assert_rows_pair_like_the_quadrature(W, test_set, _unrelated_fields(g))
    assert list(base) == [dirichlet_seminorm(phi) for phi, _ in test_set]
    assert list(mass) == [integrate(phi.squared()) for phi, _ in test_set]


def test_pairing_matrix_takes_each_bumps_norms_once(monkeypatch):
    # 20 (bump, offset) pairs share 7 bumps, and the set is built once per
    # dimension: a second read builds no grid and takes no norm
    seen, grids_made = [], []
    monkeypatch.setattr(energy, "dirichlet_seminorm",
                        lambda phi: seen.append(phi) or dirichlet_seminorm(phi))
    monkeypatch.setattr(energy, "make_grid", lambda *a: grids_made.append(a) or make_grid(*a))
    default_test_set.cache_clear()
    test_set, base, mass = default_test_set(5)
    assert len(test_set) == 20 and len(seen) == len({id(phi) for phi, _ in test_set}) == 7
    assert len(grids_made) == 7
    assert default_test_set(5)[0] is test_set
    assert len(seen) == len(grids_made) == 7
    assert list(base) == [dirichlet_seminorm(phi) for phi, _ in test_set]
    for arr in (base, mass):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("N", [5, 6])
def test_pairing_rows_and_norms_are_the_same_from_a_cold_or_a_warm_memo(N):
    # a grid's rows and the set's norms do not depend on whether the test set
    # (its bump grids and their kept splines) was just built or already read
    # by grids of every size
    prob = Problem(N=N, mu1=1.0, mu2=2.0, beta=3.0)
    sizes = (320, 400, 800)

    def rows(M):
        g = make_grid(N, M, 40.0, 1.02)
        weak_residual(_slow_pair(g), prob)
        return g._cache["weak_residual_pairing"]

    for M in sizes:
        default_test_set.cache_clear()
        cold = rows(M)
        test_set, base, mass = default_test_set(N)
        assert isinstance(cold, np.ndarray) and cold.shape == (20, M)
        for other in sizes:
            rows(other)
        assert default_test_set(N)[0] is test_set
        assert np.array_equal(rows(M), cold)
        assert np.array_equal(bicenter_rows(test_set, make_grid(N, M, 40.0, 1.02)), cold)
        # the norms, taken again on bumps whose grids now keep their values
        assert list(base) == [dirichlet_seminorm(phi) for phi, _ in test_set]
        assert list(mass) == [integrate(phi.squared()) for phi, _ in test_set]


def test_pairing_rows_of_an_explicit_test_set_match_the_overlap_quadrature():
    g = make_grid(5, 160, 40.0, 1.02)
    wide = make_grid(5, 80, 60.0, 1.0)        # reaches past the run grid's R_max
    broad = from_callable(wide, lambda r: np.exp(-((r / 25.0) ** 2)))
    local = from_callable(g, lambda r: np.exp(-(r**2)))   # lives on the run grid itself
    test_set = [(broad, 0.0), (broad, 3.0), (local, 0.0), (local, 1.5)]
    W = bicenter_rows(test_set, g)
    _assert_rows_pair_like_the_quadrature(W, test_set, _unrelated_fields(g))
    # a bump with a tail model has no row form
    own = make_grid(5, 60, 8.0, 1.0)
    tailed = from_callable(own, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)
    for rho in (0.0, 2.0):
        with pytest.raises(ParameterError):
            bicenter_rows(test_set + [(tailed, rho)], g)


@pytest.mark.parametrize("M", [160, 400, 800])
def test_a_pairing_row_does_not_depend_on_the_rest_of_its_test_set(M):
    g = make_grid(5, M, 40.0, 1.02)
    wide = make_grid(5, 80, 60.0, 1.0)        # reaches past the run grid's R_max
    broad = from_callable(wide, lambda r: np.exp(-((r / 25.0) ** 2)))
    local = from_callable(g, lambda r: np.exp(-(r**2)))   # lives on the run grid itself
    test_set = [*default_test_set(5)[0], (broad, 0.0), (broad, 3.0), (local, 0.0), (local, 1.5)]
    W = bicenter_rows(test_set, g)
    assert np.array_equal(bicenter_rows(test_set[::-1], g)[::-1], W)
    for b, pair in enumerate(test_set):
        assert np.array_equal(bicenter_rows([pair], g)[0], W[b]), b


@pytest.mark.parametrize("M, bound_mib", [(400, 2.5), (800, 5.0)])
def test_pairing_matrix_build_holds_one_bump_lattice_at_a_time(M, bound_mib):
    # traced peak of a build on a warm grid: 1.6 / 3.4 MiB at M = 400 / 800
    # with each bump's lattice binned as it is formed, 5.9 / 6.6 MiB when
    # the 20 lattices (67 120 points) were concatenated before binning
    g = make_grid(5, M, 40.0, 1.02)
    test_set = default_test_set(5)[0]
    bicenter_rows(test_set, g)   # builds the grid's kept values
    tracemalloc.start()
    try:
        bicenter_rows(test_set, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20, peak / 2**20


def test_weak_residual_cached_sides_match_the_plain_quadrature(problem):
    g = make_grid(5, 160, 40.0, 1.02)
    p = _slow_pair(g)
    prob = problem.with_lambda(0.1, 0.3)
    expected = _plain_weak_residual(p, prob, default_test_set(5)[0])
    assert expected > 1e-3
    assert "weak_residual_pairing" not in g._cache
    # the pairing matrix sums in another order than the per-pairing quadrature
    assert math.isclose(weak_residual(p, prob), expected, rel_tol=1e-13)   # cold: builds W
    assert "weak_residual_pairing" in g._cache
    assert math.isclose(weak_residual(p, prob), expected, rel_tol=1e-13)   # warm: reads it
    # the maximum hides all but one pairing: check each cached row on its own
    res_u, _ = residual_fields(p, prob)
    W = g._cache["weak_residual_pairing"]
    _assert_rows_pair_like_the_quadrature(W, default_test_set(5)[0], [res_u])


def test_weak_residual_cache_frees_with_its_grid(free_problem):
    # the cached pairing matrix and norms are plain arrays; a RadialFn
    # resampled onto the grid would point back at it, and the grid would
    # wait for the collector
    gc.collect()
    gc.disable()
    try:
        g = make_grid(5, 60, 20.0, 1.02)
        p = _slow_pair(g)
        weak_residual(p, free_problem)
        assert "weak_residual_pairing" in g._cache
        W = g._cache["weak_residual_pairing"]
        assert W.shape == (20, 60)
        ref = weakref.ref(g)
        del g, p
        assert ref() is None
    finally:
        gc.enable()


def _potential_pairs(grid):
    def inv_sq(s):
        return from_callable(grid, lambda r: 0.1 * (1.0 + r**2) ** -s, p_tail=2.0 * s, c_tail=0.1)
    untailed = from_callable(grid, lambda r: 0.05 * np.exp(-(r**2)))
    return {
        "different-s": (inv_sq(2.0), inv_sq(1.5)),
        "V2-none": (inv_sq(2.0), None),
        "V1-none": (None, inv_sq(1.5)),
        "V1-untailed": (untailed, inv_sq(2.0)),
        "V2-untailed": (inv_sq(2.0), untailed),
    }


@pytest.mark.parametrize("case", ["different-s", "V2-none", "V1-none", "V1-untailed",
                                  "V2-untailed"])
@pytest.mark.parametrize("delta, rho", [(0.4, 0.0), (2.5, 0.0), (0.4, 1.3), (2.5, 3.0)])
def test_trial_projection_scalars_share_the_square_exactly(trial_profile, cc, problem, grid,
                                                           case, delta, rho):
    V1, V2 = _potential_pairs(grid)[case]
    prob = dataclasses.replace(problem, V1=V1, V2=V2, lam1=0.2, lam2=0.05)
    sq = trial_profile.square
    P = sum(k * (delta ** (2 - grid.N) * bicenter_integrals(sq, [V], rho, delta)[0])
            for k, V in ((cc.k1, V1), (cc.k2, V2)) if V is not None)
    lam_term = (cc.k1 * 0.2 + cc.k2 * 0.05) * delta**2 * trial_profile.l2_mass
    ksum_E = cc.k_sum * trial_profile.energy
    expected = (math.sqrt(1.0 + P / ksum_E), math.sqrt(1.0 + (P + lam_term) / ksum_E))
    assert trial_projection_scalars(trial_profile, delta, rho, prob) == expected


@pytest.mark.parametrize("case", ["different-s", "V2-none", "V1-none", "V1-untailed"])
@pytest.mark.parametrize("rho", [0.0, 1.3])
def test_potential_overlaps_equal_the_plain_quadrature(trial_profile, problem, grid, case, rho):
    V1, V2 = _potential_pairs(grid)[case]
    prob = dataclasses.replace(problem, V1=V1, V2=V2)
    sq = trial_profile.square
    expected = tuple(0.0 if V is None else bicenter_integrals(sq, [V], rho, 0.4)[0]
                     for V in (V1, V2))
    assert prob.potential_overlaps(sq, rho, 0.4) == expected


@pytest.mark.parametrize("rho", [0.0, 1.3, 7.0])
def test_one_potential_for_both_is_integrated_once(trial_profile, problem, monkeypatch, rho):
    # V1 is V2 (as default.cfg builds it): one overlap, the same bits as two equal copies
    from hartreekit import energy

    V = problem.V1
    copy = RadialFn(V.grid, V.values.copy(), V.p_tail, V.c_tail)
    sq = trial_profile.square
    two = dataclasses.replace(problem, V1=V, V2=copy).potential_overlaps(sq, rho, 0.7)
    seen = []

    def counted(f, gs, r, dilation):
        seen.append(len(gs))
        return bicenter_integrals(f, gs, r, dilation)

    monkeypatch.setattr(energy, "bicenter_integrals", counted)
    one = dataclasses.replace(problem, V1=V, V2=V).potential_overlaps(sq, rho, 0.7)
    assert one == two
    assert one[0] == one[1]
    assert seen == [1]


@pytest.mark.parametrize("rho", [0.0, 1.3])
def test_potential_mass_is_the_lam_term_then_the_v_term(trial_profile, grid, rho):
    V, _ = _potential_pairs(grid)["different-s"]
    sq = dilate(trial_profile.profile, 0.4).squared()   # lives on a dilated grid, not V's
    v_term = (integrate(V.resample(sq.grid) * sq) if rho == 0.0
              else bicenter_integral(V, sq, rho))
    assert potential_mass(V, 0.2, sq, rho) == 0.2 * integrate(sq) + v_term
    assert potential_mass(V, 0.0, sq, rho) == v_term
    assert potential_mass(None, 0.2, sq, rho) == 0.2 * integrate(sq)
    on_grid = V.squared()                        # shares V's grid: no resampling
    assert potential_mass(V, 0.0, on_grid) == integrate(V * on_grid)


def _axis_moments_at(dens, rho, xi):
    """mass, axial moment and the spread about a given xi of a density translated by rho."""
    grid = dens.grid
    N = grid.N
    t, a = _theta_rule(N, 64)
    s = grid.r[:, None]
    absx = np.sqrt(rho**2 + s**2 + 2.0 * rho * s * t[None, :])
    axial_comp = rho + s * t[None, :]
    radial_weight = grid.w1 * grid.r ** (N - 1) * dens.values
    mass = float(a.sum() * radial_weight.sum())
    axial = float(radial_weight @ ((axial_comp / (1.0 + absx)) @ a))
    # |x/(1+|x|) - xi * yhat| from its axial and transverse parts
    kernel = np.sqrt((axial_comp / (1.0 + absx) - xi) ** 2
                     + (s * np.sqrt(1.0 - t**2) / (1.0 + absx)) ** 2)
    spread = float(radial_weight @ (kernel @ a))
    if dens.c_tail != 0.0:
        tail_mass = _tail_integral(dens)
        mass += tail_mass
        spread += tail_mass * math.hypot(1.0, xi)
    return mass, axial, spread


def _two_pass_barycenter(p, mu1, mu2, beta):
    """xi from a first pass at xi = 0, then the spread from a second pass at xi."""
    dens = _pair_density(p, mu1, mu2, beta)
    mass, axial, _ = _axis_moments_at(dens, p.offset, 0.0)
    xi = axial / mass
    _, _, spread = _axis_moments_at(dens, p.offset, xi)
    return xi, spread / mass


@pytest.mark.parametrize("rho", [0.7, 3.0])
def test_barycenter_matches_the_two_pass_computation(trial_profile, cc, grid, rho):
    tailed = _slow_pair(grid)
    pairs = [explicit_trial_pair(trial_profile, 0.5, rho),
             Pair(tailed.u, tailed.v, rho)]
    for p in pairs:
        assert barycenter(p, cc.mu1, cc.mu2, cc.beta) == \
            _two_pass_barycenter(p, cc.mu1, cc.mu2, cc.beta)


# ---------------------------------------------------------------------------
# the trial family on the profile grid: the dilation law against explicit dilates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.05, 0.7, 40.0])
def test_member_density_is_the_trial_pairs_density(trial_profile, cc, problem, delta):
    # the member pair's density is delta^-N times the unit density at x / delta,
    # and the shape maps read the unit density at dilation delta
    samples = TrialSamples(trial_profile, problem)
    for rho in (0.0, 1.0, 3.5):
        pair = explicit_trial_pair(trial_profile, delta, rho)
        fresh = _pair_density(pair, cc.mu1, cc.mu2, cc.beta)
        assert fresh.values == pytest.approx(delta**-5 * trial_profile.density.values,
                                              rel=1e-13, abs=0.0)
        assert (fresh.p_tail, fresh.c_tail) == (None, 0.0)
        xi, gamma = barycenter(pair, cc.mu1, cc.mu2, cc.beta)
        assert samples.shape(delta, rho) == pytest.approx((gamma, xi), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("N", [5, 6])
def test_trial_maps_follow_the_dilation_law(tmp_path, N):
    # both overlaps, gamma and xi of the run's sample maps against those of the
    # member built on make_grid(N, 320, delta, 1.0), at default.cfg's potentials
    # and at a step potential, across the scan's range and past it
    ctx = runner.build_context(dataclasses.replace(load_config(DEFAULT_CFG), N=N))
    runner.ensure_profile(ctx)
    profile, cc = ctx.profile, ctx.cc
    assert profile.grid.M == 320 and profile.grid.R_max == 1.0 and profile.grid.stretch == 1.0
    step = _step_potential(tmp_path, ctx.grid)
    for prob in (ctx.prob, dataclasses.replace(ctx.prob, V1=step, V2=step)):
        samples = TrialSamples(profile, prob)
        for delta in (1e-3, 0.03, 0.4, 1.0, 36.0, 256.0, 1000.0):
            for rho in (0.0, 0.5, 3.92):
                m = dilate(profile.profile, delta)
                assert m.grid.R_max == pytest.approx(delta, rel=1e-15)
                pair = Pair(math.sqrt(cc.k1) * m, math.sqrt(cc.k2) * m, rho)
                over = prob.potential_overlaps(m.squared(), rho)
                xi, gamma = barycenter(pair, cc.mu1, cc.mu2, cc.beta)
                where = (N, prob.V1 is step, delta, rho)
                assert samples.overlaps(delta, rho) == pytest.approx(over, rel=1e-10,
                                                                     abs=0.0), where
                assert samples.shape(delta, rho) == pytest.approx((gamma, xi), rel=1e-10,
                                                                  abs=0.0), where


def _step_potential(tmp_path, grid):
    # 0.1 for r < 2, then 0 with no tail: accepted, compactly supported, and its
    # spline dips below zero between nodes next to the step
    table = tmp_path / "step.csv"
    table.write_text("r,value\n" + "\n".join(f"{a},{0.1 if a < 2 else 0.0}"
                                             for a in np.linspace(0.0, 10.0, 41)))
    return PotentialSpec(family="csv", path=str(table), tail_exponent=4.0,
                         tail_coeff=0.0).build(grid)


@pytest.mark.parametrize("N", [5, 6])
def test_dilated_problem_gives_the_energy_of_the_dilated_pair(tmp_path, N):
    # the dilation law 2.1 and 2.6 rest on, against an explicit dilate
    grid = make_grid(N, 400, 40.0, 1.02)
    cfg = dataclasses.replace(load_config(DEFAULT_CFG), N=N)
    prob = cfg.build_problem(grid)
    r = np.linspace(0.0, 10.0, 41)
    table = tmp_path / "v.csv"
    table.write_text("r,value\n" + "\n".join(f"{a},{0.2 * math.exp(-a)}" for a in r))
    # the tail c r^-4 meets the table's last row at r = 10
    csv = PotentialSpec(family="csv", path=str(table), tail_exponent=4.0,
                        tail_coeff=0.2 * math.exp(-10.0) * 1e4).build(grid)
    step = _step_potential(tmp_path, grid)
    assert step(grid.r[1:] * 0.3).min() < 0.0
    cc = coupling_constants(prob.mu1, prob.mu2, prob.beta, 1.0)
    unit = bubble_profile(1.0, grid)
    zero = RadialFn(grid, np.zeros(grid.M))
    a, b = math.sqrt(cc.k1), math.sqrt(cc.k2)
    assert prob.lam1 > 0 and prob.lam2 > 0
    for V1 in (prob.V1, csv, step):
        pb = dataclasses.replace(prob, V1=V1)
        for d in (3.0, 1.0, 0.3, 0.1, 0.03):
            gd = dilated_grid(grid, d)
            U = dilate(unit, d, gd)
            zd = RadialFn(gd, np.zeros(gd.M))
            dilated = pb.dilated(d, grid)
            for explicit, pair in ((Pair(U, zd), Pair(unit, zero)),
                                   (Pair(a * U, b * U), Pair(a * unit, b * unit))):
                want = dataclasses.asdict(energy_I(explicit, pb))
                got = dataclasses.asdict(energy_I(pair, dilated))
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (d, V1 is csv)


def test_vanishing_and_ground_limits_accept_a_compactly_supported_potential(
        tmp_path, context):
    # 2.1 and 2.6 read the step's spline between nodes, where it dips below
    # zero; their rows are still the energies of the explicitly dilated pairs
    grid = context.grid
    step = _step_potential(tmp_path, grid)
    ctx = dataclasses.replace(context, prob=dataclasses.replace(context.prob, V1=step,
                                                                V2=step))
    rep21, rep26 = verify_lemma("2.1", ctx), verify_lemma("2.6", ctx)
    assert rep21.passed and rep26.passed
    gp = ground_pair(1.0, 0.0, ctx.cc, grid)
    for row in rep26.tables[0].rows:
        d = row["delta"]
        gd = dilated_grid(grid, d)
        br = energy_I(Pair(dilate(gp.u, d, gd), dilate(gp.v, d, gd)), ctx.prob)
        assert row["potential_mass"] == pytest.approx(br.potential, rel=1e-12, abs=0.0)
        assert row["energy_gap"] + ctx.cc.c_inf == pytest.approx(br.nehari_level,
                                                                  rel=1e-12, abs=0.0)
    U1 = bubble_profile(1.0, grid) * (1.0 / math.sqrt(ctx.prob.mu1))
    for row in rep21.tables[0].rows:
        d = row["delta"]
        gd = dilated_grid(grid, d)
        br = energy_I(Pair(dilate(U1, d, gd), RadialFn(gd, np.zeros(gd.M))), ctx.prob)
        assert row["potential_mass"] == pytest.approx(br.potential, rel=1e-12, abs=0.0)
        assert row["energy"] == pytest.approx(br.nehari_level, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0, 1e-320, 1e300, 1e200])
def test_non_finite_or_non_positive_dilations_are_rejected(trial_profile, problem,
                                                          capfd, bad):
    # every entry point that takes a dilation checks it with grids._dilation:
    # inf would read the unit functions at 0 and 1e-320, 1e300 and 1e200
    # overflow delta^N or delta^(+-(N-2)), and none of them may escape as a
    # bare OverflowError or a numpy warning
    prof = trial_profile
    samples = TrialSamples(prof, problem)
    calls = [
        lambda: bicenter_integrals(prof.square, [problem.V1], 1.0, bad),
        lambda: bicenter_integrals(prof.square, [], 1.0, bad),
        lambda: axis_moment_integrals(prof.density, 1.0, bad),
        lambda: axis_moment_integrals(prof.density, 0.0, bad),
        lambda: problem.potential_overlaps(prof.square, 1.0, bad),
        lambda: trial_overlaps(prof, problem, bad, 1.0),
        lambda: trial_overlaps(prof, Problem(N=5, mu1=1.0, mu2=2.0, beta=3.0), bad, 1.0),
        lambda: trial_projection_scalars(prof, bad, 1.0, problem),
        lambda: samples.shape(bad, 1.0),
        lambda: samples.energy(bad, 1.0),
        lambda: bubble_profile(bad, prof.grid),
        lambda: problem.dilated(bad, prof.grid),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="delta"):
            call()
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_a_dilated_quadrature_takes_no_tail_model(grid, potential, rho):
    # the dilation law reads f(|x| / delta) only where f is its nodal values
    dens = potential.squared()
    with pytest.raises(ParameterError, match="tail"):
        bicenter_integrals(potential, [potential], rho, 2.0)
    with pytest.raises(ParameterError, match="tail"):
        axis_moment_integrals(dens, rho, 2.0)
    # a dilation of 1 is the plain quadrature, bit for bit
    assert bicenter_integrals(potential, [potential], rho, 1.0) == \
        bicenter_integrals(potential, [potential], rho)
    assert axis_moment_integrals(dens, rho, 1.0) == axis_moment_integrals(dens, rho)
