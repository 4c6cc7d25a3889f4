import dataclasses
import gc
import math
import weakref

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
    barycenter_axis_sign,
    bicenter_integral,
    bubble_profile,
    energy_I,
    from_callable,
    ground_pair,
    nehari_project,
    pohozaev_residual,
    trial_member,
    trial_pair,
    trial_projection_scalars,
    verify_lemma,
    weak_residual,
)
from hartreekit.energy import (
    _pair_density,
    default_test_set,
    potential_mass,
    residual_fields,
)
from hartreekit.grids import (
    _tail_integral,
    _theta_rule,
    bicenter_integrals,
    bicenter_rows,
    dirichlet_seminorm,
    integrate,
    make_grid,
)

C_INF_123 = 675.0 / 448.0


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
    pair = trial_pair(trial_profile, 1.0, 0.0)
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
    t0, t_lam = trial_projection_scalars(trial_profile, 1.0, 0.0, free, cc)
    assert t0 == 1.0 and t_lam == 1.0


def test_trial_projection_scalars_concentration_trend(trial_profile, cc, problem):
    sups = []
    for d in (1.0, 0.3, 0.1, 0.03):
        devs = [abs(trial_projection_scalars(trial_profile, d, rho, problem, cc)[0] - 1.0)
                for rho in (0.0, 1.0, 3.0)]
        sups.append(max(devs))
    assert all(a > b for a, b in zip(sups[:-1], sups[1:]))
    assert sups[-1] < 0.1 * sups[0]


def test_trial_projection_lambda_term_matches_quadrature(trial_profile, cc, grid, potential):
    from hartreekit import integrate

    prob = Problem(N=5, mu1=1.0, mu2=2.0, beta=3.0, lam1=0.1, lam2=0.1,
                   V1=potential, V2=potential)
    t0, t_lam = trial_projection_scalars(trial_profile, 1.0, 0.0, prob, cc)
    # direct quadrature of the shift term on the member grid
    m = trial_member(trial_profile, 1.0)
    lam_term = (cc.k1 * 0.1 + cc.k2 * 0.1) * integrate(m.squared())
    pred = (t_lam**2 - t0**2) * cc.k_sum * trial_profile.energy
    assert abs(pred - lam_term) <= 1e-10 * lam_term
    assert t_lam > t0


def test_barycenter_centered_exact_zero(grid, cc):
    gp = ground_pair(1.0, 0.0, cc, grid)
    xi, gamma = barycenter(gp, cc.mu1, cc.mu2, cc.beta)
    assert xi == 0.0
    assert 0 < gamma < 1


def test_barycenter_scale_invariance(trial_profile, cc):
    pair = trial_pair(trial_profile, 0.5, 2.0)
    xi, gamma = barycenter(pair, cc.mu1, cc.mu2, cc.beta)
    for t in (0.5, 2.0):
        xi_t, gamma_t = barycenter(pair.scale(t), cc.mu1, cc.mu2, cc.beta)
        assert abs(xi_t - xi) <= 1e-12 * max(abs(xi), 1.0)
        assert abs(gamma_t - gamma) <= 1e-12 * max(gamma, 1.0)


def test_barycenter_small_dilation_bound(trial_profile, cc):
    for rho in (0.0, 1.0, 3.0):
        pair = trial_pair(trial_profile, 0.01, rho)
        _, gamma = barycenter(pair, cc.mu1, cc.mu2, cc.beta)
        assert gamma < 4 * 0.01


def test_barycenter_zero_density_rejected(grid, cc):
    z = Pair(RadialFn(grid, np.zeros(grid.M)), RadialFn(grid, np.zeros(grid.M)))
    with pytest.raises(ProjectionError):
        barycenter(z, cc.mu1, cc.mu2, cc.beta)


def test_axis_sign_positive(trial_profile):
    assert barycenter_axis_sign(trial_profile, 1.0, 1.0) > 0
    for d in (0.1, 1.0, 10.0):
        assert barycenter_axis_sign(trial_profile, d, 2.0) > 0


def test_axis_sign_rejects_centered(trial_profile):
    with pytest.raises(ParameterError):
        barycenter_axis_sign(trial_profile, 1.0, 0.0)


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


def test_offset_pair_energy_consistent_with_scalar_path(trial_profile, cc, problem):
    # projecting the translated trial pair through the full energy machinery
    # must reproduce the certified scalar quotients
    delta, rho = 2.0, 1.5
    pair = trial_pair(trial_profile, delta, rho)
    t0_scalar, _ = trial_projection_scalars(trial_profile, delta, rho,
                                            problem.with_lambda(0.0, 0.0), cc)
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


def test_member_square_is_memoized_per_delta(trial_profile, cc, problem):
    # both offsets at one dilation read the same square and its one spline
    d = 2.5
    trial_projection_scalars(trial_profile, d, 1.0, problem, cc)
    sq = trial_profile.member_square(d)
    spline = sq._cache["spline"]
    trial_projection_scalars(trial_profile, d, 3.0, problem, cc)
    assert trial_profile.member_square(d) is sq
    assert sq._cache["spline"] is spline
    assert trial_profile.member_square(np.float64(d)) is sq


@pytest.mark.parametrize("delta, rho", [(0.4, 0.0), (0.4, 1.3), (37.0, 2.0)])
def test_trial_projection_scalars_match_a_fresh_square(trial_profile, cc, problem,
                                                       delta, rho):
    sq = trial_member(trial_profile, delta).squared()
    P = sum(k * bicenter_integral(V, sq, rho)
            for k, V in ((cc.k1, problem.V1), (cc.k2, problem.V2)))
    lam_term = ((cc.k1 * problem.lam1 + cc.k2 * problem.lam2)
                * delta**2 * trial_profile.l2_mass)
    ksum_E = cc.k_sum * trial_profile.energy
    expected = (math.sqrt(1.0 + P / ksum_E), math.sqrt(1.0 + (P + lam_term) / ksum_E))
    assert trial_projection_scalars(trial_profile, delta, rho, problem, cc) == expected


def test_trial_projection_scalars_reject_negative_offset(trial_profile, cc, problem):
    with pytest.raises(ParameterError):
        trial_projection_scalars(trial_profile, 1.0, -0.5, problem, cc)


def test_member_square_memo_holds_no_kernel_tables(context, trial_profile):
    # the memo keeps squares only; a memoized grid with kernel tables would
    # keep 2.5 MB per dilation alive with the profile
    fresh = dataclasses.replace(trial_profile)
    ctx = dataclasses.replace(context, profile=fresh, scan=None)
    for cid in ("4.4", "5.1", "5.2"):
        assert verify_lemma(cid, ctx).passed
    assert fresh._squares
    kernel_keys = [k for sq in fresh._squares.values() for k in sq.grid._cache
                   if k in ("kernel", "tail_kernel")]
    assert kernel_keys == []


def test_member_square_memo_frees_with_its_profile(trial_profile):
    gc.collect()
    gc.disable()
    try:
        prof = dataclasses.replace(trial_profile)
        sq = prof.member_square(3.0)
        sq(np.array([0.5, 1.5]))  # builds the spline the memo carries
        assert "spline" in sq._cache
        refs = [weakref.ref(prof), weakref.ref(sq), weakref.ref(sq.grid)]
        del prof, sq
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


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
    W, base, mass = g._cache["weak_residual_pairing"]
    test_set = default_test_set(g)
    _assert_rows_pair_like_the_quadrature(W, test_set, _unrelated_fields(g))
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


def test_weak_residual_cached_sides_match_the_plain_quadrature(problem):
    g = make_grid(5, 160, 40.0, 1.02)
    p = _slow_pair(g)
    prob = problem.with_lambda(0.1, 0.3)
    expected = _plain_weak_residual(p, prob, default_test_set(g))
    assert expected > 1e-3
    assert "weak_residual_pairing" not in g._cache
    # the pairing matrix sums in another order than the per-pairing quadrature
    assert math.isclose(weak_residual(p, prob), expected, rel_tol=1e-13)   # cold: builds W
    assert "weak_residual_pairing" in g._cache
    assert math.isclose(weak_residual(p, prob), expected, rel_tol=1e-13)   # warm: reads it
    # the maximum hides all but one pairing: check each cached row on its own
    res_u, _ = residual_fields(p, prob)
    W, _, _ = g._cache["weak_residual_pairing"]
    _assert_rows_pair_like_the_quadrature(W, default_test_set(g), [res_u])


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
        W, _, _ = g._cache["weak_residual_pairing"]
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
    sq = trial_member(trial_profile, delta).squared()
    P = sum(k * bicenter_integral(V, sq, rho)
            for k, V in ((cc.k1, V1), (cc.k2, V2)) if V is not None)
    lam_term = (cc.k1 * 0.2 + cc.k2 * 0.05) * delta**2 * trial_profile.l2_mass
    ksum_E = cc.k_sum * trial_profile.energy
    expected = (math.sqrt(1.0 + P / ksum_E), math.sqrt(1.0 + (P + lam_term) / ksum_E))
    assert trial_projection_scalars(trial_profile, delta, rho, prob, cc) == expected


@pytest.mark.parametrize("case", ["different-s", "V2-none", "V1-none", "V1-untailed"])
@pytest.mark.parametrize("rho", [0.0, 1.3])
def test_potential_overlaps_equal_the_plain_quadrature(trial_profile, problem, grid, case, rho):
    V1, V2 = _potential_pairs(grid)[case]
    prob = dataclasses.replace(problem, V1=V1, V2=V2)
    sq = trial_profile.member_square(0.4)
    expected = tuple(0.0 if V is None else bicenter_integral(V, sq, rho) for V in (V1, V2))
    assert prob.potential_overlaps(sq, rho) == expected


@pytest.mark.parametrize("rho", [0.0, 1.3, 7.0])
def test_one_potential_for_both_is_integrated_once(trial_profile, problem, monkeypatch, rho):
    # V1 is V2 (as default.cfg builds it): one overlap, the same bits as two equal copies
    from hartreekit import energy

    V = problem.V1
    copy = RadialFn(V.grid, V.values.copy(), V.p_tail, V.c_tail)
    sq = trial_profile.member_square(0.7)
    two = dataclasses.replace(problem, V1=V, V2=copy).potential_overlaps(sq, rho)
    seen = []

    def counted(f, gs, r):
        seen.append(len(gs))
        return bicenter_integrals(f, gs, r)

    monkeypatch.setattr(energy, "bicenter_integrals", counted)
    one = dataclasses.replace(problem, V1=V, V2=V).potential_overlaps(sq, rho)
    assert one == two
    assert one[0] == one[1]
    assert seen == [1]


@pytest.mark.parametrize("rho", [0.0, 1.3])
def test_potential_mass_is_the_lam_term_then_the_v_term(trial_profile, grid, rho):
    V, _ = _potential_pairs(grid)["different-s"]
    sq = trial_profile.member_square(0.4)       # lives on a scaled grid, not V's
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
    kernel = np.sqrt((absx / (1.0 + absx)) ** 2 - 2.0 * xi * axial_comp / (1.0 + absx) + xi**2)
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
    pairs = [trial_pair(trial_profile, 0.5, rho),
             Pair(tailed.u, tailed.v, rho)]
    for p in pairs:
        assert barycenter(p, cc.mu1, cc.mu2, cc.beta) == \
            _two_pass_barycenter(p, cc.mu1, cc.mu2, cc.beta)


# ---------------------------------------------------------------------------
# the member memo: one square and one critical density per dilation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.05, 0.7, 40.0])
def test_member_density_is_the_trial_pairs_density(trial_profile, cc, delta):
    dens = trial_profile.member_density(delta)
    assert dens.grid is trial_profile.member_square(delta).grid
    assert trial_profile.member_density(np.float64(delta)) is dens
    for rho in (0.0, 1.0, 3.5):
        pair = trial_pair(trial_profile, delta, rho)
        fresh = _pair_density(pair, cc.mu1, cc.mu2, cc.beta)
        assert np.array_equal(dens.values, fresh.values)
        assert (dens.p_tail, dens.c_tail) == (fresh.p_tail, fresh.c_tail)
        assert barycenter(dens, rho=rho) == barycenter(pair, cc.mu1, cc.mu2, cc.beta)


def test_barycenter_of_a_zero_density_is_a_projection_error(grid):
    with pytest.raises(ProjectionError):
        barycenter(RadialFn(grid, np.zeros(grid.M)), rho=1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_non_finite_or_non_positive_dilations_are_rejected(trial_profile, cc, problem,
                                                          capfd, bad):
    # before, inf built an all-zero member on an infinite grid (and memoized
    # its square), and the projection scalars failed inside LAPACK
    prof = dataclasses.replace(trial_profile)
    with pytest.raises(ParameterError, match="scale factor"):
        prof.grid.scaled(bad)
    with pytest.raises(ParameterError, match="delta"):
        trial_member(prof, bad)
    with pytest.raises(ParameterError, match="delta"):
        prof.member_square(bad)
    with pytest.raises(ParameterError, match="delta"):
        prof.member_density(bad)
    with pytest.raises(ParameterError, match="delta"):
        trial_projection_scalars(prof, bad, 1.0, problem, cc)
    with pytest.raises(ParameterError, match="delta"):
        bubble_profile(bad, prof.grid)
    assert prof._squares == {} and prof._densities == {}
    assert capfd.readouterr().err == ""
