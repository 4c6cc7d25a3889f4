import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve, solve

from hartreekit import (
    FlowConfig,
    Pair,
    ParameterError,
    Problem,
    RadialFn,
    VerifyContext,
    brezis_lieb_check,
    bubble_profile,
    coupling_constants,
    dirichlet_seminorm,
    from_callable,
    integrate,
    kernel_for,
    make_grid,
    pohozaev_residual,
    solve_limit_ground_state,
    vanishing_energy_limit,
    weak_residual,
)
from hartreekit import flow
from hartreekit.bubbles import bubble_constant, golden_section_min
from hartreekit.energy import _coupling_matrix
from hartreekit.flow import (
    SOLVE_BLOCK,
    _band_factors,
    _band_solve,
    _fit_bubble_dilation,
    _half_height_scale,
    _pinned_laplacian,
    _pinned_solver,
    _slabs,
)
from hartreekit.runner import solver_report

S_HL_SQ = 225.0 / 16.0
C_INF_123 = 675.0 / 448.0


@pytest.fixture(scope="module")
def diag_123(cc, grid):
    return solve_limit_ground_state(cc, FlowConfig(), grid)


def test_flow_converges_from_gaussian(diag_123):
    assert diag_123.converged
    assert diag_123.iterations <= 5000
    assert diag_123.residual < 1e-3


def test_flow_energy_reaches_level(diag_123, cc):
    assert abs(diag_123.energy - cc.c_inf) <= 1e-3 * cc.c_inf


def test_flow_amplitude_ratio(diag_123):
    assert abs(diag_123.amplitude_ratio - math.sqrt(2.0)) <= 1e-3 * math.sqrt(2.0)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 399, 400])
def test_amplitude_ratio_is_the_median_bit_for_bit(n):
    # the sort-based median is np.median's float at odd and even bulk sizes
    rng = np.random.default_rng(n)
    u = rng.uniform(1.0, 2.0, n)
    v = u * (1.4 + rng.standard_normal(n) * 10.0 ** rng.uniform(-16, 0, n))
    assert flow._amplitude_ratio(np.column_stack([u, v])) == float(np.median(v / u))


@pytest.mark.parametrize("N", [5, 6, 7, 8])
def test_amplitude_ratio_of_proportional_components_is_their_amplitude_ratio(N):
    # the contract beside the frozen median: for (a U, b U) the bulk ratio is
    # b / a within 2 ulp (worst measured: 1 ulp), whatever the amplitudes and
    # the profile's width.  The first amplitudes are those of the exact pair
    # in test_energy, c = 1 + 0.1 / (N (N - 2)), where it reads b / a exactly
    c = 1.0 + 0.1 / (N * (N - 2))
    g = make_grid(N, 400, 40.0, 1.02)
    for delta in (0.5, 1.0, 2.0):
        U = bubble_profile(delta, g).values
        for a, b in ((math.sqrt(c / 7.0), math.sqrt(2.0 * c / 7.0)), (1.0, math.sqrt(2.0)),
                     (0.3, 2.7), (2.0, 0.5), (1e-3, 7.0)):
            want = b / a
            got = flow._amplitude_ratio(np.column_stack([a * U, b * U]))
            assert abs(got - want) <= 2.0 * np.spacing(want), (delta, a, b)


def test_flow_pohozaev_consistency(diag_123, free_problem):
    lam_mass, gap = pohozaev_residual(diag_123.final, free_problem)
    assert gap < 1e-3
    assert lam_mass == 0.0


def test_flow_energy_trace_nonincreasing(diag_123):
    energies = diag_123.trace.column("energy")
    for a, b in zip(energies[:-1], energies[1:]):
        assert b <= a * (1.0 + 1e-12)


@pytest.fixture
def equal_starts(monkeypatch):
    monkeypatch.setattr(flow, "START_AMPLITUDES", (1.0, 1.0))
    return FlowConfig(start_widths=(1.0, 1.0))


def test_flow_symmetric_case_preserves_equality(grid, constants, equal_starts, monkeypatch):
    cc_sym = coupling_constants(1.0, 1.0, 2.0, constants.s_hl_sq)
    monkeypatch.setattr(flow, "MAX_ITERATIONS", 400)
    diag = solve_limit_ground_state(cc_sym, equal_starts, grid)
    assert diag.converged
    u, v = diag.final.u, diag.final.v
    assert np.max(np.abs(u.values - v.values)) <= 1e-10 * np.max(u.values)


def test_flow_component_swap(diag_123, constants, grid, monkeypatch):
    # swapping mu1 <-> mu2 with the start widths and amplitudes swaps the
    # components: a transposed coupling matrix or a mixed-up column breaks it
    cc_swap = coupling_constants(2.0, 1.0, 3.0, constants.s_hl_sq)
    monkeypatch.setattr(flow, "START_AMPLITUDES", flow.START_AMPLITUDES[::-1])
    swapped = solve_limit_ground_state(cc_swap, FlowConfig(start_widths=(1.2, 1.0)), grid)
    assert swapped.iterations == diag_123.iterations
    assert swapped.verdict == diag_123.verdict
    u, v = diag_123.final.u, diag_123.final.v
    su, sv = swapped.final.u, swapped.final.v
    scale = max(np.max(u.values), np.max(v.values))
    assert np.max(np.abs(u.values - sv.values)) <= 1e-12 * scale
    assert np.max(np.abs(v.values - su.values)) <= 1e-12 * scale


def test_flow_not_semi_trivial(diag_123):
    u, v = diag_123.final.u, diag_123.final.v
    assert u.values.max() > 0 and v.values.max() > 0
    assert diag_123.verdict != "semi-trivial attractor"


def test_flow_shape_matches_ground_family(diag_123):
    # shape comparison after optimal rescaling; the raw dilation is gauge
    assert diag_123.shape_error < 1e-3
    assert np.isfinite(diag_123.fitted_delta)


@pytest.mark.parametrize("widths", [(0.3, 0.3), (0.3, 4.0), (1.0, 1.2), (2.5, 0.7), (4.0, 4.0)])
@pytest.mark.parametrize("mus", [(1.0, 2.0, 3.0), (0.5, 0.7, 0.8), (2.0, 1.0, 5.0)])
def test_nonlocal_sum_reads_off_the_convolution(grid, constants, widths, mus):
    # the energy matrix E = sym(W C) built from C: against the symmetric
    # coupling matrix the weighted sum of Y^T E Y equals that of Y^T (w C Y),
    # so the flow reads its nonlocal sum off the convolution it already has
    kern = kernel_for(grid)
    WC = grid.w[:, None] * kern.C
    coupling = _coupling_matrix(coupling_constants(*mus, constants.s_hl_sq))
    Y = (np.array([1.0, 0.8]) * np.exp(-(grid.r[:, None] / np.array(widths)) ** 2)) ** 2
    want = np.sum(coupling * (Y.T @ (0.5 * (WC + WC.T)) @ Y))
    got = np.sum(coupling * (Y.T @ (grid.w[:, None] * kern.convolve_values(Y))))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_projection_dirichlet_sums_are_the_seminorm_per_column(cc, grid, monkeypatch):
    # the projection's per-column Dirichlet sums are dirichlet_seminorm of
    # each component (no tail model), bit for bit, on every iterate the flow
    # projects
    seen = []

    def recording(g, X):
        sums = flow_sums(g, X)
        seen.append((X.copy(), sums))
        return sums

    flow_sums = flow._dirichlet_sums
    monkeypatch.setattr(flow, "_dirichlet_sums", recording)
    monkeypatch.setattr(flow, "MAX_ITERATIONS", 5)
    diag = solve_limit_ground_state(cc, FlowConfig(), grid)
    assert len(seen) > 5
    for X, sums in seen:
        assert sums.shape == (2,)
        for j in range(2):
            assert sums[j] == dirichlet_seminorm(RadialFn(grid, X[:, j]))
    # on the Nehari set the energy is a quarter of the final iterate's sums
    final = [RadialFn(grid, f.values) for f in (diag.final.u, diag.final.v)]
    K = sum(dirichlet_seminorm(f) for f in final)
    assert abs(diag.energy - 0.25 * K) <= 1e-14 * K


def test_run_grid_caches_no_dense_stencil_operator(constants, cc, free_problem, c_star_lower):
    # the derivative and the Laplacian are kept as their five-node windows,
    # and the pinned solve as its block-LU factors: after the ground-state
    # solve and its residual checks, the only M x M array on the run grid is
    # the convolution table
    g = make_grid(5, 400, 40.0, 1.02)
    ctx = VerifyContext(grid=g, constants=constants, cc=cc, prob=free_problem,
                        c_star_lower=c_star_lower)
    solver_report(ctx)

    def square(obj):
        if isinstance(obj, np.ndarray):
            return [obj] if obj.shape == (g.M, g.M) else []
        if isinstance(obj, (tuple, list)):
            return [a for x in obj for a in square(x)]
        if hasattr(obj, "__dict__"):
            return square(list(vars(obj).values()))
        return []

    dense = {key: len(square(value)) for key, value in g._cache.items()}
    assert {key: n for key, n in dense.items() if n} == {"kernel": 1}
    assert g._cache["deriv_matrix"].shape == g._cache["laplacian_matrix"].shape == (g.M, 5)


class _CountingKernel:
    """Stands in for a grid's kernel tables and counts what the caller applies."""

    def __init__(self, kern):
        self._kern = kern
        self.products = 0
        self.first_input = None

    def convolve_values(self, values):
        if self.first_input is None:
            self.first_input = values.copy()
        self.products += 1
        return self._kern.convolve_values(values)


@pytest.mark.parametrize("cfg", [
    ({"STEP_SIZE": 4.0}, FlowConfig(), 0),                  # line-search halvings
    ({}, FlowConfig(start_widths=(3.0, 4.0)), 1),           # a re-gauge after the first check
])
def test_flow_convolves_once_per_projection_and_check(cc, grid, monkeypatch, cfg):
    # the projection's convolution feeds the next Picard step and the Nehari
    # defect; the only other product is the weak residual's at each check
    patched, flow_cfg, regauges = cfg
    for name, value in patched.items():
        monkeypatch.setattr(flow, name, value)
    counter = _CountingKernel(kernel_for(grid))
    monkeypatch.setitem(grid._cache, "kernel", counter)
    diag = solve_limit_ground_state(cc, flow_cfg, grid)
    assert diag.converged
    assert diag.regauges == regauges
    assert counter.products == diag.projections + len(diag.trace.rows)
    # the start projection, one per accepted step, and at least one more
    assert diag.projections > diag.iterations + 1


@pytest.mark.parametrize("M", [320, 400, 800])
@pytest.mark.parametrize("widths", [(0.3, 0.3), (0.3, 4.0), (1.0, 1.2), (2.5, 0.7), (4.0, 4.0)])
def test_flow_start_squares_hold_no_subnormal_value(cc, M, widths, monkeypatch):
    # the Gaussian start is cut to 0 where its square would be subnormal, so
    # the start product C Y and the first Picard solve read normal numbers
    g = make_grid(5, M, 40.0, 1.02)
    counter = _CountingKernel(kernel_for(g))
    monkeypatch.setitem(g._cache, "kernel", counter)
    monkeypatch.setattr(flow, "MAX_ITERATIONS", 1)
    solve_limit_ground_state(cc, FlowConfig(start_widths=widths), g)
    Y = counter.first_input
    assert Y.shape == (M, 2)
    assert not np.any((Y != 0.0) & (np.abs(Y) < np.finfo(float).tiny))


def sweep_report(constants, grid, mus, beta, widths):
    """solver_report at one ground-sweep draw: residual tolerance 1e-4 on the run grid."""
    ctx = VerifyContext(grid=grid, constants=constants,
                        cc=coupling_constants(*mus, beta, constants.s_hl_sq),
                        prob=Problem(N=5, mu1=mus[0], mu2=mus[1], beta=beta), c_star_lower=0.0,
                        flow=FlowConfig(residual_tolerance=1e-4, start_widths=widths))
    rep = solver_report(ctx)
    assert [row.label for row in rep.rows if not row.passed] == []
    return ctx.flow_diag


def test_flow_regauges_after_a_failed_check(constants, grid):
    # the first check fails on an iterate settled off scale; the re-gauge
    # right after it gives the rescaled iterate a whole interval, so the
    # second check converges (on the old 50-iteration clock it read a
    # freshly rescaled iterate and the flow ran to 75)
    diag = sweep_report(constants, grid, (0.7015463661686019, 1.771150605405849),
                        4.685865726299851, (1.3927415900879758, 2.2340228048217936))
    assert diag.trace.column("iteration") == [25, 50]
    assert diag.iterations == 50
    assert diag.regauges == 1


def test_flow_waits_for_the_amplitude_ratio_in_the_soft_mode(constants, grid):
    # at beta = 1.06 max mu the residual passes at iteration 50 while the
    # ratio still moves (3.0656 against sqrt(k2/k1) = 3.0788); the flow runs
    # on until the ratio has settled
    diag = sweep_report(constants, grid, (1.0271663925659038, 1.947443146624164),
                        2.0559806894324923, (3.392010254013333, 1.077303188476444))
    assert diag.converged
    assert diag.iterations > 50
    assert diag.trace.column("weak_residual")[1] < 1e-4


def test_flow_does_not_regauge_after_the_last_check(cc, grid, monkeypatch):
    # the reported residual belongs to the returned iterate: the check at the
    # end of the budget is not followed by a rescaling
    monkeypatch.setattr(flow, "MAX_ITERATIONS", 25)
    diag = solve_limit_ground_state(cc, FlowConfig(start_widths=(3.0, 4.0)), grid)
    assert diag.verdict == "budget exhausted"
    assert diag.iterations == 25
    assert diag.regauges == 0
    pair = Pair(RadialFn(grid, diag.final.u.values), RadialFn(grid, diag.final.v.values))
    assert weak_residual(pair, Problem.limit(5, cc)) == diag.residual


def scalar_ground_state(mu, cfg, grid):
    """The scalar limit ground state as the coupled one at (mu/3, mu/3, 2 mu/3),
    where k1 = k2 = 1/mu: each component is mu^(-1/2) U, the level is doubled,
    and from equal starts the two components track the scalar flow."""
    cc = coupling_constants(mu / 3.0, mu / 3.0, 2.0 * mu / 3.0, S_HL_SQ)
    return solve_limit_ground_state(cc, cfg, grid)


def test_scalar_flow_level(grid, equal_starts):
    diag = scalar_ground_state(1.0, equal_starts, grid)
    assert diag.converged
    assert abs(diag.energy / 2.0 - S_HL_SQ / 4.0) <= 1e-3 * S_HL_SQ / 4.0
    assert diag.shape_error < 1e-3


def test_scalar_flow_amplitude_scaling(grid, equal_starts):
    d1 = scalar_ground_state(1.0, equal_starts, grid)
    d4 = scalar_ground_state(4.0, equal_starts, grid)
    assert abs(d4.energy / 2.0 - S_HL_SQ / 16.0) <= 1e-3 * S_HL_SQ / 16.0
    # the Picard map commutes with the mu^(-1/2) amplitude scaling, so the
    # two runs track each other pointwise
    u1 = d1.final.u.values
    u4 = d4.final.u.values
    bulk = u1 > 0.01 * u1.max()
    assert np.max(np.abs(u4[bulk] / u1[bulk] - 0.5)) <= 1e-3


def test_scalar_flow_rejects_bad_mu(grid):
    with pytest.raises(ParameterError):
        scalar_ground_state(-1.0, FlowConfig(), grid)


def test_flow_config_validation():
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            FlowConfig(residual_tolerance=bad)


@pytest.mark.parametrize("widths", [(0.0, 1.0), (1.0,), (-1.0, 1.0), (math.nan, 1.0)])
def test_flow_config_rejects_bad_start_widths(widths):
    # a zero width divided by zero in the Gaussian start, a single width was
    # broadcast to both components, a negative one ran as its absolute value
    with pytest.raises(ParameterError, match="start_widths"):
        FlowConfig(start_widths=widths)


def test_flow_config_tightens_but_never_loosens_the_gate():
    # the ground-state gate reads the flow's tolerance: a caller may ask for
    # a stricter stop, never a looser one
    assert FlowConfig(residual_tolerance=1e-4).residual_tolerance == 1e-4
    assert FlowConfig().residual_tolerance == flow.RESIDUAL_TOLERANCE == 1e-3
    with pytest.raises(ParameterError, match="residual tolerance"):
        FlowConfig(residual_tolerance=2e-3)


# ---------------------------------------------------------------------------
# vanishing limits
# ---------------------------------------------------------------------------

def test_vanishing_limit_table(problem, grid):
    tbl = vanishing_energy_limit(problem, 1, [1.0, 0.3, 0.1, 0.03], grid)
    pm = tbl.column("potential_mass")
    assert all(a > b for a, b in zip(pm[:-1], pm[1:]))
    assert pm[-1] < 0.05 * pm[0]
    en = tbl.column("energy")
    assert abs(en[-1] - S_HL_SQ / 4.0) <= 1e-3 * S_HL_SQ / 4.0


def test_vanishing_limit_free_case_energy_constant(free_problem, grid):
    tbl = vanishing_energy_limit(free_problem, 1, [1.0, 0.3, 0.1, 0.03], grid)
    for e in tbl.column("energy"):
        assert abs(e - S_HL_SQ / 4.0) <= 1e-3 * S_HL_SQ / 4.0
    tbl2 = vanishing_energy_limit(free_problem, 2, [1.0, 0.1], grid)
    for e in tbl2.column("energy"):
        assert abs(e - S_HL_SQ / 8.0) <= 1e-3 * S_HL_SQ / 8.0


def test_vanishing_limit_shift_mass_law(grid):
    # with no V, the potential term energy_I computes under the dilated
    # problem is the shift mass lam delta^2 ||U_1||_2^2
    prob = Problem(N=5, mu1=1.0, mu2=2.0, beta=3.0, lam1=0.1, lam2=0.1)
    tbl = vanishing_energy_limit(prob, 1, [1.0, 0.3, 0.1, 0.03], grid)
    u1 = bubble_profile(1.0, grid)
    l2 = integrate(u1.squared())
    for row in tbl.rows:
        law = 0.1 * row["delta"] ** 2 * l2
        assert abs(row["potential_mass"] - law) <= 1e-6 * law


def test_vanishing_limit_rejects_bad_index(problem, grid):
    with pytest.raises(ParameterError):
        vanishing_energy_limit(problem, 3, [1.0], grid)


# ---------------------------------------------------------------------------
# nonlocal splitting
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def splitting_inputs(grid):
    gauss = from_callable(grid, lambda r: np.exp(-((r / 2.0) ** 2)))
    bprof = bubble_profile(1.0, grid)
    fine = make_grid(5, 640, 40.0, 1.025)
    return gauss, bprof, fine


def test_splitting_error_decreases(splitting_inputs):
    gauss, bprof, fine = splitting_inputs
    tbl = brezis_lieb_check(gauss, bprof, [1.0, 0.3, 0.1], fine)
    for col in ("self_error", "mixed_error"):
        vals = tbl.column(col)
        assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
        assert vals[-1] < 0.1 * vals[0]


def test_splitting_zero_background_exact(splitting_inputs):
    _, bprof, fine = splitting_inputs
    tbl = brezis_lieb_check(None, bprof, [1.0, 0.3], fine)
    assert all(v == 0.0 for v in tbl.column("self_error"))


def test_splitting_stationary_control(splitting_inputs):
    gauss, bprof, fine = splitting_inputs
    tbl = brezis_lieb_check(gauss, bprof, [1.0, 1.0, 1.0], fine)
    vals = tbl.column("self_error")
    assert max(vals) - min(vals) <= 1e-10 * max(vals)


def _mp_band_solve(L, B):
    """L X = B at 32 digits: Gaussian elimination with partial pivoting on the band of L.

    The float entries of L and B are taken as exact, so this is the exact
    solution of the float system, not of the continuous problem.
    """
    M = len(L)
    low = max(i - j for i, j in zip(*np.nonzero(L)))
    with mpmath.workdps(32):
        rows = [{int(j): mpmath.mpf(L[i, j]) for j in np.flatnonzero(L[i])} for i in range(M)]
        rhs = [[mpmath.mpf(b) for b in B[i]] for i in range(M)]
        for k in range(M):
            below = range(k, min(k + low + 1, M))
            p = max((i for i in below if k in rows[i]), key=lambda i: abs(rows[i][k]))
            rows[k], rows[p], rhs[k], rhs[p] = rows[p], rows[k], rhs[p], rhs[k]
            for i in below[1:]:
                if k in rows[i]:
                    f = rows[i].pop(k) / rows[k][k]
                    for j, a in rows[k].items():
                        if j > k:
                            rows[i][j] = rows[i].get(j, 0) - f * a
                    rhs[i] = [x - f * y for x, y in zip(rhs[i], rhs[k])]
        X = [None] * M
        for k in reversed(range(M)):
            acc = rhs[k]
            for j, a in rows[k].items():
                if j > k:
                    acc = [s - a * x for s, x in zip(acc, X[j])]
            X[k] = [s / rows[k][k] for s in acc]
        return np.array(X, dtype=float)


def _backward_error(L, x, b):
    """||b - L x||_inf / (||L||_inf ||x||_inf + ||b||_inf), the residual summed at 32 digits."""
    with mpmath.workdps(32):
        r = [b[i] - mpmath.fdot([(mpmath.mpf(L[i, j]), mpmath.mpf(x[j]))
                                 for j in np.flatnonzero(L[i])])
             for i in range(len(L))]
        res = float(max(abs(v) for v in r))
    return res / (np.max(np.abs(L).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b)))


@pytest.mark.parametrize("M", [320, 350, 400, 410, 770, 800])
def test_pinned_solver_matches_lu_solve(M):
    # The pinned solve is held to the accuracy an LU solve with partial
    # pivoting reaches on the same system: normwise backward error within
    # 2 eps and forward error within 1e-12 of the largest entry, against the
    # exact solution of the float system.  M = 350, 410 and 770 are not
    # multiples of SOLVE_BLOCK, so their last block is padded.  Over
    # M = 320, 350, ..., 800 the worst cases are 0.73 eps and 3.0e-13 for
    # the pinned solve, 0.24 eps and 6.2e-13 for lu_solve, which the loop
    # checks too.  The two differ from each other by up to 6.9e-13 of the
    # largest entry: round-off in either, so neither is an oracle for the
    # other.
    g = make_grid(5, M, 40.0, 1.02)
    L = _pinned_laplacian(g)
    rhs = (1.0 + g.r**2) ** -2.0 * (1.0 + np.random.default_rng(M).uniform(-0.1, 0.1, M))
    # a two-column right-hand side: each column solved, each last row pinned
    rhs2 = np.column_stack([rhs, rhs[::-1] * g.r / g.R_max])
    B = rhs2.copy()
    B[-1] = 0.0
    exact = _mp_band_solve(L, B)
    got = _pinned_solver(g)(rhs)
    got2 = _pinned_solver(g)(rhs2)
    assert got.shape == (M,)
    assert got2.shape == (M, 2)
    lu = lu_solve(lu_factor(L), B)
    solves = [(got, 0)] + [(got2[:, j], j) for j in range(2)] + [(lu[:, j], j) for j in range(2)]
    for x, j in solves:
        assert _backward_error(L, x, B[:, j]) <= 2.0 * np.finfo(float).eps
        assert np.max(np.abs(x - exact[:, j])) <= 1e-12 * np.max(np.abs(exact[:, j]))
    assert np.all(np.abs(got2[-1]) <= 1e-13 * np.max(np.abs(got2), axis=0))


def test_pinned_solver_makes_no_dense_lapack_call(monkeypatch):
    # the block-LU factors are built from 4 x 4 block solves; any np.linalg
    # call on a matrix wider than 8 columns is a block or M x M factorization
    def narrow_only(fn):
        def wrapped(*args, **kwargs):
            for a in args:
                if np.ndim(a) >= 2 and np.shape(a)[-1] > 8:
                    raise AssertionError(f"np.linalg.{fn.__name__} on shape {np.shape(a)}")
            return fn(*args, **kwargs)
        return wrapped

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, narrow_only(fn))
    g = make_grid(5, 350, 40.0, 1.02)
    x = _pinned_solver(g)(np.ones(g.M))
    assert np.all(np.isfinite(x))
    with pytest.raises(AssertionError):
        np.linalg.inv(np.eye(g.M))


@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("m", [4, SOLVE_BLOCK])
@pytest.mark.parametrize("n", [4, 7, 100, 101, 350])
def test_band_solve_on_diagonally_dominant_band_matrices(n, m, columns):
    # the block LU takes any band matrix (lower half-bandwidth 3, upper 4),
    # not only the pinned Laplacian: on seeded diagonally dominant ones,
    # padded or not, with one block or many, it is held to the pinned
    # solve's bounds, 2 eps normwise backward error and 1e-12 of the largest
    # entry against scipy's solve.  The worst cases over these inputs are
    # 0.48 eps and 7.1e-16.
    rng = np.random.default_rng(1000 * n + m + columns)
    i, j = np.indices((n, n))
    L = np.where((j - i >= -3) & (j - i <= 4), rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    L[np.diag_indices(n)] = np.abs(L).sum(axis=1) + 0.5
    B = rng.standard_normal((n, columns))
    rows, cols = np.nonzero(L)
    factors = _band_factors(_slabs(n, rows, cols, L[rows, cols], m))
    K = factors[0].shape[0]
    assert K == -(-n // m)
    b = np.zeros((K * m, columns))
    b[:n] = B
    got = _band_solve(factors, b[:, 0] if columns == 1 else b)
    got = got.reshape(K * m, columns)[:n]
    ref = solve(L, B)
    for x, y, rhs in zip(got.T, ref.T, B.T):
        assert _backward_error(L, x, rhs) <= 2.0 * np.finfo(float).eps
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


@pytest.mark.parametrize("M", [350, 400])
def test_pinned_factors_are_read_only_and_thin(M):
    # the grid keeps the Schur-complement inverses and the two thin
    # couplings: at most K m^2 + 8 K m floats, none of them writable
    g = make_grid(5, M, 40.0, 1.02)
    _pinned_solver(g)
    factors = g._cache["pinned_factors"]
    K, m = -(-M // SOLVE_BLOCK), SOLVE_BLOCK
    assert [f.shape for f in factors] == [(K, m, m), (K - 1, m, 4), (K - 1, m, 4)]
    assert sum(f.size for f in factors) <= K * m * m + 8 * K * m
    for f in factors:
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[...] = 0.0


def _rescale_column(grid, values, scale):
    """Per-column reference re-gauge: one RadialFn call per component."""
    r_out = grid.r * scale
    out = np.empty_like(values)
    inside = r_out <= grid.R_max
    out[inside] = RadialFn(grid, values)(r_out[inside])
    if (~inside).any():
        out[~inside] = flow._decay_amplitude(grid, values) * r_out[~inside] ** (-(grid.N - 2))
    return out * scale ** ((grid.N - 2) / 2.0)


@pytest.mark.parametrize("scale", [0.6, 1.7])
def test_rescale_profile_matches_per_column_reference(scale, monkeypatch):
    # both components are re-gauged from one cell lookup and the grid's
    # factored slope system, bit for bit as one RadialFn call per column; a
    # fresh grid factors that system once, for the reference and the re-gauge
    from hartreekit import grids

    factorizations = []
    inner = grids._thomas_factors

    def spy(*args):
        factorizations.append(len(args[0]))
        return inner(*args)

    monkeypatch.setattr(grids, "_thomas_factors", spy)
    grid = make_grid(5, 400, 40.0, 1.02)
    X = np.column_stack([bubble_profile(0.8, grid).values, 0.5 * np.exp(-((grid.r / 2.0) ** 2))])
    want = np.column_stack([_rescale_column(grid, x, scale) for x in X.T])
    got = flow._rescale_profile(grid, X, scale)
    assert np.array_equal(got, want)
    assert factorizations == [grid.M]


def _fit_bubble_dilation_reference(grid, values, amplitude):
    """The dilation fit with every bulk quantity formed inside the misfit."""
    d0 = _half_height_scale(grid, values)
    cn = bubble_constant(grid.N, grid)
    p = (grid.N - 2) / 2.0
    bulk = values > 0.01 * values.max()
    w = grid.w[bulk]

    def misfit(d):
        model = amplitude * cn * (d / (d**2 + grid.r[bulk] ** 2)) ** p
        return float(w @ (values[bulk] - model) ** 2)

    d_fit = golden_section_min(misfit, d0 / 1.5, d0 * 1.5)
    model = amplitude * cn * (d_fit / (d_fit**2 + grid.r[bulk] ** 2)) ** p
    return d_fit, float(np.max(np.abs(values[bulk] - model)) / values.max())


@pytest.mark.parametrize("seed", range(6))
def test_bubble_dilation_fit_is_the_reference_bit_for_bit(grid, seed):
    # the misfit's loop invariants are formed once per fit; the fitted
    # dilation and the shape error are unchanged to the last bit
    rng = np.random.default_rng(seed)
    delta, amplitude = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    values = amplitude * bubble_profile(delta, grid).values
    values = values * (1.0 + rng.uniform(-0.05, 0.05, grid.M))
    assert _fit_bubble_dilation(grid, values, amplitude) == \
        _fit_bubble_dilation_reference(grid, values, amplitude)


def test_bubble_dilation_fit_recovers_known_dilation():
    # the contract beside the frozen fit: a U_delta is fitted at delta within
    # 1e-12 relative and a shape error within 1e-14, at N = 5..8 (worst
    # measured: 0 and 2.1e-16)
    for N in (5, 6, 7, 8):
        g = make_grid(N, 400, 40.0, 1.02)
        for delta in (0.5, 0.7, 0.85, 1.0, 1.4, 2.0):
            for amplitude in (0.6, 1.0):
                values = amplitude * bubble_profile(delta, g).values
                fitted, err = _fit_bubble_dilation(g, values, amplitude)
                assert abs(fitted - delta) <= 1e-12 * delta, (N, delta, amplitude)
                assert err <= 1e-14, (N, delta, amplitude)
