import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import roots_jacobi

from hartreekit import (
    DivergenceError,
    Pair,
    ParameterError,
    RadialFn,
    axis_moment_integrals,
    bicenter_integral,
    dirichlet_seminorm,
    from_callable,
    integrate,
    lp_norm,
    make_grid,
    sphere_area,
)
from hartreekit.grids import (
    _BUCKETS_PER_NODE,
    _TAIL_NODES,
    _THETA_NODES,
    _cell_lookup,
    _cubic_splines,
    _gauss_legendre,
    _horner,
    _offset_distance,
    _sides,
    _spline_interval,
    _spline_knots,
    _splines,
    _tail_nodes,
    _stencil_weights,
    _tail_rule,
    _theta_rule,
    apply_stencil,
    bicenter_integrals,
    bicenter_rows,
)

# frozen oracle values (30-digit Gamma/quadrature evaluation)
INT_INV_TEN = 0.96894614625936938       # int (1+r^2)^-5 over R^5 = pi^3/32
DIRICHLET_GAUSS = 15.462143406995718    # int |grad exp(-r^2)|^2 over R^5
GAUSS_BICENTER_1 = 1.8756528082432916   # exp(-1/2) (pi/2)^(5/2)


def test_ball_volume(grid):
    vol = float(grid.w.sum())
    exact = sphere_area(5) * 40.0**5 / 5
    assert abs(vol - exact) <= 1e-8 * exact


def test_quadrature_exact_on_monomials(grid):
    for k in range(6):
        f = RadialFn(grid, grid.r ** float(k))
        exact = sphere_area(5) * 40.0 ** (5 + k) / (5 + k)
        assert abs(integrate(f) - exact) <= 1e-10 * exact


def test_gaussian_integral(grid):
    f = from_callable(grid, lambda r: np.exp(-(r**2)))
    assert abs(integrate(f) - math.pi**2.5) <= 1e-8 * math.pi**2.5


def test_integrate_zero(grid):
    assert integrate(RadialFn(grid, np.zeros(grid.M))) == 0.0


def test_integrate_against_adaptive_oracle(grid):
    f = from_callable(grid, lambda r: (1.0 + r**2) ** -5.0, p_tail=10.0, c_tail=1.0)
    oracle, _ = quad(lambda r: sphere_area(5) * r**4 * (1 + r * r) ** -5.0, 0, np.inf)
    val = integrate(f)
    assert abs(val - oracle) <= 1e-8 * oracle
    assert abs(val - INT_INV_TEN) <= 1e-8 * INT_INV_TEN


def test_divergent_tail_raises(grid):
    f = from_callable(grid, lambda r: (1.0 + r) ** -3.0, p_tail=3.0, c_tail=1.0)
    with pytest.raises(DivergenceError):
        integrate(f)


def test_make_grid_coarse_valid():
    g = make_grid(5, 16, 1.0, 1.0)
    assert g.M == 16
    assert np.all(np.diff(g.r) > 0) and g.r[0] > 0
    assert np.all(g.w1 > 0)


def test_make_grid_rejects_low_dimension():
    with pytest.raises(ParameterError):
        make_grid(4, 400, 40.0, 1.02)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [dict(M=8), dict(R_max=-1.0), dict(stretch=0.5)] + [
    {name: value} for name in ("R_max", "stretch") for value in (math.inf, -math.inf, math.nan)]
    + [dict(stretch=1e6), dict(stretch=5.0)])
def test_make_grid_rejects_bad_sizes(bad):
    # the message names the rejected input
    kw = dict(N=5, M=400, R_max=40.0, stretch=1.02)
    kw.update(bad)
    with pytest.raises(ParameterError, match=next(iter(bad))):
        make_grid(**kw)


def test_lp_norm_oracle(grid):
    f = from_callable(grid, lambda r: (1.0 + r**2) ** -2.0, p_tail=4.0, c_tail=1.0)
    oracle = INT_INV_TEN**0.4  # L^{5/2} norm of the inverse-square profile
    assert abs(lp_norm(f, 2.5) - oracle) <= 1e-8 * oracle


@given(amp=st.floats(0.25, 4.0))
@settings(max_examples=20, deadline=None)
def test_lp_norm_homogeneity(amp):
    g = make_grid(5, 60, 10.0, 1.0)
    f = from_callable(g, lambda r: np.exp(-(r**2)))
    base = lp_norm(f, 3.0)
    assert abs(lp_norm(amp * f, 3.0) - amp * base) <= 1e-12 * amp * base


def test_dirichlet_gaussian(grid):
    f = from_callable(grid, lambda r: np.exp(-(r**2)))
    assert abs(dirichlet_seminorm(f) - DIRICHLET_GAUSS) <= 1e-5 * DIRICHLET_GAUSS


def test_dirichlet_mollified_plateau_matches_symbolic(grid):
    # f = exp(-(r/6)^4): symbolic derivative integrated by adaptive quadrature
    f = from_callable(grid, lambda r: np.exp(-((r / 6.0) ** 4)))
    oracle, _ = quad(
        lambda r: sphere_area(5) * r**4 * (4 * r**3 / 6.0**4 * np.exp(-((r / 6.0) ** 4))) ** 2,
        0, 40.0,
    )
    assert abs(dirichlet_seminorm(f) - oracle) <= 1e-5 * oracle


def test_dirichlet_scale_invariance_bubble_narrow_range(grid, constants):
    # default grid resolves dilations in [0.5, 2]
    vals = []
    for d in (0.5, 1.0, 2.0):
        f = from_callable(
            grid,
            lambda r, d=d: constants.bubble_norm * (d / (d**2 + r**2)) ** 1.5,
            p_tail=3.0, c_tail=constants.bubble_norm * d**1.5,
        )
        vals.append(dirichlet_seminorm(f))
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread <= 1e-4


def test_dirichlet_scale_invariance_bubble_wide_range(constants):
    # the [0.25, 4] range needs more resolution at both ends than the default
    # grid carries; measured drift there is ~4e-4, hence the dedicated grid
    g = make_grid(5, 480, 80.0, 1.04)
    vals = []
    for d in (0.25, 0.5, 1.0, 2.0, 4.0):
        f = from_callable(
            g,
            lambda r, d=d: constants.bubble_norm * (d / (d**2 + r**2)) ** 1.5,
            p_tail=3.0, c_tail=constants.bubble_norm * d**1.5,
        )
        vals.append(dirichlet_seminorm(f))
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread <= 1e-4


def test_bicenter_zero_offset_equals_product_integral(grid):
    f = from_callable(grid, lambda r: np.exp(-(r**2)))
    g = from_callable(grid, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)
    assert bicenter_integral(f, g, 0.0) == integrate(f * g)


def test_bicenter_gaussian_closed_form(grid):
    f = from_callable(grid, lambda r: np.exp(-(r**2)))
    val = bicenter_integral(f, f, 1.0)
    assert abs(val - GAUSS_BICENTER_1) <= 1e-6 * GAUSS_BICENTER_1


@pytest.mark.xfail(strict=True, reason="the symmetric mean reads a narrow translated "
                   "function over the wide one's grid, where it is under-resolved")
def test_bicenter_gaussian_oracle_for_narrow_widths(grid):
    # exp(-|x|^2) against exp(-|x|^2/w^2), the narrow one on its own scaled
    # grid: (pi / (1 + w^-2))^(N/2) exp(-rho^2 / (1 + w^2)); the symmetric mean
    # is off by up to 0.5 here, so this fails until the overlaps are
    # integrated one-sided over the narrow function's grid
    f = from_callable(grid, lambda r: np.exp(-(r**2)))
    errors = {}
    for w in (0.05, 0.1, 0.2):
        narrow = from_callable(grid.scaled(w), lambda r, w=w: np.exp(-((r / w) ** 2)))
        for rho in (2.0, 4.0):
            exact = (math.pi / (1.0 + w**-2)) ** 2.5 * math.exp(-(rho**2) / (1.0 + w**2))
            for a, b in ((f, narrow), (narrow, f)):
                errors[w, rho, a is f] = bicenter_integral(a, b, rho) / exact - 1.0
    assert max(map(abs, errors.values())) <= 1e-6, errors


def test_bicenter_symmetry(grid):
    f = from_callable(grid, lambda r: np.exp(-(r**2)))
    g = from_callable(grid, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)
    # both one-way quadratures run under one rule, so swapping the factors
    # swaps two identical terms
    other = make_grid(5, 80, 10.0, 1.0)
    h = from_callable(other, lambda r: np.exp(-(r**2)))
    for x, y in ((f, g), (f, h), (g, h)):
        for rho in (0.0, 2.0):
            assert bicenter_integral(x, y, rho) == bicenter_integral(y, x, rho)


def test_bicenter_sides_share_the_angular_rule(grid, monkeypatch):
    # both one-way quadratures read the module's one angular rule: under a
    # coarse rule swapping the factors still swaps two identical terms
    from hartreekit import grids

    f = from_callable(grid, lambda r: np.exp(-(r**2)))
    g = from_callable(grid, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)
    fine = bicenter_integral(f, g, 2.0)
    monkeypatch.setattr(grids, "_THETA_NODES", 8)
    coarse = bicenter_integral(f, g, 2.0)
    assert coarse == bicenter_integral(g, f, 2.0)
    assert coarse != fine


def test_bicenter_integrals_match_the_single_pair_form(grid):
    # f's side is shared by the g on one grid; every value must be the one a
    # single pair gives, bit for bit
    f = from_callable(grid, lambda r: (1.0 + r**2) ** -1.5, p_tail=3.0, c_tail=1.0)
    plain = from_callable(grid, lambda r: np.exp(-(r**2)))
    tailed = from_callable(grid, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)
    other = make_grid(5, 80, 10.0, 1.0)
    far = from_callable(other, lambda r: np.exp(-((r / 2.0) ** 2)))
    far_tailed = from_callable(other, lambda r: (1.0 + r**2) ** -2.5, p_tail=5.0, c_tail=1.0)
    gs = [plain, far, tailed, far_tailed]
    for rho in (0.0, 1.5):
        assert bicenter_integrals(f, gs, rho) == [bicenter_integral(f, g, rho) for g in gs]


def _full_lattice_side(f, grid, rho):
    """f's side over every row of grid's node and tail-node lattices, each row summed by einsum."""
    t, a = _theta_rule(grid.N, _THETA_NODES)
    return [np.einsum("ik,k->i", f(_offset_distance(s, rho, t)), a)
            for s in (grid.r, _tail_nodes(grid)[0])]


@pytest.mark.parametrize("support", [0.05, 0.4, 2.0, 20.0])
def test_side_skips_exactly_the_rows_outside_the_support(grid, monkeypatch, support):
    # a row whose sphere stays beyond a tail-free f's R_max is exactly 0.0 and
    # is never evaluated; every other row equals the full-lattice sum bit for
    # bit, and a tail model keeps every row
    from hartreekit import grids

    own = make_grid(5, 80, support, 1.0)
    bump = from_callable(own, lambda r: np.exp(1 - 1 / np.clip(1 - (r / support) ** 2, 1e-12, None)))
    tailed = RadialFn(own, bump.values, p_tail=6.0, c_tail=1e-3)
    evaluated, skipped = [], 0
    inner = grids._evaluate

    def spy(fs, r):
        evaluated.append(len(r))
        return inner(fs, r)

    for rho in (0.5, 2.0, 5.0, 30.0):
        for f in (bump, tailed):
            full = _full_lattice_side(f, grid, rho)
            evaluated.clear()
            monkeypatch.setattr(grids, "_evaluate", spy)
            side = _sides([f], grid, rho, True)[0]
            monkeypatch.undo()
            for got, want, s, n in zip(side, full, (grid.r, _tail_nodes(grid)[0]), evaluated):
                assert np.array_equal(got, want), (rho, f is bump)
                outside = np.abs(s - rho) > support
                if f is bump:
                    assert np.all(want[outside] == 0.0)
                    assert n == np.count_nonzero(~outside)
                    skipped += np.count_nonzero(outside)
                else:
                    assert n == len(s)
    assert skipped > 0


def test_overlaps_reject_offsets_that_are_not_finite_and_nonnegative(grid):
    # a nan offset must not read as a far one whose overlap is zero
    f = from_callable(grid, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)
    bump = from_callable(make_grid(5, 80, 1.0, 1.0), lambda r: np.exp(-((4.0 * r) ** 2)))
    for rho in (math.nan, math.inf, -1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda: bicenter_integral(f, bump, rho),
                        lambda: bicenter_integrals(bump, [f, f], rho),
                        lambda: bicenter_rows([(bump, rho)], grid)):
                with pytest.raises(ParameterError, match="offset"):
                    run()


def test_bicenter_disjoint_supports(grid):
    gf = make_grid(5, 80, 1.0, 1.0)
    bump = from_callable(gf, lambda r: np.exp(1 - 1 / np.clip(1 - r**2, 1e-12, None)) * (r < 1))
    far = bicenter_integral(bump, bump, 10.0)
    near = bicenter_integral(bump, bump, 0.0)
    assert abs(far) <= 1e-12 * near


def test_axis_moments_centered_symmetry(grid):
    dens = from_callable(grid, lambda r: np.exp(-(r**2)))
    mass, axial, _ = axis_moment_integrals(dens, 0.0)
    assert axial == 0.0
    assert mass > 0


def test_axis_moments_mass_matches_lp_norm(grid):
    prof = from_callable(grid, lambda r: np.exp(-(r**2)))
    mass, _, _ = axis_moment_integrals(prof.power(10.0 / 3.0), 0.0)
    ref = lp_norm(prof, 10.0 / 3.0) ** (10.0 / 3.0)
    assert abs(mass - ref) <= 1e-10 * ref


def test_axis_moments_point_mass_limit():
    g = make_grid(5, 200, 1.0, 1.0)
    bump = from_callable(g, lambda r: np.exp(-((r / 0.02) ** 2)))
    mass, axial, _ = axis_moment_integrals(bump, 3.0)
    assert abs(axial / mass - 0.75) <= 1e-2


def test_pair_rejects_bad_offsets_and_split_grids(grid):
    prof = from_callable(grid, lambda r: np.exp(-(r**2)))
    for rho in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="offset"):
            Pair(prof, prof, rho)
    with pytest.raises(ParameterError, match="grids"):
        Pair(prof, prof.resample(grid.scaled(2.0)))
    for rho in (-1.0, math.inf):
        with pytest.raises(ParameterError):
            axis_moment_integrals(prof, rho)
    with pytest.raises(ParameterError):
        bicenter_integral(prof, prof, -1.0)


def test_quadrature_rules_are_memoized_read_only():
    t, a = _theta_rule(5, 64)
    again = _theta_rule(5, 64)
    assert again[0] is t and again[1] is a
    for arr in (t, a, *_tail_rule(_TAIL_NODES), *_gauss_legendre(5)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_overlap_quadrature_repeats_bit_for_bit(grid):
    f = from_callable(grid, lambda r: (1.0 + r**2) ** -1.5, p_tail=3.0, c_tail=1.0)
    g = from_callable(grid, lambda r: np.exp(-(r**2)))

    def run():
        return (bicenter_integral(f, g, 2.0), bicenter_integral(g, f, 0.7),
                axis_moment_integrals(f.power(10.0 / 3.0), 2.0))

    first = run()
    assert run() == first


def _derivative_oracles(grid):
    """Each monomial r^k, k <= 4, with its exact derivative and radial Laplacian."""
    r = grid.r
    for k in range(5):
        d1 = k * r ** max(k - 1, 0)
        d2 = k * (k - 1) * r ** max(k - 2, 0)
        yield k, r**k, d1, d2 + (grid.N - 1) * d1 / r


@pytest.mark.parametrize("rows", ["boundary", "interior"])
def test_derivative_stencils_exact_on_quartics(rows):
    # five-node fits are exact on degree <= 4; the first and last two rows use
    # one-sided windows, the others centred ones
    g = make_grid(5, 60, 4.0, 1.05)
    sel = [0, 1, g.M - 2, g.M - 1] if rows == "boundary" else list(range(2, g.M - 2))
    D, L = g.deriv_matrix(), g.laplacian_matrix()
    for k, p, d1, lap in _derivative_oracles(g):
        for got, want in ((apply_stencil(D, p), d1), (apply_stencil(L, p), lap)):
            err = np.abs(got[sel] - want[sel])
            assert np.all(err <= 1e-9 * (1.0 + np.abs(want[sel]))), (k, err.max())


@pytest.mark.parametrize("end_slope", [None, -3.0 * 40.0**-4], ids=["natural", "clamped"])
def test_cubic_spline_matches_scipy(grid, end_slope):
    # the run path's spline must be the one scipy builds with
    # bc_type=((1, 0), (2, 0)) or ((1, 0), (1, end_slope))
    rng = np.random.default_rng(7)
    knots = _spline_knots(grid)
    y = (1.0 + knots**2) ** -1.5 * (1.0 + 0.01 * rng.standard_normal(len(knots)))
    right = (2, 0.0) if end_slope is None else (1, end_slope)
    ref = CubicSpline(knots, y, bc_type=((1, 0.0), right))
    (coefs,) = _cubic_splines(grid, [y], [end_slope])
    for got, want in zip(coefs.T, ref.c):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    x = np.concatenate([[0.0], knots, [grid.R_max], rng.uniform(0.0, grid.R_max, 2000)])
    want = ref(x)
    got = _horner(coefs, *_spline_interval(grid, x))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_radial_fn_spline_honours_the_tail_slope(grid):
    # a tailed profile is clamped to the tail model's slope at R_max, an
    # untailed one ends with zero curvature
    vals = (1.0 + grid.r**2) ** -1.5
    tailed = RadialFn(grid, vals, p_tail=3.0, c_tail=1.0)
    bare = RadialFn(grid, vals)
    for fn, right in ((tailed, (1, -3.0 * grid.R_max**-4.0)), (bare, (2, 0.0))):
        (coefs,) = _splines([fn])
        ref = CubicSpline(_spline_knots(grid), np.concatenate([[coefs[0, 3]], vals]),
                          bc_type=((1, 0.0), right))
        x = np.linspace(0.0, grid.R_max, 777)
        assert np.max(np.abs(fn(x) - ref(x))) <= 1e-15


def _lookup_grids():
    """The run, profile and a member grid, the smallest grid, and steep grids at M = 400."""
    run = make_grid(5, 400, 40.0, 1.02)
    yield "run", run
    yield "profile", make_grid(5, 320, 1.0, 1.0)
    yield "member", run.scaled(0.37)
    yield "M16", make_grid(5, 16, 40.0, 1.02)
    for stretch in (1.1, 1.3, 1.5):
        yield f"stretch{stretch}", make_grid(5, 400, 40.0, stretch)


@pytest.mark.parametrize("name", [name for name, _ in _lookup_grids()])
def test_spline_interval_matches_searchsorted(name):
    # the bucket lookup must give searchsorted's interval, clamped to the last
    # one, at 0, at every knot, at R_max and at random points, with a table
    # whose size is a fixed multiple of M even where the inner cells are
    # 2e-13 wide (stretch 1.5)
    grid = dict(_lookup_grids())[name]
    knots = _spline_knots(grid)
    rng = np.random.default_rng(3)
    x = np.concatenate([[0.0], knots, [grid.R_max], rng.uniform(0.0, grid.R_max, 5000),
                        grid.R_max * rng.uniform(0.0, 1.0, 5000) ** 8])
    want = np.minimum(np.searchsorted(knots, x, side="right") - 1, len(knots) - 2)
    i, z = _spline_interval(grid, x)
    assert np.array_equal(i, want)
    assert np.array_equal(z, x - knots[want])
    starts, first, _, steps = _cell_lookup(grid)
    assert first.size == _BUCKETS_PER_NODE * grid.M + 1
    assert starts.size <= 3 * grid.M
    if name in ("run", "profile"):
        assert steps == 1


def test_radial_fn_rejects_negative_and_nan_radii(grid):
    # a negative or nan radius must raise, not read a reflected cubic or a
    # silent zero; an infinite one is the tail value
    gauss = from_callable(grid, lambda r: np.exp(-(r**2)))
    tailed = from_callable(grid, lambda r: (1.0 + r**2) ** -1.5, p_tail=3.0, c_tail=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (gauss, tailed):
            for r in (-0.5, -50.0, math.nan, np.array([0.5, -1e-300]), np.array([1.0, math.nan])):
                with pytest.raises(ParameterError, match="radius"):
                    f(r)
            assert f(math.inf) == 0.0
            assert np.array_equal(f(np.array([0.0, math.inf])), [f(0.0), 0.0])


def test_theta_rule_needs_no_eigenvectors(monkeypatch):
    # the rule takes its nodes from eigvalsh and its weights from the
    # recurrence: a full eigh costs 45-52 ms under two OpenBLAS threads
    t, a = _theta_rule(5, _THETA_NODES)

    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    _theta_rule.cache_clear()
    try:
        again = _theta_rule(5, _THETA_NODES)
    finally:
        _theta_rule.cache_clear()
    assert np.array_equal(again[0], t) and np.array_equal(again[1], a)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("N", range(5, 11))
def test_theta_rule_matches_gauss_jacobi(N, n):
    a = (N - 3) / 2.0
    t, w = _theta_rule(N, n)
    w = w / sphere_area(N - 1)
    t_ref, w_ref = roots_jacobi(n, a, a)
    assert np.max(np.abs(t - t_ref)) <= 1e-15
    # roots_jacobi itself misses the moments below by up to 9e-14 relative
    assert np.max(np.abs(w - w_ref)) <= 5e-14 * w_ref.max()
    # Gauss exactness: int t^(2k) (1 - t^2)^a dt = B(k + 1/2, a + 1) for 2k < 2n
    for k in range(n):
        exact = math.gamma(k + 0.5) * math.gamma(a + 1.0) / math.gamma(k + a + 1.5)
        assert abs(w @ t ** (2 * k) - exact) <= 1e-13 * exact, k


def _stencil_loop(r, k):
    """Per-row reference: one five-node solve for each node's window."""
    M = len(r)
    D = np.zeros((M, M))
    for i in range(M):
        lo = min(max(i - 2, 0), M - 5)
        x = r[lo : lo + 5] - r[i]
        h = max(abs(x[0]), abs(x[-1]))
        rhs = math.factorial(k) * np.eye(5)[k]
        D[i, lo : lo + 5] = np.linalg.solve(np.vander(x / h, 5, increasing=True).T, rhs) / h**k
    return D


@pytest.mark.parametrize("M", [16, 37, 400])
@pytest.mark.parametrize("k", [1, 2])
def test_apply_stencil_matches_per_row_loop(M, k):
    # the window weights applied to a vector, and to each column of a block,
    # agree with the dense per-row reference to round-off of each row's sum
    r = make_grid(5, M, 40.0, 1.02).r
    D = _stencil_loop(r, k)
    weights = _stencil_weights(r, k)
    X = np.random.default_rng(M).standard_normal((M, 2))
    for x in (X[:, 0], X):
        got, want = apply_stencil(weights, x), D @ x
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * (np.abs(D) @ np.abs(x)))


def test_radial_fn_values_do_not_depend_on_the_batch(grid):
    # all-inside and all-outside calls skip the mask; each value must equal
    # the one a mixed call gives
    tailed = from_callable(grid, lambda r: (1.0 + r**2) ** -1.5, p_tail=3.0, c_tail=1.0)
    untailed = RadialFn(grid, tailed.values)
    inner = np.linspace(0.0, grid.R_max, 101)
    outer = grid.R_max * np.linspace(1.01, 3.0, 50)
    for f in (tailed, untailed):
        mixed = f(np.concatenate([inner, outer]))
        assert np.array_equal(f(inner), mixed[:101])
        assert np.array_equal(f(outer), mixed[101:])
        assert f(float(inner[37])) == mixed[37]
        assert f(float(outer[3])) == mixed[104]
    assert np.all(untailed(outer) == 0.0)


def test_axis_moments_of_a_zero_profile_vanish(grid):
    zero = RadialFn(grid, np.zeros(grid.M))
    assert axis_moment_integrals(zero, 1.0) == (0.0, 0.0, 0.0)
