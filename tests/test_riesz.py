import gc
import math
import weakref

import mpmath as mp
import numpy as np
import pytest

from hartreekit import (
    ParameterError,
    RadialFn,
    angular_kernel,
    dirichlet_seminorm,
    double_energy,
    from_callable,
    hls_constant,
    integrate,
    kernel_for,
    lp_norm,
    make_grid,
    riesz_convolve,
    sobolev_constant,
    sphere_area,
)
from hartreekit.riesz import (
    _NEAR_CELL_REACH,
    _build_conv_matrix,
    _kernel_pieces,
    _kernel_table,
    _log_form,
    _log_moments,
    _tail_cross,
)

# frozen oracles (30-digit evaluation of the Gamma-function formulas)
HLS_5_4 = 15.601260714755495     # pi^(12/5)
HLS_6_4 = 6.4396991501604215
SOBOLEV_5 = 14.811911720005934
S_HL_SQ = 225.0 / 16.0
CONV_COEFF = 15.503138340149910  # pi^3 / 2: |x|^-4 * (1+|y|^2)^-3 = coeff (1+|x|^2)^-2
D4_UNIT_PROFILE = math.pi**6 / 64


def test_hls_constant_against_gamma_oracle():
    assert abs(hls_constant(5, 4.0) - HLS_5_4) <= 1e-12 * HLS_5_4
    assert abs(hls_constant(6, 4.0) - HLS_6_4) <= 1e-12 * HLS_6_4


def test_hls_constant_rejects_bad_exponent():
    with pytest.raises(ParameterError):
        hls_constant(5, 5.0)
    with pytest.raises(ParameterError):
        hls_constant(5, 0.0)


def test_sobolev_constant_closed_vs_rayleigh(grid):
    val = sobolev_constant(grid)  # raises NumericalError if the quotient disagrees
    assert abs(val - SOBOLEV_5) <= 1e-12 * SOBOLEV_5


def test_sobolev_rayleigh_scale_invariance(grid):
    # rescaled extremal profile gives the same quotient
    for d in (1.0, 3.0):
        prof = from_callable(grid, lambda r, d=d: (d / (d**2 + r**2)) ** 1.5,
                             p_tail=3.0, c_tail=d**1.5)
        q = dirichlet_seminorm(prof) / lp_norm(prof, 10.0 / 3.0) ** 2
        assert abs(q - SOBOLEV_5) <= 1e-3 * SOBOLEV_5


def test_angular_kernel_zero_radius_and_symmetry():
    val = angular_kernel(4.0, 1.0, 0.0, 5)
    assert abs(val - sphere_area(5)) <= 1e-12 * sphere_area(5)
    a = angular_kernel(4.0, 2.0, 1.0, 5)
    b = angular_kernel(4.0, 1.0, 2.0, 5)
    assert abs(a - b) <= 1e-12 * a
    with pytest.raises(ParameterError):
        angular_kernel(4.0, 0.0, 0.0, 5)


@pytest.mark.parametrize("alpha", [3.0, 4.5, 6.0])
def test_angular_kernel_rejects_other_exponents(alpha):
    # every table and caller uses |x|^-4; no other exponent has an evaluator
    with pytest.raises(ParameterError):
        angular_kernel(alpha, 2.0, 1.0, 5)


def test_angular_kernel_critical_diagonal_diverges():
    # at the critical pair the angular average is logarithmically divergent
    # on the diagonal; only cell-integrated quantities are finite
    assert angular_kernel(4.0, 1.0, 1.0, 5) == math.inf


def test_angular_kernel_monte_carlo_oracle():
    rng = np.random.default_rng(42)
    n = 400_000
    x = rng.normal(size=(n, 5))
    w = x / np.linalg.norm(x, axis=1, keepdims=True)
    e1 = np.zeros(5)
    e1[0] = 1.0

    # off-diagonal at the critical exponent
    d = np.linalg.norm(2.0 * e1 - 1.0 * w, axis=1)
    mc = sphere_area(5) * np.mean(d**-4.0)
    err = sphere_area(5) * np.std(d**-4.0) / math.sqrt(n)
    val = angular_kernel(4.0, 2.0, 1.0, 5)
    assert abs(val - mc) <= max(4 * err, 1e-3 * val)


def _angular_mp(N, r, s):
    """K_4(r, s) in dimension N by mpmath quadrature over the polar angle."""
    r, s = mp.mpf(r), mp.mpf(s)
    area = 2 * mp.pi ** (mp.mpf(N - 1) / 2) / mp.gamma(mp.mpf(N - 1) / 2)  # |S^{N-2}|
    width = abs(r - s) / mp.sqrt(r * s)  # angular width of the near-diagonal peak
    pts = [0] + [width * 4**j for j in range(8) if width * 4**j < mp.pi] + [mp.pi]
    return area * mp.quad(
        lambda t: mp.sin(t) ** (N - 2) * (r * r + s * s - 2 * r * s * mp.cos(t)) ** -2, pts)


@pytest.mark.parametrize("N,r", [(6, 0.3), (6, 0.99), (6, 1.01), (8, 0.5), (10, 5.0),
                                 (10, 0.99)])
def test_angular_kernel_generic_dimension_against_mpmath(N, r):
    # the closed form against an adaptive quadrature of the sphere average;
    # at N = 6 the kernel is exactly |S^5| / max(r, s)^4
    val = angular_kernel(4.0, r, 1.0, N)
    with mp.workdps(30):
        exact = float(_angular_mp(N, r, 1.0))
    assert abs(val - exact) <= 1e-10 * exact
    if N == 6:
        closed = sphere_area(6) / max(r, 1.0) ** 4
        assert abs(val - closed) <= 1e-10 * closed


def test_kernel_table_symmetry_and_positivity(grid):
    # the closed-form K_4 table behind C; C itself is not all positive, since
    # the near-diagonal product-integration weights carry both signs
    for N in (5, 6, 7):
        K = _kernel_table(N, grid.r, grid.r)
        off = ~np.eye(grid.M, dtype=bool)
        assert np.all(K[off] > 0)
        assert np.array_equal(K[off], K.T[off])


def _k4_hyp2f1(N, r, s):
    """K_4(r, s) = |S^{N-1}| R^-4 2F1(2, 3 - N/2; N/2; (rho/R)^2) in mpmath arithmetic."""
    r, s = mp.mpf(r), mp.mpf(s)
    big, small = max(r, s), min(r, s)
    area = 2 * mp.pi ** (mp.mpf(N) / 2) / mp.gamma(mp.mpf(N) / 2)
    return area * big**-4 * mp.hyp2f1(2, 3 - mp.mpf(N) / 2, mp.mpf(N) / 2, (small / big) ** 2)


@pytest.mark.parametrize("N", range(5, 11))
def test_kernel_table_against_hyp2f1(N):
    # both sides of the diagonal, and the small ratio where the odd-N form
    # cancels and the Gauss series takes over; on the diagonal (finite above
    # N = 5) the pointwise kernel reads Gauss's sum
    ratios = np.array([2.4e-4, 0.3, 0.999, 1.001, 4.0])
    K = _kernel_table(N, ratios, np.array([1.0]))[:, 0]
    with mp.workdps(40):
        exact = np.array([float(_k4_hyp2f1(N, q, 1)) for q in ratios])
        diagonal = float(_k4_hyp2f1(N, 2, 2)) if N > 5 else math.inf
    assert np.max(np.abs(K / exact - 1.0)) <= 1e-13
    for q, k in zip(ratios, K):
        assert angular_kernel(4.0, q, 1.0, N) == k
    assert angular_kernel(4.0, 2.0, 2.0, N) == pytest.approx(diagonal, rel=1e-13)


def test_log_form_coefficients():
    # the elementary odd-N form: N = 5 is the classical pi^2 [(r^2 + s^2)
    # ln((r+s)/|r-s|) - 2rs] / (r^3 s^3), N = 7 its next case
    assert _log_form(5) == ((0.75, 0.75), (-0.75,))
    a = 15 / 32
    assert _log_form(7) == ((-a, a, a, -a), (a, -5 / 16, a))


@pytest.mark.parametrize("N,M", [(5, 400), (6, 400), (7, 400), (8, 400), (9, 800), (10, 800)])
def test_bubble_amplitude_matches_gamma_closed_form(N, M):
    # C_N = sqrt(N (N-2) Gamma(N-2) / (pi^(N/2) Gamma((N-4)/2))); at N = 9, 10
    # the Dirichlet stencil alone is off by 2.5e-5 and 5.3e-5 at M = 400
    from hartreekit import bubble_constant

    exact = math.sqrt(N * (N - 2) * math.gamma(N - 2)
                      / (math.pi ** (N / 2) * math.gamma((N - 4) / 2)))
    c = bubble_constant(N, make_grid(N, M, 40.0, 1.02))
    assert abs(c - exact) <= 1e-5 * exact


@pytest.mark.parametrize("n", [5, 6])
def test_scaled_grid_tables_derive_from_its_root(n):
    # a scaled grid asked first still builds on its root and scales C by
    # c^(N-4); the root's table is that of a fresh equal grid
    c = 2.5
    root = make_grid(n, 40, 10.0, 1.02)
    child = root.scaled(c)
    kc = kernel_for(child)
    kr = kernel_for(root)
    assert np.array_equal(kc.C, kr.C * c ** (n - 4))
    fresh = kernel_for(make_grid(n, 40, 10.0, 1.02))
    assert np.array_equal(kr.C, fresh.C)
    grand = child.scaled(2.0)
    assert grand.parent is root
    assert np.array_equal(kernel_for(grand).C, kr.C * 5.0 ** (n - 4))


def test_convolution_far_field(grid):
    gf = make_grid(5, 120, 1.0, 1.0)
    bump = from_callable(gf, lambda r: np.exp(1 - 1 / np.clip(1 - r**2, 1e-12, None)) * (r < 1))
    bump_on_main = RadialFn(grid, bump(grid.r))
    conv = riesz_convolve(bump_on_main)
    mass = integrate(bump_on_main)
    i = int(np.argmin(abs(grid.r - 30.0)))
    assert abs(conv.values[i] * grid.r[i] ** 4 / mass - 1.0) <= 1e-3


def test_convolution_of_bubble_density_is_proportional(grid):
    prof = from_callable(grid, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)
    conv = riesz_convolve(prof)
    sel = grid.r < 10.0
    ratio = conv.values[sel] / ((1.0 + grid.r[sel] ** 2) ** -2.0)
    assert np.max(np.abs(ratio / CONV_COEFF - 1.0)) <= 1e-3
    assert abs(conv.c_tail - integrate(prof)) == 0.0


def test_convolution_linearity(grid):
    f = from_callable(grid, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)
    g = from_callable(grid, lambda r: np.exp(-(r**2)))
    lhs = riesz_convolve(2.0 * f + 3.0 * g).values
    rhs = 2.0 * riesz_convolve(f).values + 3.0 * riesz_convolve(g).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_convolution_of_zero(grid):
    z = RadialFn(grid, np.zeros(grid.M))
    assert np.all(riesz_convolve(z).values == 0.0)


def test_double_energy_of_unit_profile(grid):
    sq = from_callable(grid, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)
    val = double_energy(sq, sq)
    assert abs(val - D4_UNIT_PROFILE) <= 1e-8 * D4_UNIT_PROFILE


def _bubble_square(grid):
    return from_callable(grid, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)


def _gaussian(grid, width):
    return from_callable(grid, lambda r: np.exp(-((r / width) ** 2)))


def test_double_energy_symmetry(grid):
    f, g = _bubble_square(grid), _gaussian(grid, 1.0)
    assert double_energy(f, g) == double_energy(g, f)


def test_double_energy_matches_the_dense_energy_matrix(grid):
    # the energy matrix E = sym(W C), built here as the oracle: D(f, g) has
    # the core f^T E g and the symmetrized tail terms
    WC = grid.w[:, None] * kernel_for(grid).C
    E = 0.5 * (WC + WC.T)
    sq = _bubble_square(grid)
    widths = [(0.3, 0.3), (0.3, 4.0), (1.0, 1.2), (2.5, 0.7), (4.0, 4.0), (0.3, 1.0)]
    cases = [(_gaussian(grid, a), _gaussian(grid, b)) for a, b in widths]
    cases += [(sq, sq), (sq, _gaussian(grid, 1.0))]
    for f, g in cases:
        want = float(f.values @ E @ g.values) + 0.5 * (_tail_cross(f, g) + _tail_cross(g, f))
        assert abs(double_energy(f, g) - want) <= 1e-13 * abs(want)


def test_double_energy_hls_inequality(grid):
    rng = np.random.default_rng(7)
    C = hls_constant(5, 4.0)
    for _ in range(20):
        a1, a2 = rng.uniform(0.2, 2.0, 2)
        w1, w2 = rng.uniform(0.3, 4.0, 2)
        f = from_callable(grid, lambda r: a1 * np.exp(-((r / w1) ** 2)))
        g = from_callable(grid, lambda r: a2 * np.exp(-((r / w2) ** 2)))
        lhs = double_energy(f, g)
        rhs = C * lp_norm(f, 5.0 / 3.0) * lp_norm(g, 5.0 / 3.0)
        assert lhs <= rhs * (1.0 + 1e-10)


def test_double_energy_positive_definite_on_nonnegative(grid):
    rng = np.random.default_rng(11)
    for _ in range(10):
        vals = rng.uniform(0.0, 1.0, grid.M) * np.exp(-grid.r)
        f = RadialFn(grid, vals)
        assert double_energy(f, f) > 0
    z = RadialFn(grid, np.zeros(grid.M))
    assert double_energy(z, z) == 0.0


def test_constants_table_identity(constants):
    assert abs(constants.s_hl_sq * constants.hls - constants.sobolev**2) \
        <= 1e-12 * constants.sobolev**2
    assert abs(constants.s_hl_sq - S_HL_SQ) <= 1e-12 * S_HL_SQ


def test_bubble_double_energy_vs_dirichlet(grid, constants):
    cn = constants.bubble_norm
    U = from_callable(grid, lambda r: cn * (1.0 / (1.0 + r**2)) ** 1.5,
                      p_tail=3.0, c_tail=cn)
    d4 = double_energy(U.squared(), U.squared())
    grad = dirichlet_seminorm(U)
    assert abs(d4 - grad) <= 1e-4 * grad
    assert abs(d4 - S_HL_SQ) <= 1e-3 * S_HL_SQ
    assert abs(grad - S_HL_SQ) <= 1e-3 * S_HL_SQ


def test_constants_table_serializes(constants):
    import json

    d = constants.to_dict()
    blob = json.dumps(d, sort_keys=True)
    back = json.loads(blob)
    assert back["N"] == 5
    assert abs(back["s_hl_squared"] - S_HL_SQ) <= 1e-12 * S_HL_SQ


def test_generic_dimension_kernel_path():
    # N = 6: the kernel |S^5| / max(r, s)^4 has a kink on the diagonal, which
    # the split-cell weights integrate exactly; the bubble amplitude there is
    # sqrt(N (N-2) * Gamma(N-2) / (pi^(N/2) Gamma((N-4)/2)))
    from hartreekit import bubble_constant, dirichlet_seminorm, make_constants_table

    exact_c6 = math.sqrt(24.0 * 6.0 / math.pi**3)
    g6 = make_grid(6, 400, 40.0, 1.02)
    c6 = bubble_constant(6, g6)
    assert abs(c6 - exact_c6) <= 1e-5 * exact_c6
    t6 = make_constants_table(g6)
    U6 = from_callable(g6, lambda r: c6 * (1.0 / (1.0 + r**2)) ** 2.0,
                       p_tail=4.0, c_tail=c6)
    assert abs(dirichlet_seminorm(U6) - t6.s_hl_sq) <= 1e-5 * t6.s_hl_sq
    assert abs(double_energy(U6.squared(), U6.squared()) - t6.s_hl_sq) \
        <= 1e-5 * t6.s_hl_sq


def _k4_mp(r, s):
    """K_4(r, s) in closed form (N = 5), evaluated in mpmath arithmetic."""
    return mp.pi**2 * ((r**2 + s**2) * mp.log((r + s) / abs(r - s)) - 2 * r * s) / (r**3 * s**3)


def _check_near_cell_weights(grid, cell, kernel, tol):
    """Each row of the cell applies its product-integration weights to a
    polynomial of degree q - 1 on every near cell; the oracle is an adaptive
    mpmath quadrature of K_4(r_i, s) s^(N-1) f(s), split at s = r_i."""
    n_cells = len(grid.edges) - 1
    C = kernel_for(grid).C
    for i in np.flatnonzero(grid.node_cell == cell):
        ri = mp.mpf(grid.r[i])
        for near in range(max(cell - 1, 0), min(cell + 2, n_cells)):
            cols = np.flatnonzero(grid.node_cell == near)
            lo, hi = grid.edges[near], grid.edges[near + 1]
            # in s itself, and in the cell's own variable, where the top
            # degree weighs as much as the rest
            polys = [lambda s, q=len(cols): sum(s**d for d in range(q)),
                     lambda s, q=len(cols): sum(((s - lo) / (hi - lo))**d for d in range(q))]
            pts = [lo, ri, hi] if lo < grid.r[i] < hi else [lo, hi]
            for f in polys:
                exact = float(mp.quad(lambda s: kernel(ri, s) * s ** (grid.N - 1) * f(s), pts))
                got = C[i, cols] @ f(grid.r[cols])
                assert abs(got - exact) <= tol * abs(exact), (i, near)


@pytest.mark.parametrize("where", ["first", "mid", "last", "last-six-node"])
def test_near_cell_weights_against_mpmath(grid, where):
    # the last cells of M = 403 hold six nodes; the innermost rows' weights
    # on the next cell, where P ln + Q cancels by about (s/r)^2, hold to 6e-12
    if where == "last-six-node":
        grid = make_grid(5, 403, 40.0, 1.02)
        assert np.count_nonzero(grid.node_cell == grid.node_cell[-1]) == 6
    n_cells = len(grid.edges) - 1
    cell = {"first": 0, "mid": n_cells // 2}.get(where, n_cells - 1)
    with mp.workdps(30):
        _check_near_cell_weights(grid, cell, _k4_mp, 1e-10)


def _k7_mp(r, s):
    """K_4(r, s) at N = 7 in its elementary form, in mpmath arithmetic (x = t^2):
    |S^6| R^-4 (15/32) [-(1 - x)^2 (1 + x) atanh(t)/t + 1 - 2x/3 + x^2] / x^2."""
    big, small = max(r, s), min(r, s)
    t = small / big
    x = t * t
    form = -(1 - x) ** 2 * (1 + x) * mp.atanh(t) / t + 1 - 2 * x / 3 + x * x
    return 16 * mp.pi**3 / 15 * big**-4 * mp.mpf(15) / 32 * form / (x * x)


@pytest.mark.parametrize("N", [6, 7, 8])
@pytest.mark.parametrize("where", ["first", "mid"])
def test_near_cell_weights_in_other_dimensions(N, where):
    # even N: exact polynomials on each side of r_i; odd N: the log form of
    # `_log_form`, whose cancellation for s >> r_i grows like (s/r)^(N-3)
    # (3.3e-9 on row 0 against cell 1 at N = 7)
    grid = make_grid(N, 400, 40.0, 1.02)
    cell = {"first": 0, "mid": (len(grid.edges) - 1) // 2}[where]
    kernel = _k7_mp if N == 7 else (lambda r, s: _k4_hyp2f1(N, r, s))
    with mp.workdps(30):
        _check_near_cell_weights(grid, cell, kernel, 1e-8)


def _reference_near_cell_block(grid, cell, rows):
    """The near-cell weights of one cell, built on their own."""
    ri = grid.r[rows]
    s_nodes = grid.r[grid.node_cell == cell]
    q = len(s_nodes)
    lo_e, hi_e = grid.edges[cell], grid.edges[cell + 1]
    mid, h = 0.5 * (hi_e + lo_e), 0.5 * (hi_e - lo_e)
    Linv = np.linalg.inv(np.vander((s_nodes - mid) / h, q, increasing=True))
    n = np.arange(2 * grid.N - 6)
    binomials = np.array([[math.comb(a, b) for b in n] for a in n], dtype=float)
    shift = binomials * mid ** np.clip(n[:, None] - n[None, :], 0, None) * h ** n[None, :]
    hankel = n[:, None] + np.arange(q)[None, :]
    pieces = _kernel_pieces(grid.N, ri, (ri - mid) / h, -(ri + mid) / h, len(n) + q - 2)
    G = sum(np.einsum("ra,rab->rb", np.einsum("rn,nm->rm", coef, shift), mom[:, hankel])
            for coef, mom in pieces)
    return h * G @ Linv


@pytest.mark.parametrize("m", [37, 400, 403])
def test_conv_matrix_matches_the_per_cell_reference(m):
    # the batched near-diagonal pass against one block per cell, in an odd and
    # an even dimension; at M = 37 and 403 the outer cells hold six nodes, so
    # both node-count groups are built
    for N in (5, 6, 7):
        grid = make_grid(N, m, 40.0, 1.02)
        assert set(np.bincount(grid.node_cell)) == ({5} if m == 400 else {5, 6})
        r = grid.r
        ref = _kernel_table(N, r, r) * (grid.w1 * r ** (N - 1))[None, :]
        for cell in range(len(grid.edges) - 1):
            cols = np.flatnonzero(grid.node_cell == cell)
            rows = np.flatnonzero(np.abs(grid.node_cell - cell) <= _NEAR_CELL_REACH)
            ref[np.ix_(rows, cols)] = _reference_near_cell_block(grid, cell, rows)
        C = _build_conv_matrix(grid)
        assert np.all(np.isfinite(C))
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(C - ref) / scale) <= 1e-13, N


def test_log_moments_against_mpmath():
    # one vectorized call over both branches (a Gauss rule for |c| > 1.25); the
    # by-parts branch loses about 1.25^k ulps at its edge.  k runs past the top
    # degree of the pieces at N = 9 with six-node cells
    centres = np.array([0.0, 1.0, -1.0, 0.9999, 1.25, -1.2501, 1.5, 2.999, 3.0, -7.0,
                        -12.0, 1e3, -1e4, 40.0])
    k_max = 17
    got = _log_moments(k_max, centres)
    assert got.shape == (len(centres), k_max + 1)
    with mp.workdps(30):
        for c, row in zip(centres, got):
            pts = [-1, c, 1] if abs(c) < 1 else [-1, 1]
            for k in range(k_max + 1):
                exact = float(mp.quad(lambda s: s**k * mp.log(abs(s - c)), pts))
                assert abs(row[k] - exact) <= 1e-13 * abs(exact) + 1e-15, (c, k)
    assert np.array_equal(_log_moments(k_max, 40.0), got[-1])


def test_log_moments_rows_do_not_depend_on_the_batch():
    # a centre's row is the same bit for bit alone and among about 1000 mixed
    # centres of both branches
    rng = np.random.default_rng(3)
    centres = np.concatenate([
        [0.0, 1.25, -1.25, 1.2501, -1.2501, 3.0, -3.0],
        rng.uniform(-3.0, 3.0, 400),
        rng.choice([-1.0, 1.0], 595) * 10.0 ** rng.uniform(math.log10(3.0), 5.0, 595),
    ])
    rng.shuffle(centres)
    for k_max in (6, 7):
        batch = _log_moments(k_max, centres)
        for c, row in zip(centres, batch):
            assert np.array_equal(_log_moments(k_max, c), row), (k_max, c)


@pytest.mark.parametrize("child_first", [False, True])
def test_kernel_tables_free_with_their_grid(child_first):
    # the tables must not point back at the grid that caches them, or every
    # grid with tables waits for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        base = make_grid(5, 40, 10.0, 1.02)
        child = base.scaled(2.0)
        for g in ((child, base) if child_first else (base, child)):
            kernel_for(g)
        refs = [weakref.ref(base), weakref.ref(child)]
        del base, child, g
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_tail_kernel_table_is_cached_per_grid():
    # the table against the tail nodes depends on the grid only; a scaled
    # grid keeps its own, and a warm call gives the cold call's numbers
    base = make_grid(5, 60, 10.0, 1.02)
    child = base.scaled(2.0)
    for g in (base, child):
        f = from_callable(g, lambda r: (1.0 + r**2) ** -3.0, p_tail=6.0, c_tail=1.0)
        cold = riesz_convolve(f).values
        table = g._cache["tail_kernel"]
        assert table.shape == (60, 32)
        assert np.array_equal(riesz_convolve(f).values, cold)
        assert g._cache["tail_kernel"] is table
    assert base._cache["tail_kernel"] is not child._cache["tail_kernel"]
