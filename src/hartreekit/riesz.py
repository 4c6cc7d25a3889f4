"""Nonlocal engine: angular-averaged Riesz kernels and the double energy.

The system convolves with |x|^-4 in every dimension N >= 5 (the HLS-critical
case, where u^2 is exactly the critical power).  For radial f,

    (|x|^-4 * f)(r) = int_0^inf K_4(r, s) s^(N-1) f(s) ds,
    K_4(r, s) = int_{S^{N-1}} |r e1 - s w|^-4 dw
              = |S^{N-1}| R^-4 2F1(2, 3 - N/2; N/2; (rho/R)^2)

with R = max(r, s), rho = min(r, s) (Funk-Hecke; DLMF 15.2), one evaluator
for every N and every table.  At even N the series terminates and
K_4 s^(N-1) is a polynomial in s on each side of r (a kink on the diagonal);
at odd N it is P(s) ln((r+s)/|r-s|) + Q(s), log-singular on the diagonal at
N = 5.  The cells nearest the diagonal are therefore integrated exactly
against each cell's Lagrange interpolant (product integration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, NumericalError, ParameterError
from .grids import (
    _TAIL_NODES,
    RadialFn,
    RadialGrid,
    _gauss_legendre,
    _has_tail,
    _tail_rule,
    dirichlet_seminorm,
    from_callable,
    integrate,
    lp_norm,
    sphere_area,
)

__all__ = [
    "hls_constant",
    "sobolev_constant",
    "angular_kernel",
    "AngularKernel",
    "kernel_for",
    "riesz_convolve",
    "double_energy",
    "ConstantsTable",
]

_ALPHA = 4.0  # the Riesz exponent of every grid table
_NEAR_CELL_REACH = 1  # cells on each side of the diagonal handled by exact moments
_SERIES_BELOW = 0.01  # odd N: the Gauss series where x^p < this (the closed form cancels)
_BLOCK_ENTRIES = 2**15  # table entries evaluated per block in `_build_conv_matrix`


def hls_constant(N: int, alpha: float) -> float:
    """Sharp constant of the diagonal Hardy-Littlewood-Sobolev inequality.

    C(N, alpha) = pi^(alpha/2) Gamma((N-alpha)/2) / Gamma((2N-alpha)/2)
                  * (Gamma(N/2) / Gamma(N))^(-(N-alpha)/N)
    """
    if not 0 < alpha < N:
        raise ParameterError(f"alpha must lie in (0, N), got alpha={alpha}, N={N}")
    log_c = (
        0.5 * alpha * math.log(math.pi)
        + math.lgamma((N - alpha) / 2.0)
        - math.lgamma((2.0 * N - alpha) / 2.0)
        - (-(N - alpha) / N) * (math.lgamma(N) - math.lgamma(N / 2.0))
    )
    return math.exp(log_c)


def unit_extremal(grid: RadialGrid) -> RadialFn:
    """The unit-amplitude extremal profile (1 + r^2)^(-(N-2)/2) on `grid`."""
    p = (grid.N - 2) / 2.0
    return from_callable(grid, lambda r: (1.0 + r**2) ** (-p),
                         p_tail=grid.N - 2, c_tail=1.0)


def sobolev_constant(grid: RadialGrid) -> float:
    """Best constant in the embedding D^{1,2} -> L^{2*} in dimension grid.N.

    Closed form  N(N-2) pi (Gamma(N/2)/Gamma(N))^{2/N},  cross-checked against
    the Rayleigh quotient of the extremal profile (1 + r^2)^(-(N-2)/2) on
    `grid`; disagreement beyond 0.1% raises NumericalError.
    """
    N = grid.N
    closed = N * (N - 2) * math.pi * math.exp(
        (2.0 / N) * (math.lgamma(N / 2.0) - math.lgamma(N))
    )
    prof = unit_extremal(grid)
    two_star = 2.0 * N / (N - 2.0)
    rayleigh = dirichlet_seminorm(prof) / lp_norm(prof, two_star) ** 2
    if abs(rayleigh - closed) > 1e-3 * closed:
        raise NumericalError(
            f"Sobolev constant cross-check failed: closed={closed}, rayleigh={rayleigh}"
        )
    return closed


# ---------------------------------------------------------------------------
# the angular kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gauss_series(N: int, n: int) -> tuple[Fraction, ...]:
    """First n coefficients of 2F1(2, 3 - N/2; N/2; x), exact (0 from N/2 - 2 on at even N)."""
    f = [Fraction(1)]
    for k in range(n - 1):
        f.append(f[-1] * (2 + k) * (Fraction(6 - N, 2) + k) / ((Fraction(N, 2) + k) * (k + 1)))
    return tuple(f)


@lru_cache(maxsize=None)
def _log_form(N: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Odd N: A_N, B_N (coefficients in x) with, t = sqrt(x), p = (N - 3)/2,
    x^p 2F1(2, 3 - N/2; N/2; x) = A_N(x) atanh(t)/t + B_N(x).  A_N = a_N (1 + x)(1 - x)^(N-5),
    a_N = (-1)^m m (m-1) C(2m, m) / 2^(4m-4) for N = 2m + 1, is the u^-1 term of the
    partial fractions of int (1 - tau^2)^p (1 + x - 2 t tau)^-2 dtau; B_N, of
    degree N - 5, is the rest of the Gauss series (both exact, then rounded).
    """
    m, p = (N - 1) // 2, (N - 3) // 2
    a_N = Fraction((-1) ** m * m * (m - 1) * math.comb(2 * m, m), 2 ** (4 * m - 4))
    A = [a_N * (-1) ** k * Fraction(math.comb(N - 4, k) * (N - 4 - 2 * k), N - 4)
         for k in range(N - 3)]
    f = _gauss_series(N, N - 4 - p)
    B = [(f[n - p] if n >= p else 0) - sum(A[j] / (2 * (n - j) + 1) for j in range(n + 1))
         for n in range(N - 4)]
    return tuple(map(float, A)), tuple(map(float, B))


def _reduced_kernel(N: int, t: np.ndarray) -> np.ndarray:
    """k(t) = t^2 2F1(2, 3 - N/2; N/2; t^2) for t in (0, 1], so that
    K_4(r, s) = |S^{N-1}| k(t) / (r^2 s^2) with t = min(r, s)/max(r, s).

    Even N sums the terminating series.  Odd N takes `_log_form` (not finite
    at t = 1), except where x^p < _SERIES_BELOW: the form cancels by about
    x^-p, so there the Gauss series is summed to its first term under 1e-17.
    """
    x = t * t
    if N % 2 == 0:
        return x * np.polyval(np.array(_gauss_series(N, N // 2 - 2)[::-1], dtype=float), x)
    x_cut = _SERIES_BELOW ** (2 / (N - 3))  # where x^p = _SERIES_BELOW
    A, B = _log_form(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.polyval(A[::-1], x) * (np.arctanh(t) / t) + np.polyval(B[::-1], x)
    k /= x ** ((N - 5) // 2)
    small = x < x_cut
    series = np.array(_gauss_series(N, math.ceil(17 / -math.log10(x_cut)))[::-1], dtype=float)
    k[small] = x[small] * np.polyval(series, x[small])
    return k


def _kernel_table(N: int, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """K_4 on an r x s product of positive radii (not finite at r = s for odd N);
    t = min/max is the same float either way round, so K is symmetric."""
    t = np.minimum(np.divide.outer(r, s), np.divide.outer(s, r).T)
    return sphere_area(N) * _reduced_kernel(N, t) / np.multiply.outer(r**2, s**2)


def angular_kernel(alpha: float, r: float, s: float, N: int) -> float:
    """K_alpha(r, s) = int_{S^{N-1}} |r e1 - s w|^(-alpha) dw, for alpha = 4 only.

    Funk-Hecke (DLMF 15.2), as in every grid table.  On the diagonal Gauss's
    sum 2F1(2, 3 - N/2; N/2; 1) = (N - 2) / (4 (N - 5)) is infinite at N = 5,
    where the singularity is logarithmic (only cell integrals are finite).
    """
    if alpha != _ALPHA or N < 5 or r < 0 or s < 0 or r == s == 0:
        raise ParameterError(f"need alpha = 4, N >= 5 and radii >= 0, not both zero; got "
                             f"alpha={alpha}, N={N}, r={r}, s={s}")
    if r == s or 0 in (r, s):  # the diagonal, or 2F1(...; 0) = 1
        with np.errstate(divide="ignore"):
            value = np.float64(N - 2) / (4 * (N - 5)) if r == s else 1.0
        return float(sphere_area(N) * max(r, s) ** -_ALPHA * value)
    return float(_kernel_table(N, np.array([r]), np.array([s]))[0, 0])


# ---------------------------------------------------------------------------
# quadrature matrices
# ---------------------------------------------------------------------------

def _log_moments(k_max: int, c) -> np.ndarray:
    """I_k(c) = int_-1^1 sigma^k ln|sigma - c| d(sigma), k = 0..k_max, shape c.shape + (k_max + 1,).

    |c| <= 1.25: by parts against (sigma^(k+1) - c^(k+1))/(k+1), which vanishes
    at c (about 1.25^k ulps lost).  Beyond, ln|c| m_k plus ln(1 - sigma/c),
    analytic on [-1, 1], by a 32-node Gauss-Legendre rule.  Each centre's row
    is bit for bit its own, whatever else the call holds.
    """
    flat = np.asarray(c, dtype=float).reshape(-1)
    ks, m = np.arange(k_max + 1), _plain_moments(k_max, -1.0, 1.0)
    out = np.empty((flat.size, k_max + 1))
    near = np.abs(flat) <= 1.25
    cn, cf = flat[near, None], flat[~near, None]
    cpow = cn ** (ks + 1)

    def bound(end):  # (end^(k+1) - c^(k+1)) ln|end - c|, which is 0 at c = end
        return (end ** (ks + 1) - cpow) * np.log(np.abs(np.where(cn == end, 1.0, end - cn)))

    out[near] = bound(1.0) - bound(-1.0)
    acc = np.zeros(len(cn))
    for k in ks:  # - sum_i c^(k-i) m_i
        acc = acc * cn[:, 0] + m[k]
        out[near, k] -= acc
    out[near] /= ks + 1
    x, w = _gauss_legendre(32)
    out[~near] = np.log(np.abs(cf)) * m + np.einsum(
        "cg,gk->ck", np.log1p(-x / cf), w[:, None] * x[:, None] ** ks)
    return out.reshape(np.shape(c) + (k_max + 1,))


def _plain_moments(k_max: int, lo, hi) -> np.ndarray:
    """int_lo^hi sigma^k d(sigma), k = 0..k_max; limits scalars or per-pair arrays."""
    ks = np.arange(1, k_max + 2)
    return (np.power.outer(hi, ks) - np.power.outer(lo, ks)) / ks


def _kernel_pieces(N: int, ri: np.ndarray, c_minus: np.ndarray, c_plus: np.ndarray,
                   k_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """K_4(r_i, s) s^(N-1) on each pair's cell as [(coefficients of s^0..s^(2N-7),
    moments k = 0..k_max of the piece's weight in sigma)]; sigma(+-r_i) = c_minus/c_plus.
    Odd N: P ln((r_i + s)/|r_i - s|) + Q, P = |S|/2 sum a_k r_i^(N-6-2k) s^(2k+1),
    Q = |S| sum b_k r_i^(N-7-2k) s^(2k+2) (`_log_form`).  Even N: |S| sum f_k
    r_i^(-4-2k) s^(N-1+2k) below r_i and |S| sum f_k r_i^(2k) s^(N-5-2k) above.
    """
    area, r = sphere_area(N), ri[:, None]
    coef = np.zeros((2, len(ri), 2 * N - 6))
    if N % 2:
        A, B = (np.array(v, dtype=float) for v in _log_form(N))
        coef[0, :, 1::2] = area / 2 * A * r ** (N - 6 - 2 * np.arange(N - 3))
        coef[1, :, 2::2] = area * B * r ** (N - 7 - 2 * np.arange(N - 4))
        mom_plus, mom_minus = _log_moments(k_max, np.stack([c_plus, c_minus]))
        return [(coef[0], mom_plus - mom_minus),
                (coef[1], _plain_moments(k_max, -1.0, np.ones_like(ri)))]
    f = np.array(_gauss_series(N, N // 2 - 2), dtype=float)
    coef[0, :, N - 1::2] = area * f * r ** (-4 - 2 * np.arange(len(f)))
    coef[1, :, N - 5::-2] = area * f * r ** (2 * np.arange(len(f)))
    split = np.clip(c_minus, -1.0, 1.0)
    return [(coef[0], _plain_moments(k_max, -1.0, split)),
            (coef[1], _plain_moments(k_max, split, 1.0))]


def _near_cell_weights(grid: RadialGrid, C: np.ndarray) -> None:
    """Overwrite C's near-diagonal blocks with product-integration weights
    (Atkinson 1997, sec. 4.2): each (row i, cell) pair within _NEAR_CELL_REACH
    cells of the diagonal gets the exact int_cell K(r_i, s) s^{N-1} f(s) ds of
    the cell's Lagrange interpolant f, since `_kernel_pieces` are polynomials
    times 1 or a log.  Every pair of one cell node count is one batched pass.
    """
    counts = np.bincount(grid.node_cell)
    first = np.cumsum(counts) - counts
    mids = 0.5 * (grid.edges[1:] + grid.edges[:-1])
    hs = 0.5 * (grid.edges[1:] - grid.edges[:-1])
    n = np.arange(2 * grid.N - 6)  # powers of s in every piece
    binomials = np.array([[math.comb(a, b) for b in n] for a in n], dtype=float)
    for q in np.unique(counts):
        cells = np.flatnonzero(counts == q)
        nodes = first[cells][:, None] + np.arange(q)   # (cell, node) grid indices
        # every (row, cell k of the group) pair within reach: each row's window
        # of cells read through a table of the group's slots (-1 elsewhere)
        slot = np.full(len(counts) + 2 * _NEAR_CELL_REACH, -1)
        slot[cells + _NEAR_CELL_REACH] = np.arange(len(cells))
        window = slot[grid.node_cell[:, None] + np.arange(2 * _NEAR_CELL_REACH + 1)]
        rows, j = np.nonzero(window >= 0)
        k = window[rows, j]
        mid, h, ri = mids[cells], hs[cells], grid.r[rows]
        # column j = monomial coeffs (in sigma) of Lagrange basis j, per cell
        x = (grid.r[nodes] - mid[:, None]) / h[:, None]
        Linv = np.linalg.inv(x[:, :, None] ** np.arange(q))
        # s^n = sum_m shift[n, m] sigma^m with s = mid + h sigma, per pair
        shift = (binomials * mid[:, None, None] ** np.clip(n[:, None] - n, 0, None)
                 * h[:, None, None] ** n)[k]
        hankel = n[:, None] + np.arange(q)  # (piece L_j)_k pairs piece_a with L_b at k = a + b
        pieces = _kernel_pieces(grid.N, ri, (ri - mid[k]) / h[k], -(ri + mid[k]) / h[k],
                                len(n) + q - 2)
        G = sum(np.einsum("pa,pab->pb", np.einsum("pn,pnm->pm", coef, shift), mom[:, hankel])
                for coef, mom in pieces)
        C[rows[:, None], nodes[k]] = h[k, None] * np.einsum("pb,pbj->pj", G, Linv[k])


def _build_conv_matrix(grid: RadialGrid) -> np.ndarray:
    """Matrix C with (C f)_i ~ int K_4(r_i, s) s^{N-1} f(s) ds.

    The table K_4(r_i, r_j) w1_j r_j^(N-1) is built in blocks of about
    _BLOCK_ENTRIES entries, so no temporary outgrows a block; then the
    near-diagonal blocks are overwritten.
    """
    r, step = grid.r, max(1, _BLOCK_ENTRIES // grid.M)
    C = np.empty((grid.M, grid.M))
    for i in range(0, grid.M, step):
        C[i:i + step] = _kernel_table(grid.N, r[i:i + step], r) * (grid.w1 * r ** (grid.N - 1))
    _near_cell_weights(grid, C)
    return C


@dataclass(frozen=True, eq=False)
class AngularKernel:
    """Cached quadrature table of the |x|^-4 convolution on one grid.

    C is the row-form convolution matrix, pointwise accurate everywhere; the
    double energy reads off it as well (`double_energy`).
    """

    C: np.ndarray   # nodal convolution weights

    def convolve_values(self, values: np.ndarray) -> np.ndarray:
        """Nodal convolution of (M,) values, or of each column of an (M, k) block."""
        return self.C @ values


def kernel_for(grid: RadialGrid) -> AngularKernel:
    """Build (or fetch from the grid's cache) the convolution table of a grid.

    A root grid builds its own table, the one M x M array the grid caches for
    the kernel.  A `.scaled(c)` grid derives it from its root's:
    K(cr, cs) = c^-4 K(r, s), hence C scales by c^(N - 4).
    """
    if "kernel" in grid._cache:
        return grid._cache["kernel"]
    if grid.parent is not None:
        C = kernel_for(grid.parent).C * grid.scale_factor ** (grid.N - _ALPHA)
    else:
        C = _build_conv_matrix(grid)
    kern = grid._cache["kernel"] = AngularKernel(C=C)
    return kern


def _tail_in_vector(grid: RadialGrid, p_tail: float, c_tail: float) -> np.ndarray:
    """Contribution of the source tail (s > R) to the convolution at the nodes.

    The kernel table against the tail nodes depends on the grid only, so the
    grid's cache keeps it.
    """
    N = grid.N
    if p_tail + _ALPHA <= N:
        raise DivergenceError("source tail too slow for the Riesz convolution")
    x, wx = _tail_rule(_TAIL_NODES)
    s = grid.R_max / x
    ds = grid.R_max / x**2
    dens = c_tail * s ** (-p_tail) * s ** (N - 1) * ds * wx
    if "tail_kernel" not in grid._cache:
        grid._cache["tail_kernel"] = _kernel_table(N, grid.r, s)
    return grid._cache["tail_kernel"] @ dens


def riesz_convolve(f: RadialFn) -> RadialFn:
    """g = |x|^-4 * f as a RadialFn with far-field tail ||f||_L1 r^-4."""
    kern = kernel_for(f.grid)
    vals = kern.convolve_values(f.values)
    if _has_tail(f):
        vals = vals + _tail_in_vector(f.grid, f.p_tail, f.c_tail)
    mass = integrate(f)
    return RadialFn(f.grid, vals, p_tail=_ALPHA, c_tail=mass)


def _tail_cross(f: RadialFn, g: RadialFn) -> float:
    """Tail contributions to D(f, g) outside the core-core block."""
    grid = f.grid
    out = 0.0
    if _has_tail(g):
        # core f against tail of g
        tv = _tail_in_vector(grid, g.p_tail, g.c_tail)
        out += float(grid.w @ (f.values * tv))
    if _has_tail(f):
        # tail of f against the far-field model of conv(g)
        if f.p_tail + _ALPHA <= grid.N:
            raise DivergenceError("tail of the first factor too slow for the double energy")
        mass_g = integrate(g)
        out += (
            grid.omega * f.c_tail * mass_g
            * grid.R_max ** (grid.N - f.p_tail - _ALPHA) / (f.p_tail + _ALPHA - grid.N)
        )
    return out


def double_energy(f: RadialFn, g: RadialFn) -> float:
    """D(f, g) = int int f(x) g(y) |x-y|^-4.

    The core is the symmetric form 0.5 [(w f).(C g) + (w g).(C f)], read off
    one product of C with the block [f g] (with f alone when g is f), so
    D(f, g) and D(g, f) agree bit for bit.
    """
    if f.grid is not g.grid:
        raise ParameterError("double_energy requires both densities on one grid")
    kern = kernel_for(f.grid)
    w = f.grid.w
    if g is f:
        core = float((w * f.values) @ kern.convolve_values(f.values))
    else:
        Cf, Cg = kern.convolve_values(np.stack([f.values, g.values], axis=1)).T
        core = 0.5 * (float((w * f.values) @ Cg) + float((w * g.values) @ Cf))
    return core + 0.5 * (_tail_cross(f, g) + _tail_cross(g, f))


# ---------------------------------------------------------------------------
# constants table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsTable:
    """Grid-independent constants of the critical problem in dimension N."""

    N: int
    hls: float          # C(N, 4)
    sobolev: float      # best Sobolev constant S
    s_hl: float         # S_HL = C(N,4)^(-1/2) S
    bubble_norm: float  # amplitude making the standard profile solve the limit equation
    sphere: float       # |S^{N-1}|

    @property
    def s_hl_sq(self) -> float:
        return self.s_hl**2

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "hls_constant": self.hls,
            "sobolev_constant": self.sobolev,
            "s_hl": self.s_hl,
            "s_hl_squared": self.s_hl_sq,
            "bubble_normalization": self.bubble_norm,
            "sphere_area": self.sphere,
        }
