"""Nonlocal engine: angular-averaged Riesz kernels and the double energy.

The system convolves with |x|^-4 in every dimension N >= 5 (the
Hardy-Littlewood-Sobolev critical case, where u^2 is exactly the critical
power), so every grid table here has that exponent.  For a radial density f
the convolution (|x|^-4 * f)(x) reduces to

    g(r) = int_0^inf K_4(r, s) s^(N-1) f(s) ds,
    K_alpha(r, s) = int_{S^{N-1}} |r e1 - s w|^(-alpha) dw.

For N = 5 the angular integral is elementary:

    K_4(r, s) = pi^2 [ (r^2 + s^2) ln((r+s)/|r-s|) - 2 r s ] / (r^3 s^3),

which carries a logarithmic singularity on the diagonal (alpha = N - 1 is
exactly the borderline where the angular average stops being finite at
r = s).  The s-integral is still absolutely convergent; the quadrature
matrix therefore treats the cells nearest the diagonal with exact
log-weighted moments of the local polynomial interpolant instead of plain
nodal weights.  `angular_kernel` and `hls_constant` keep a general alpha as
pointwise oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    make_grid,
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
    "double_energy_info",
    "ConstantsTable",
]

_ALPHA = 4.0  # the Riesz exponent of every grid table
_NEAR_CELL_REACH = 1  # cells on each side of the diagonal handled by exact moments


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


def sobolev_constant(N: int, grid: RadialGrid | None = None) -> float:
    """Best constant in the embedding D^{1,2} -> L^{2*}.

    Closed form  N(N-2) pi (Gamma(N/2)/Gamma(N))^{2/N},  cross-checked against
    the Rayleigh quotient of the discretized extremal profile
    (1 + r^2)^(-(N-2)/2); disagreement beyond 0.1% raises NumericalError.
    """
    if not (isinstance(N, (int, np.integer)) and N >= 3):
        raise ParameterError(f"N must be an integer >= 3, got {N}")
    closed = N * (N - 2) * math.pi * math.exp(
        (2.0 / N) * (math.lgamma(N / 2.0) - math.lgamma(N))
    )
    if grid is None:
        grid = make_grid(max(N, 5), 240, 40.0, 1.02) if N >= 5 else None
    if grid is not None:
        p = (N - 2) / 2.0
        prof = from_callable(grid, lambda r: (1.0 + r**2) ** (-p), p_tail=N - 2, c_tail=1.0)
        two_star = 2.0 * N / (N - 2.0)
        rayleigh = dirichlet_seminorm(prof) / lp_norm(prof, two_star) ** 2
        if abs(rayleigh - closed) > 1e-3 * closed:
            raise NumericalError(
                f"Sobolev constant cross-check failed: closed={closed}, rayleigh={rayleigh}"
            )
    return closed


# ---------------------------------------------------------------------------
# pointwise angular kernel
# ---------------------------------------------------------------------------

def _kernel_closed_n5a4(r, s):
    """Exact angular average for N = 5, alpha = 4 (vectorized; inf at r = s)."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = (r**2 + s**2) * np.log((r + s) / np.abs(r - s)) - 2.0 * r * s
        out = math.pi**2 * num / (r**3 * s**3)
    return out


def angular_kernel(alpha: float, r: float, s: float, N: int) -> float:
    """K_alpha(r, s) = int_{S^{N-1}} |r e1 - s w|^(-alpha) dw.

    Finite for r != s; on the diagonal finite only for alpha < N - 1
    (returns inf at the alpha = N - 1 borderline, where the singularity
    is logarithmic and only cell-integrated quantities are finite).
    """
    if r < 0 or s < 0 or (r == 0 and s == 0):
        raise ParameterError("radii must be nonnegative and not both zero")
    if alpha >= N:
        raise ParameterError(f"alpha must be < N for an integrable kernel, got {alpha}")
    if s == 0.0:
        return sphere_area(N) * r ** (-alpha)
    if r == 0.0:
        return sphere_area(N) * s ** (-alpha)
    if r == s and alpha >= N - 1:
        return math.inf
    if N == 5 and alpha == 4:
        return float(_kernel_closed_n5a4(r, s))
    # generic path: t = cos(theta), then t = 1 - u^2 to absorb the near-
    # diagonal singularity; weight (1 - t^2)^((N-3)/2).  No run path calls
    # this oracle, so scipy is imported only here.
    from scipy.integrate import quad

    a, b = r * r + s * s, 2.0 * r * s
    pw = (N - 3) / 2.0
    area = sphere_area(N - 1)

    def integrand(u):
        t = 1.0 - u * u
        return 2.0 * u * (1.0 - t * t) ** pw * (a - b * t) ** (-alpha / 2.0)

    # quad's default epsabs (1.49e-8) is looser than the acceptance test below
    val, err = quad(integrand, 0.0, math.sqrt(2.0), limit=200, epsabs=0.0, epsrel=1e-11)
    if not np.isfinite(val) or err > 1e-8 * max(abs(val), 1.0):
        raise NumericalError(f"angular kernel quadrature failed at (r={r}, s={s})")
    return area * val


# ---------------------------------------------------------------------------
# quadrature matrices
# ---------------------------------------------------------------------------

def _log_moments(k_max: int, lo: float, hi: float, c) -> np.ndarray:
    """I_k(c) = int_lo^hi sigma^k ln|sigma - c| d(sigma), k = 0..k_max, per centre c.

    Returns an array of shape c.shape + (k_max + 1,).  Exact for |c| <= 3 via
    shifted monomial antiderivatives; series in 1/c otherwise (the integrand
    is then analytic on [lo, hi]).  Each centre's row depends on that centre
    alone, bit for bit, whatever else the call holds.
    """
    c = np.asarray(c, dtype=float)
    flat = c.reshape(-1)
    ks = np.arange(k_max + 1)
    out = np.empty((flat.size, k_max + 1))
    exact = np.abs(flat) <= 3.0
    if exact.any():
        ce = flat[exact]

        def F(x):  # int_0^x y^m ln|y| dy, m = 0..k_max
            logx = np.log(np.abs(np.where(x == 0.0, 1.0, x)))[:, None]
            return x[:, None] ** (ks + 1) * (logx - 1.0 / (ks + 1)) / (ks + 1)

        base = F(hi - ce) - F(lo - ce)
        # sigma^k = sum_m C(k, m) c^(k-m) (sigma - c)^m
        expo = np.clip(ks[:, None] - ks[None, :], 0, None)
        shift = _binomials(k_max + 1) * ce[:, None, None] ** expo
        out[exact] = np.einsum("ckm,cm->ck", shift, base)
    if not exact.all():
        # ln|sigma - c| = ln|c| - sum_m (sigma/c)^m / m, |sigma/c| < 1 on [lo, hi];
        # a centre's sum stops at its first term with |1/(m c^m)| < 1e-18, and
        # the loop ends with the last centre's stop (about 35 terms at |c| = 3)
        cs = flat[~exact]
        inv = 1.0 / cs
        power = np.ones_like(cs)       # 1/c^m by cumulative product
        live = np.ones(cs.size, dtype=bool)
        tail = np.zeros((cs.size, k_max + 1))
        m = 0
        while live.any():
            m += 1
            power *= inv
            coef = power / m
            live &= np.abs(coef) >= 1e-18
            tail += np.where(live, coef, 0.0)[:, None] * _plain_moments(k_max + m, lo, hi)[m:]
        out[~exact] = np.log(np.abs(cs))[:, None] * _plain_moments(k_max, lo, hi) - tail
    return out.reshape(c.shape + (k_max + 1,))


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """C(k, m) for 0 <= k, m < n as floats (0 for m > k); read-only, memoized."""
    out = np.array([[math.comb(k, m) for m in range(n)] for k in range(n)], dtype=float)
    out.flags.writeable = False
    return out


def _plain_moments(k_max: int, lo: float, hi: float) -> np.ndarray:
    ks = np.arange(k_max + 1)
    return (hi ** (ks + 1) - lo ** (ks + 1)) / (ks + 1)


def _near_cell_weights(grid: RadialGrid, C: np.ndarray) -> None:
    """Overwrite C's near-diagonal blocks with exact weights (N = 5, alpha = 4).

    Each (row i, cell) pair within _NEAR_CELL_REACH cells of the diagonal
    gets the weights of int_cell K(r_i, s) s^{N-1} f(s) ds, with f replaced
    by its Lagrange interpolant on the cell's own nodes; the kernel factor
    splits into low-degree polynomials times ln(s + r_i), ln|s - r_i| and 1,
    all of whose moments are exact.  Every pair of one cell node count is
    handled in one batched pass.
    """
    counts = np.bincount(grid.node_cell)
    first = np.cumsum(counts) - counts
    mids = 0.5 * (grid.edges[1:] + grid.edges[:-1])
    hs = 0.5 * (grid.edges[1:] - grid.edges[:-1])
    n = np.arange(4)
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

        # P(r,s) s^4 = pi^2 (r^2 s + s^3) / r^3  and  Q(r,s) s^4 = -2 pi^2 s^2 / r^2
        # expanded in sigma with s = mid + h sigma: s^n = sum_m shift[n, m] sigma^m.
        # The innermost rows' weights on the next cell cancel by about (s/r)^4,
        # so P's last bit shows in C: keep its rounding as written.
        shift = (_binomials(4) * mid[:, None, None] ** np.clip(n[:, None] - n, 0, None)
                 * h[:, None, None] ** n)[k]
        P = ((math.pi**2 * ri**2 / ri**3)[:, None] * shift[:, 1]
             + (math.pi**2 / ri**3)[:, None] * shift[:, 3])
        Q = (-2.0 * math.pi**2 / ri**2)[:, None] * shift[:, 2, :3]

        # ln(s + r_i) = ln h + ln|sigma - sigma_+| with sigma_+ = -(r_i + mid)/h;
        # the ln h terms cancel against ln|s - r_i| = ln h + ln|sigma - sigma_i|
        centres = np.stack([-(ri + mid[k]) / h[k], (ri - mid[k]) / h[k]])
        mom_plus, mom_minus = _log_moments(q + 2, -1.0, 1.0, centres)
        hankel = n[:, None] + np.arange(q)  # (P L_j)_k pairs P_a with L_b at k = a + b
        G = (np.einsum("pa,pab->pb", P, (mom_plus - mom_minus)[:, hankel])
             + Q @ _plain_moments(q + 1, -1.0, 1.0)[hankel[:3]])
        C[rows[:, None], nodes[k]] = h[k, None] * np.einsum("pb,pbj->pj", G, Linv[k])


def _build_conv_matrix(grid: RadialGrid) -> np.ndarray:
    """Matrix C with (C f)_i ~ int K_4(r_i, s) s^{N-1} f(s) ds."""
    r = grid.r
    C = _kernel_table(grid.N, r, r) * (grid.w1 * r ** (grid.N - 1))[None, :]
    if grid.N == 5:
        # the log-singular diagonal (inf in the table) and its neighbours
        _near_cell_weights(grid, C)
    return C


def _kernel_table(N: int, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """K_4 on an r x s product: closed form at N = 5, else a fixed high-order rule.

    For N >= 6 the diagonal is integrable; the rule in u = sqrt(1 - t) is
    accumulated node by node so peak memory stays at one (len(r), len(s))
    block.
    """
    if N == 5:
        return _kernel_closed_n5a4(r[:, None], s[None, :])
    u, wu = _gauss_legendre(96)
    u = 0.5 * math.sqrt(2.0) * (u + 1.0)
    wu = 0.5 * math.sqrt(2.0) * wu
    t = 1.0 - u * u
    pw = (N - 3) / 2.0
    ang_w = 2.0 * u * (1.0 - t * t) ** pw * wu * sphere_area(N - 1)
    a = r[:, None] ** 2 + s[None, :] ** 2
    b = 2.0 * r[:, None] * s[None, :]
    K = np.zeros_like(a)
    for tk, wk in zip(t, ang_w):
        K += wk * (a - b * tk) ** (-_ALPHA / 2.0)
    return K


@dataclass(frozen=True, eq=False)
class AngularKernel:
    """Cached quadrature table of the |x|^-4 convolution on one grid.

    C is the row-form convolution matrix, pointwise accurate everywhere; the
    double energy reads off it as well (`double_energy_info`).
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


def double_energy_info(f: RadialFn, g: RadialFn):
    """D(f, g) = int int f(x) g(y) |x-y|^-4, plus tail fraction.

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
    tails = 0.5 * (_tail_cross(f, g) + _tail_cross(g, f))
    total = core + tails
    frac = abs(tails) / abs(total) if total != 0.0 else 0.0
    return total, frac


def double_energy(f: RadialFn, g: RadialFn) -> float:
    return double_energy_info(f, g)[0]


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
