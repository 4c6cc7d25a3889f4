"""Radial discretization of R^N (N >= 5).

Functions of |x| are carried on a composite Gauss-Legendre grid over [0, R_max]
with geometrically stretched cells, plus an analytic power-law tail model
f(r) ~ c_tail * r^(-p_tail) for r > R_max.  Volume weights satisfy

    sum_i w_i f(r_i) ~ int_{B_Rmax} f(|x|) dx = |S^{N-1}| int_0^Rmax f r^{N-1} dr.

A translated pair is its two radial components plus one offset distance
(Pair.offset); integrals against radial weights reduce to a 2-D (s, theta)
quadrature with the angular measure sin^{N-2}(theta) d(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, ParameterError

__all__ = [
    "RadialGrid",
    "RadialFn",
    "Pair",
    "sphere_area",
    "make_grid",
    "from_callable",
    "integrate",
    "lp_norm",
    "dirichlet_seminorm",
    "bicenter_integral",
    "bicenter_integrals",
    "bicenter_rows",
    "axis_moment_integrals",
]

NODES_PER_CELL = 5
_THETA_NODES = 64
_TAIL_NODES = 32


def sphere_area(N: int) -> float:
    """Surface measure |S^{N-1}| of the unit sphere in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Composite Gauss-Legendre quadrature nodes for radial integrals on R^N."""

    N: int
    r: np.ndarray          # node radii, strictly increasing, r[0] > 0
    w1: np.ndarray         # 1-D weights: int_0^R g(r) dr ~ sum w1_i g(r_i)
    edges: np.ndarray      # macro-cell edges, edges[0] = 0, edges[-1] = R_max
    node_cell: np.ndarray  # macro-cell index of each node
    R_max: float
    stretch: float
    parent: "RadialGrid | None" = None   # set when built via .scaled()
    scale_factor: float = 1.0
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def M(self) -> int:
        return len(self.r)

    @property
    def omega(self) -> float:
        return sphere_area(self.N)

    @property
    def w(self) -> np.ndarray:
        """Volume weights: sum w_i f(r_i) ~ int_{B_R} f(|x|) dx."""
        key = "volume_weights"
        if key not in self._cache:
            self._cache[key] = self.omega * self.r ** (self.N - 1) * self.w1
        return self._cache[key]

    def scaled(self, c: float) -> "RadialGrid":
        """Grid with all radii multiplied by c > 0 (volume weights scale by c^N)."""
        if c <= 0:
            raise ParameterError("scale factor must be positive")
        root = self.parent if self.parent is not None else self
        return RadialGrid(
            N=self.N,
            r=self.r * c,
            w1=self.w1 * c,
            edges=self.edges * c,
            node_cell=self.node_cell,
            R_max=self.R_max * c,
            stretch=self.stretch,
            parent=root,
            scale_factor=self.scale_factor * c,
        )

    def deriv_matrix(self) -> np.ndarray:
        """Nodal differentiation matrix (degree-4 local polynomial stencils).

        Exact on polynomials up to degree 4, so the derivative is 4th-order
        accurate on smooth profiles.
        """
        key = "deriv_matrix"
        if key not in self._cache:
            self._cache[key] = _stencil_matrix(self.r, 1)
        return self._cache[key]

    def stiffness(self) -> np.ndarray:
        """Symmetric PSD matrix A with u^T A u ~ int |grad u|^2 over the ball.

        A = sum_k w_k d_k d_k^T = D^T diag(w) D, with d_k the five-node window
        of row k of the derivative matrix, so A has half-bandwidth 4.  The
        outer products are scattered in window order and w_k (d_a d_b) is
        symmetric in a, b, so A equals A^T exactly.  Accurate as a quadratic
        form on smooth nodal vectors; nearly singular on sawtooth modes
        (centered stencils), so it must not be inverted.
        """
        key = "stiffness"
        if key not in self._cache:
            cols = _stencil_windows(self.M)
            d = self.deriv_matrix()[np.arange(self.M)[:, None], cols]
            A = np.zeros((self.M, self.M))
            np.add.at(A, (cols[:, :, None], cols[:, None, :]),
                      self.w[:, None, None] * (d[:, :, None] * d[:, None, :]))
            self._cache[key] = A
        return self._cache[key]

    def laplacian_matrix(self) -> np.ndarray:
        """Radial Laplacian collocation matrix: u'' + (N-1) u'/r at the nodes.

        u'' comes from direct second-derivative stencils, not from the square
        of the first-derivative matrix: they keep a large symbol at the grid's
        highest frequency, so this matrix is safely invertible.
        """
        key = "laplacian_matrix"
        if key not in self._cache:
            D2 = _stencil_matrix(self.r, 2)
            self._cache[key] = D2 + (self.N - 1) / self.r[:, None] * self.deriv_matrix()
        return self._cache[key]


def _stencil_matrix(r: np.ndarray, k: int) -> np.ndarray:
    """Nodal k-th derivative matrix from five-node polynomial fits.

    Sliding windows centred on each node, one-sided at both ends; exact on
    polynomials up to degree 4.  All M window systems go to one batched solve.
    """
    M = len(r)
    cols = _stencil_windows(M)
    width = cols.shape[1]
    x = r[cols] - r[:, None]
    h = np.maximum(np.abs(x[:, 0]), np.abs(x[:, -1]))
    # transposed Vandermonde of each window, powers built as np.vander does
    Vt = np.empty((M, width, width))
    Vt[:, 0, :] = 1.0
    Vt[:, 1:, :] = (x / h[:, None])[:, None, :]
    np.multiply.accumulate(Vt[:, 1:, :], axis=1, out=Vt[:, 1:, :])
    rhs = math.factorial(k) * np.eye(width)[k]  # d^k/dx^k at 0 of the monomials
    weights = np.linalg.solve(Vt, np.broadcast_to(rhs[:, None], (M, width, 1)))[..., 0]
    D = np.zeros((M, M))
    D[np.arange(M)[:, None], cols] = weights / h[:, None] ** k
    return D


def _stencil_windows(M: int) -> np.ndarray:
    """(M, 5) node indices of each row's stencil window: centred, one-sided at the ends."""
    width = min(5, M)
    lo = np.clip(np.arange(M) - width // 2, 0, M - width)
    return lo[:, None] + np.arange(width)


def make_grid(N: int, M: int, R_max: float, stretch: float = 1.0) -> RadialGrid:
    """Build the composite radial quadrature grid.

    M nodes are distributed over ceil-ish M/5 geometric cells (width ratio
    `stretch`), five Gauss-Legendre nodes per cell; remainder nodes go to the
    outermost cells.
    """
    if not (isinstance(N, (int, np.integer)) and N >= 5):
        raise ParameterError(f"dimension N must be an integer >= 5, got {N}")
    if not (isinstance(M, (int, np.integer)) and M >= 16):
        raise ParameterError(f"node count M must be an integer >= 16, got {M}")
    if not (math.isfinite(R_max) and R_max > 0):
        raise ParameterError(f"R_max must be positive and finite, got {R_max}")
    if not (math.isfinite(stretch) and stretch >= 1.0):
        raise ParameterError(f"stretch must be finite and >= 1, got {stretch}")

    n_cells = max(1, M // NODES_PER_CELL)
    counts = np.full(n_cells, M // n_cells)
    rem = M - int(counts.sum())
    if rem:
        counts[n_cells - rem :] += 1  # remainder nodes go to the outermost cells

    if stretch == 1.0:
        widths = np.full(n_cells, R_max / n_cells)
    else:
        try:
            growth = math.pow(stretch, n_cells)
        except OverflowError:
            raise ParameterError(
                f"stretch={stretch} overflows over {n_cells} geometric cells") from None
        w0 = R_max * (stretch - 1.0) / (growth - 1.0)
        if w0 < np.finfo(float).eps * R_max:
            raise ParameterError(
                f"stretch={stretch} makes the innermost cell {w0:.3g} wide, "
                f"below round-off of R_max={R_max}")
        widths = w0 * stretch ** np.arange(n_cells)
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    edges[-1] = R_max

    nodes, weights, cell_idx = [], [], []
    for j in range(n_cells):
        q = int(counts[j])
        x, wq = _gauss_legendre(q)
        a, b = edges[j], edges[j + 1]
        nodes.append(0.5 * (b - a) * x + 0.5 * (b + a))
        weights.append(0.5 * (b - a) * wq)
        cell_idx.append(np.full(q, j))
    r = np.concatenate(nodes)
    w1 = np.concatenate(weights)
    node_cell = np.concatenate(cell_idx)
    return RadialGrid(
        N=int(N), r=r, w1=w1, edges=edges, node_cell=node_cell,
        R_max=float(R_max), stretch=float(stretch),
    )


def _has_tail(f) -> bool:
    """Whether the power-law tail model (p_tail, c_tail) of f is active."""
    return f.c_tail != 0.0 and f.p_tail is not None


def _combine_tails(p1, c1, p2, c2, mode):
    """Tail model of a product or sum of two tailed functions."""
    if mode == "mul":
        if c1 == 0.0 or c2 == 0.0:
            return None, 0.0
        return p1 + p2, c1 * c2
    # sum: slower decay dominates
    if c1 == 0.0:
        return p2, c2
    if c2 == 0.0:
        return p1, c1
    if p1 == p2:
        return p1, c1 + c2
    return (p1, c1) if p1 < p2 else (p2, c2)


def _spline_system(dx: np.ndarray, natural_end: bool):
    """Diagonals (sub, diag, sup) of the slope system T s = rhs of `_cubic_spline`.

    sub[i] = T[i+1, i] and sup[i] = T[i, i+1], assembled as scipy's
    CubicSpline does.  Row 0 pins s_0 = 0; the last row is the natural end
    (zero curvature) or pins the end slope.
    """
    diag = np.empty(len(dx) + 1)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    sup = [0.0, *dx[:-1].tolist()]
    sub = [*dx[1:].tolist(), 0.0]
    diag[0] = 1.0
    if natural_end:
        diag[-1], sub[-1] = 2 * dx[-1], dx[-1]
    else:
        diag[-1] = 1.0
    return sub, diag.tolist(), sup


def _thomas(sub, diag, sup, b):
    """Solve a tridiagonal system by Thomas elimination, in place in b.

    b is a list of floats, or an array whose rows are the entries of several
    right-hand sides.  No pivoting: the spline's slope system and its
    transpose factor stably as they are.
    """
    d = list(diag)
    for i in range(len(d) - 1):
        fact = sub[i] / d[i]
        d[i + 1] -= fact * sup[i]
        b[i + 1] -= fact * b[i]
    b[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        b[i] = (b[i] - sup[i] * b[i + 1]) / d[i]
    return b


def _cubic_spline(x: np.ndarray, y: np.ndarray, end_slope: float | None):
    """C2 cubic spline through (x_i, y_i) with slope 0 at x_0.

    At x_-1 the slope is `end_slope`, or the second derivative is 0 when it is
    None.  The slopes s_i solve the tridiagonal system of `_spline_system`
    by Thomas elimination.  Returns the columns (c3, c2, c1, c0) of
    y = c3 z^3 + c2 z^2 + c1 z + c0 on [x_i, x_i+1], z = x - x_i.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    rhs = np.empty(len(x))
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    rhs[0] = 0.0
    rhs[-1] = 3 * (y[-1] - y[-2]) if end_slope is None else end_slope
    s = np.array(_thomas(*_spline_system(dx, end_slope is None), rhs.tolist()))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]


def _spline_interval(knots: np.ndarray, x: np.ndarray):
    """Interval index i and offset z = x - knots[i] of each point (end intervals extend).

    The index is the integer part of x's fractional position, read off
    np.interp; where that rounds up to the next knot, the neighbouring
    cubic agrees there to round-off, because the spline is C2.
    """
    pos = np.interp(x, knots, np.arange(len(knots), dtype=float))
    i = np.minimum(pos.astype(np.intp), len(knots) - 2)
    return i, x - knots.take(i)


def _eval_spline(knots: np.ndarray, coefs, x: np.ndarray) -> np.ndarray:
    """Evaluate a `_cubic_spline` at x."""
    i, z = _spline_interval(knots, x)
    c3, c2, c1, c0 = (c.take(i) for c in coefs)
    return ((c3 * z + c2) * z + c1) * z + c0


def _origin_design(r: np.ndarray) -> np.ndarray:
    """Design matrix of the fit f ~ a + b r^2 through the first three nodes; a is f(0)."""
    return np.vstack([np.ones(3), r[:3] ** 2]).T


@dataclass(frozen=True, eq=False)
class RadialFn:
    """Nodal values of a radial function plus its power-law tail model."""

    grid: RadialGrid
    values: np.ndarray
    p_tail: float | None = None
    c_tail: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.r.shape:
            raise ParameterError("values shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise ParameterError("values must be finite")
        object.__setattr__(self, "values", v)

    # -- evaluation ---------------------------------------------------------
    def _spline(self):
        """Knots and coefficient columns of the C2 cubic spline through (0, f(0)), (r_i, f_i)."""
        if "spline" not in self._cache:
            r = np.concatenate([[0.0], self.grid.r])
            # even extension: fit f(0) from a + b r^2 through the first nodes
            ab, *_ = np.linalg.lstsq(_origin_design(self.grid.r), self.values[:3], rcond=None)
            v = np.concatenate([[ab[0]], self.values])
            end_slope = None
            if _has_tail(self):
                end_slope = -self.p_tail * self.c_tail * self.grid.R_max ** (-self.p_tail - 1)
            self._cache["spline"] = (r, _cubic_spline(r, v, end_slope))
        return self._cache["spline"]

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        inside = r <= self.grid.R_max
        if inside.all():
            out = _eval_spline(*self._spline(), r)
        elif not inside.any():
            out = self._tail_values(r)
        else:
            out = np.empty_like(r)
            out[inside] = _eval_spline(*self._spline(), r[inside])
            out[~inside] = self._tail_values(r[~inside])
        return out if out.ndim else float(out)

    def _tail_values(self, r: np.ndarray) -> np.ndarray:
        """The tail model at radii beyond R_max (zero without one)."""
        if _has_tail(self):
            return self.c_tail * r ** (-self.p_tail)
        return np.zeros_like(r)

    # -- algebra ------------------------------------------------------------
    def _binary(self, other, op, mode):
        if isinstance(other, RadialFn):
            if other.grid is not self.grid:
                raise ParameterError("operands live on different grids")
            p, c = _combine_tails(self.p_tail, self.c_tail, other.p_tail, other.c_tail, mode)
            return RadialFn(self.grid, op(self.values, other.values), p, c)
        return NotImplemented

    def __mul__(self, other):
        if np.isscalar(other):
            return RadialFn(self.grid, self.values * other, self.p_tail, self.c_tail * other)
        return self._binary(other, np.multiply, "mul")

    __rmul__ = __mul__

    def __add__(self, other):
        return self._binary(other, np.add, "sum")

    def __sub__(self, other):
        if isinstance(other, RadialFn):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return RadialFn(self.grid, -self.values, self.p_tail, -self.c_tail)

    def power(self, k: float) -> "RadialFn":
        """|f|^k with the induced tail model (assumes c_tail >= 0)."""
        p = None if self.p_tail is None else self.p_tail * k
        c = abs(self.c_tail) ** k if self.c_tail != 0.0 else 0.0
        return RadialFn(self.grid, np.abs(self.values) ** k, p, c)

    def positive(self) -> "RadialFn":
        return RadialFn(self.grid, np.clip(self.values, 0.0, None),
                        self.p_tail, max(self.c_tail, 0.0))

    def squared(self) -> "RadialFn":
        p = None if self.p_tail is None else 2.0 * self.p_tail
        return RadialFn(self.grid, self.values**2, p, self.c_tail**2)

    def resample(self, grid: RadialGrid) -> "RadialFn":
        return RadialFn(grid, self(grid.r), self.p_tail, self.c_tail)


def from_callable(grid: RadialGrid, fn, p_tail=None, c_tail=0.0) -> RadialFn:
    return RadialFn(grid, np.asarray(fn(grid.r), dtype=float), p_tail, c_tail)


@dataclass(frozen=True, eq=False)
class Pair:
    """Two-component state (u, v) on one grid, translated as one by `offset`."""

    u: RadialFn
    v: RadialFn
    offset: float = 0.0

    def __post_init__(self):
        if self.u.grid is not self.v.grid:
            raise ParameterError("pair components live on different grids")
        if not (np.isfinite(self.offset) and self.offset >= 0):
            raise ParameterError(f"offset distance must be finite and >= 0, got {self.offset}")

    @property
    def grid(self) -> RadialGrid:
        return self.u.grid

    def scale(self, t: float) -> "Pair":
        return Pair(t * self.u, t * self.v, self.offset)


# ---------------------------------------------------------------------------
# quadrature operations
# ---------------------------------------------------------------------------

def _tail_integral(f: RadialFn, power: float = 1.0) -> float:
    """int_{R}^{inf} (c r^-p)^power * |S^{N-1}| r^{N-1} dr, with divergence check."""
    if not _has_tail(f):
        return 0.0
    N, R = f.grid.N, f.grid.R_max
    p_eff = f.p_tail * power
    if p_eff <= N:
        raise DivergenceError(
            f"tail exponent {f.p_tail} (power {power}) does not decay faster than r^-{N}"
        )
    c_eff = abs(f.c_tail) ** power if power != 1.0 else f.c_tail
    return f.grid.omega * c_eff * R ** (N - p_eff) / (p_eff - N)


def integrate(f: RadialFn) -> float:
    """int_{R^N} f(|x|) dx with analytic tail correction."""
    return float(f.grid.w @ f.values) + _tail_integral(f)


def lp_norm(f: RadialFn, p: float) -> float:
    """(int |f|^p)^(1/p) with tail handling as in integrate."""
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    core = float(f.grid.w @ np.abs(f.values) ** p)
    return (core + _tail_integral(f, power=p)) ** (1.0 / p)


def dirichlet_seminorm(f: RadialFn) -> float:
    """int |grad f|^2 for radial f, via 4th-order nodal differentiation."""
    g = f.grid
    df = g.deriv_matrix() @ f.values
    core = float(g.w @ df**2)
    tail = 0.0
    if _has_tail(f):
        p = f.p_tail
        if 2 * p + 2 <= g.N:
            raise DivergenceError("gradient tail is not square integrable")
        tail = g.omega * (f.c_tail * p) ** 2 * g.R_max ** (g.N - 2 * p - 2) / (2 * p + 2 - g.N)
    return core + tail


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """n-node Gauss-Legendre rule on [-1, 1]; memoized, so the arrays are read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


@lru_cache(maxsize=None)
def _tail_rule(n: int):
    """Gauss-Legendre rule on (0, 1) for the tail map s = R / x, s in (R, inf)."""
    x, wx = _gauss_legendre(n)
    return _read_only(0.5 * (x + 1.0), 0.5 * wx)


@lru_cache(maxsize=None)
def _theta_rule(N: int, n: int):
    """Angular rule: int_{S^{N-1}} F(w . e1) dw = sum a_k F(t_k) (read-only, memoized).

    Gauss rule for the weight (1 - t^2)^a, a = (N - 3)/2, by Golub-Welsch: the
    nodes are the eigenvalues of the Gegenbauer Jacobi matrix and the weights
    mu_0 v_0^2 from the first eigenvector components.
    """
    a = (N - 3) / 2.0
    k = np.arange(1, n)
    off = np.sqrt(k * (k + 2.0 * a) / (4.0 * (k + a) ** 2 - 1.0))
    t, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    wt = mu0 * vecs[0] ** 2
    # the rule is even: symmetrize away the eigensolver's round-off
    t = 0.5 * (t - t[::-1])
    wt = 0.5 * (wt + wt[::-1])
    return _read_only(t, wt * sphere_area(N - 1))


def _offset_distance(s: np.ndarray, rho: float, t: np.ndarray) -> np.ndarray:
    """|x| on the lattice |x - y| = s_i, angle cosine t_k to y, |y| = rho."""
    s = s[:, None]
    return np.sqrt(rho**2 + s**2 + 2.0 * rho * s * t[None, :])


def _side(f: RadialFn, grid: RadialGrid, rho: float, with_tail: bool):
    """f's side (values, tail) of int f(|x|) g(|x - y|) dx, |y| = rho, for any g on `grid`.

    For rho > 0, values[i] = sum_k a_k f(|x|) over the angular nodes of the
    sphere |x - y| = r_i (f's angular means over the grid's (s, theta)
    lattice), and with_tail adds the same sums at the tail nodes that a g
    with a tail model needs.  For rho = 0, values are f's nodal values.
    """
    if rho < 0:
        raise ParameterError("offset must be >= 0")
    if rho == 0.0:
        return f(grid.r), None
    t, a = _theta_rule(grid.N, _THETA_NODES)
    tail = None
    if with_tail:
        x, _ = _tail_rule(_TAIL_NODES)
        tail = f(_offset_distance(grid.R_max / x, rho, t)) @ a
    return f(_offset_distance(grid.r, rho, t)) @ a, tail


def _tail_nodes(grid: RadialGrid):
    """Tail nodes s_j = R_max / x_j and radial weights: sum_j q_j h(s_j) ~ int_R^inf h s^{N-1} ds."""
    x, wx = _tail_rule(_TAIL_NODES)
    s_t = grid.R_max / x
    ds = grid.R_max / x**2
    return s_t, wx * ds * s_t ** (grid.N - 1)


def _weigh(side, f: RadialFn, g: RadialFn, rho: float) -> float:
    """Quadrature over g's grid (s = |x - y|) of f's side over that grid against g."""
    values, tail = side
    grid = g.grid
    N = grid.N
    if rho == 0.0:
        return integrate(RadialFn(grid, values, f.p_tail, f.c_tail) * g)
    core = float((grid.w1 * grid.r ** (N - 1) * g.values) @ values)
    if _has_tail(g):
        # s in (R, inf): map s = R / x
        if _has_tail(f) and g.p_tail + f.p_tail <= N:
            raise DivergenceError("combined tails of the translated overlap do not decay")
        s_t, q = _tail_nodes(grid)
        gt = g.c_tail * s_t ** (-g.p_tail)
        core += float(np.sum(q * gt * tail))
    return core


def bicenter_integral(f: RadialFn, g: RadialFn, rho: float) -> float:
    """int f(|x|) g(|x - y|) dx for |y| = rho.

    Symmetric in (f, g) by construction: the mean of the quadratures over
    f's and over g's grid.  rho = 0 on one shared grid is the plain radial
    product quadrature.
    """
    return bicenter_integrals(f, [g], rho)[0]


def bicenter_integrals(f: RadialFn, gs: list, rho: float) -> list:
    """[bicenter_integral(f, g, rho) for g in gs], bit for bit.

    f's side is evaluated once per distinct grid among gs, so functions
    that share a grid (two potentials against one member square) share it.
    """
    sides = {}
    out = []
    for g in gs:
        if rho == 0.0 and g.grid is f.grid:
            out.append(integrate(f * g))
            continue
        if g.grid not in sides:
            with_tail = any(_has_tail(h) for h in gs if h.grid is g.grid)
            sides[g.grid] = _side(f, g.grid, rho, with_tail)
        g_side = _side(g, f.grid, rho, _has_tail(f))
        out.append(0.5 * (_weigh(sides[g.grid], f, g, rho) + _weigh(g_side, g, f, rho)))
    return out


def bicenter_rows(gs: list, grid: RadialGrid) -> np.ndarray:
    """Rows W with W[b] @ f.values = bicenter_integral(f, *gs[b]), gs[b] = (g, rho).

    This holds for every f on `grid` without a tail model, to round-off,
    and every g without one (a tailed g raises ParameterError).  Both
    halves of the symmetric quadrature are linear in f's nodal values: g's
    side over `grid` weighs them directly, and f's side over g's grid is
    f's spline at the points of g's lattice, which the spline's adjoint
    pulls back to the nodes.  Points beyond grid.R_max weigh nothing, since
    f is zero there.
    """
    N = grid.N
    t, a = _theta_rule(N, _THETA_NODES)
    W = np.empty((len(gs), grid.M))
    points, weights, owner = [], [], []
    for b, (g, rho) in enumerate(gs):
        if _has_tail(g):
            raise ParameterError("pairing rows take functions without a tail model")
        own = g.grid
        values, _ = _side(g, grid, rho, False)
        if rho == 0.0:
            W[b] = 0.5 * grid.w * values
            x, wx = own.r, 0.5 * own.w * g.values
        else:
            W[b] = 0.5 * grid.w1 * grid.r ** (N - 1) * values
            x = _offset_distance(own.r, rho, t)
            wx = np.outer(0.5 * own.w1 * own.r ** (N - 1) * g.values, a)
        points.append(x.ravel())
        weights.append(wx.ravel())
        owner.append(np.full(x.size, b))
    W += _spline_pullback(grid, np.concatenate(points), np.concatenate(weights),
                          np.concatenate(owner), len(gs))
    return W


def _spline_pullback(grid: RadialGrid, x: np.ndarray, wx: np.ndarray, owner: np.ndarray,
                     n_rows: int) -> np.ndarray:
    """Rows L with L[b] @ f.values = sum of wx[p] f(x[p]) over the points p with owner b.

    f is any function on `grid` without a tail model, evaluated as
    RadialFn.__call__ does: its natural-end spline through the even
    extension f(0) inside R_max, zero beyond.  The spline is linear in the
    nodal values, so each sum is too; the point weights are binned per
    interval and power of z, then pulled back through the coefficient
    formulas, the slope system's transpose and the f(0) fit.
    """
    knots = np.concatenate([[0.0], grid.r])
    dx = np.diff(knots)
    n_int = len(dx)
    inside = x <= grid.R_max
    i, z = _spline_interval(knots, x[inside])
    bins = owner[inside] * n_int + i
    # B[m][b, j] = sum of wx z^m over row b's points in interval j
    B, wz = [], wx[inside]
    for _ in range(4):
        B.append(np.bincount(bins, wz, n_rows * n_int).reshape(n_rows, n_int))
        wz = wz * z
    # on interval j, with m_j the secant slope (y_j+1 - y_j) / dx_j:
    #   c3 = (s_j + s_j+1 - 2 m_j) / dx_j^2, c2 = (3 m_j - 2 s_j - s_j+1) / dx_j,
    #   c1 = s_j, c0 = y_j; gather the gradients in s, m and y
    P3, P2 = B[3] / dx**2, B[2] / dx
    g_s = np.zeros((n_int + 1, n_rows))
    g_s[:-1] = (B[1] - 2 * P2 + P3).T
    g_s[1:] += (P3 - P2).T
    g_m = 3 * P2 - 2 * P3
    g_y = np.zeros((n_rows, n_int + 1))
    g_y[:, :-1] = B[0]
    # s = T^-1 rhs(y): solve with T's transpose, whose sub and sup swap
    sub, diag, sup = _spline_system(dx, natural_end=True)
    lam = _thomas(sup, diag, sub, g_s).T
    # rhs_0 = 0, rhs_i = 3 (dx_i m_i-1 + dx_i-1 m_i), rhs_-1 = 3 (y_-1 - y_-2)
    g_m[:, :-1] += 3 * dx[1:] * lam[:, 1:-1]
    g_m[:, 1:] += 3 * dx[:-1] * lam[:, 1:-1]
    g_y[:, -1] += 3 * lam[:, -1]
    g_y[:, -2] -= 3 * lam[:, -1]
    g_y[:, 1:] += g_m / dx
    g_y[:, :-1] -= g_m / dx
    # y_0 = f(0), the least-squares fit through the first three nodes
    fit, *_ = np.linalg.lstsq(_origin_design(grid.r), np.eye(3), rcond=None)
    L = g_y[:, 1:]
    L[:, :3] += np.outer(g_y[:, 0], fit[0])
    return L


def axis_moment_integrals(dens: RadialFn, rho: float):
    """Weighted integrals of a density translated by rho, in one lattice pass.

    Returns (mass, axial_first_moment, spread):
      mass   = int dens dx
      axial  = int (x . yhat)/(1 + |x|) dens dx      (0 exactly when rho = 0)
      spread = int |x/(1+|x|) - xi * yhat| dens dx,  xi = axial / mass,
    so spread / mass is the concentration about the barycenter's axial
    component xi.  The tail model's mass counts in mass and in xi.
    """
    if not (np.isfinite(rho) and rho >= 0):
        raise ParameterError(f"offset distance must be finite and >= 0, got {rho}")
    grid = dens.grid
    N = grid.N
    if _has_tail(dens) and dens.p_tail <= N:
        raise DivergenceError("density is not integrable under its tail model")

    if rho == 0.0:
        # xi = 0, and the tail weight tends to 1 at large radii
        r = grid.r
        spread = float(grid.w @ (dens.values * (r / (1.0 + r)))) + _tail_integral(dens)
        return integrate(dens), 0.0, spread

    t, a = _theta_rule(N, _THETA_NODES)
    absx = _offset_distance(grid.r, rho, t)
    one_absx = 1.0 + absx
    axial_comp = rho + grid.r[:, None] * t[None, :]
    radial_weight = grid.w1 * grid.r ** (N - 1) * dens.values

    mass = float(a.sum() * radial_weight.sum())
    axial = float(radial_weight @ ((axial_comp / one_absx) @ a))
    tail_mass = _tail_integral(dens)
    mass += tail_mass
    xi = axial / mass if mass != 0.0 else 0.0   # a zero density has zero moments
    spread_kernel = np.sqrt(
        (absx / one_absx) ** 2
        - 2.0 * xi * axial_comp / one_absx
        + xi**2
    )
    # at |x| -> inf the axial weight averages to 0 and the spread weight to
    # the unit-vector distance ~ sqrt(1 + xi^2); first-order tail model
    spread = float(radial_weight @ (spread_kernel @ a)) + tail_mass * math.hypot(1.0, xi)
    return mass, axial, spread
