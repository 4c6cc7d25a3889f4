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
    "apply_stencil",
    "bicenter_integral",
    "bicenter_integrals",
    "bicenter_rows",
    "axis_moment_integrals",
]

NODES_PER_CELL = 5
_THETA_NODES = 64
_BUCKETS_PER_NODE = 8   # narrower than the smallest node gap past 0 on the run and profile grids
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
        if not (math.isfinite(c) and c > 0):
            raise ParameterError(f"scale factor must be finite and positive, got {c}")
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
        """Nodal first derivative as (M, 5) weights on the stencil windows.

        Degree-4 local polynomial fits, exact on polynomials up to degree 4,
        so the derivative is 4th-order accurate on smooth profiles.  Apply
        with `apply_stencil`.
        """
        key = "deriv_matrix"
        if key not in self._cache:
            self._cache[key] = _stencil_weights(self.r, 1)
        return self._cache[key]

    def laplacian_matrix(self) -> np.ndarray:
        """Radial Laplacian u'' + (N-1) u'/r at the nodes, as (M, 5) window weights.

        u'' comes from direct second-derivative stencils, not from the square
        of the first-derivative operator: they keep a large symbol at the
        grid's highest frequency, so the operator is safely invertible.
        Apply with `apply_stencil`.
        """
        key = "laplacian_matrix"
        if key not in self._cache:
            D2 = _stencil_weights(self.r, 2)
            self._cache[key] = D2 + (self.N - 1) / self.r[:, None] * self.deriv_matrix()
        return self._cache[key]


def _stencil_weights(r: np.ndarray, k: int) -> np.ndarray:
    """(M, 5) k-th derivative weights from five-node polynomial fits on `_stencil_windows`.

    Windows are centred on each node, one-sided at both ends; exact on
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
    return weights / h[:, None] ** k


@lru_cache(maxsize=None)
def _stencil_windows(M: int) -> np.ndarray:
    """(M, 5) node indices of each row's stencil window: centred, one-sided at the ends.

    Memoized, so the array is read-only.
    """
    width = min(5, M)
    lo = np.clip(np.arange(M) - width // 2, 0, M - width)
    cols = lo[:, None] + np.arange(width)
    cols.flags.writeable = False
    return cols


def apply_stencil(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply (M, 5) window weights to an (M,) vector, or to each column of an (M, k) block.

    Row i is sum_j weights[i, j] x[window_i[j]].  einsum without `optimize`
    makes no BLAS call, so the result does not depend on the thread count.
    """
    cols = _stencil_windows(len(weights))
    return np.einsum("ij,ij...->i...", weights, x.take(cols, axis=0))


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


def _thomas_factors(sub, diag, sup):
    """Multipliers, pivots and superdiagonal of Thomas elimination of a tridiagonal matrix.

    No pivoting: the spline's slope system and its transpose factor stably
    as they are.
    """
    d = list(diag)
    fact = []
    for i in range(len(d) - 1):
        fact.append(sub[i] / d[i])
        d[i + 1] -= fact[i] * sup[i]
    return fact, d, sup


def _thomas(factors, b):
    """Solve the factored tridiagonal system of `_thomas_factors`, in place in b.

    b is a list of floats, or an array whose rows are the entries of several
    right-hand sides.
    """
    fact, d, sup = factors
    for i, f in enumerate(fact):
        b[i + 1] -= f * b[i]
    b[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        b[i] = (b[i] - sup[i] * b[i + 1]) / d[i]
    return b


def _spline_knots(grid: RadialGrid) -> np.ndarray:
    """Knots 0, r_1, ..., r_M of the splines on `grid` (memoized on the grid)."""
    if "spline_knots" not in grid._cache:
        grid._cache["spline_knots"] = np.concatenate([[0.0], grid.r])
    return grid._cache["spline_knots"]


def _cubic_splines(grid: RadialGrid, ys: list, end_slopes: list) -> list:
    """C2 cubic splines through (x_i, y_i) for each y in ys, x = `_spline_knots(grid)`.

    Each has slope 0 at x_0.  At x_-1 the slope is its `end_slope`, or the
    second derivative is 0 when that is None.  The slopes s_i solve the
    tridiagonal system of `_spline_system`; splines with one end condition
    share its factors.  Returns for each y the (intervals, 4) rows
    (c3, c2, c1, c0) of y = c3 z^3 + c2 z^2 + c1 z + c0 on [x_i, x_i+1],
    z = x - x_i.
    """
    dx = np.diff(_spline_knots(grid))
    factors, out = {}, []
    for y, end_slope in zip(ys, end_slopes):
        natural = end_slope is None
        if natural not in factors:
            factors[natural] = _thomas_factors(*_spline_system(dx, natural))
        slope = np.diff(y) / dx
        rhs = np.empty(len(y))
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        rhs[0] = 0.0
        rhs[-1] = 3 * (y[-1] - y[-2]) if natural else end_slope
        s = np.array(_thomas(factors[natural], rhs.tolist()))
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        out.append(np.column_stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]]))
    return out


def _cell_lookup(grid: RadialGrid):
    """Bucket table of the spline intervals on `grid` (memoized on the grid).

    The buckets split [0, R_max] into _BUCKETS_PER_NODE * M equal cells; a
    point x falls in bucket int(x * inv).  first[b] is the last interval
    that starts in a lower bucket (0 for bucket 0), so it starts at or below every x in
    bucket b, and the interval of x lies at most `steps` bisection halvings
    above it.  The interval starts are padded with +inf, so that a halving
    never lands past the last interval.  The bucket map is monotone in x,
    so the table needs no slack for round-off; its size is a fixed multiple
    of M on every grid, while `steps` grows where the cells crowd near 0.
    """
    if "cell_lookup" not in grid._cache:
        starts = _spline_knots(grid)[:-1]
        n_buckets = _BUCKETS_PER_NODE * grid.M
        inv = n_buckets / grid.R_max
        below = np.searchsorted((starts * inv).astype(np.intp), np.arange(n_buckets + 2))
        first = np.maximum(below[:-1] - 1, 0)
        steps = int((below[1:] - 1 - first).max()).bit_length()
        padded = np.concatenate([starts, np.full(2**steps, np.inf)])
        grid._cache["cell_lookup"] = padded, first.astype(np.int32), inv, steps
    return grid._cache["cell_lookup"]


def _spline_interval(grid: RadialGrid, x: np.ndarray):
    """Interval index i and offset z = x - knots[i] of each point 0 <= x <= R_max.

    i is searchsorted(knots, x, "right") - 1 clamped to the last interval,
    read off `_cell_lookup`'s bucket table and a bisection within the bucket
    (one compare on the default grids).
    """
    starts, first, inv, steps = _cell_lookup(grid)
    i = first.take((x * inv).astype(np.intp))
    for step in (1 << k for k in reversed(range(steps))):
        above = starts.take(i + step) <= x
        i += step * above if step > 1 else above
    return i, x - starts.take(i)


def _horner(coefs: np.ndarray, i: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A `_cubic_splines` spline at the points of `_spline_interval`'s (i, z), from one gather."""
    c = coefs.take(i, axis=0)
    out = c[..., 0] * z
    out += c[..., 1]
    out *= z
    out += c[..., 2]
    out *= z
    out += c[..., 3]
    return out


def _splines(fs: list) -> list:
    """(intervals, 4) `_cubic_splines` coefficients of each f in fs (one grid), memoized on f.

    Each spline runs through the even extension (0, f(0)), (r_i, f_i), f(0)
    fitted from a + b r^2 through the first three nodes, and ends clamped to
    a tail model's slope at R_max, or natural without one.  The ones not yet
    memoized are built together.
    """
    todo = [f for f in fs if "spline" not in f._cache]
    if todo:
        grid = fs[0].grid
        ys, end_slopes = [], []
        for f in todo:
            ab, *_ = np.linalg.lstsq(_origin_design(grid.r), f.values[:3], rcond=None)
            ys.append(np.concatenate([[ab[0]], f.values]))
            end_slopes.append(-f.p_tail * f.c_tail * grid.R_max ** (-f.p_tail - 1)
                              if _has_tail(f) else None)
        for f, coefs in zip(todo, _cubic_splines(grid, ys, end_slopes)):
            f._cache["spline"] = coefs
    return [f._cache["spline"] for f in fs]


def _evaluate(fs: list, r: np.ndarray) -> list:
    """[f(r) for f in fs], all on one grid, from one inside/tail split and one cell lookup."""
    inside = r <= fs[0].grid.R_max
    if not inside.any():
        return [f._tail_values(r) for f in fs]
    whole = inside.all()
    i, z = _spline_interval(fs[0].grid, r if whole else r[inside])
    if whole:
        return [_horner(coefs, i, z) for coefs in _splines(fs)]
    outs = [np.empty_like(r) for _ in fs]
    for out, f, coefs in zip(outs, fs, _splines(fs)):
        out[inside] = _horner(coefs, i, z)
        out[~inside] = f._tail_values(r[~inside])
    return outs


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
    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if not np.all(r >= 0):
            raise ParameterError("radius must be >= 0 and not nan")
        out = _evaluate([self], r)[0]
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


def _dirichlet_sums(grid: RadialGrid, X: np.ndarray) -> np.ndarray:
    """sum_i w_i (D x)_i^2, the ball part of int |grad x|^2, for each column x of X (M, k)."""
    return (grid.w[:, None] * apply_stencil(grid.deriv_matrix(), X) ** 2).sum(axis=0)


def dirichlet_seminorm(f: RadialFn) -> float:
    """int |grad f|^2 for radial f, via 4th-order nodal differentiation."""
    g = f.grid
    core = float(_dirichlet_sums(g, f.values[:, None])[0])
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

    Gauss rule for the weight (1 - t^2)^a, a = (N - 3)/2: the nodes are the
    eigenvalues of the Gegenbauer Jacobi matrix, and the weights the
    Christoffel numbers mu_0 / sum_j p_j(t)^2 of the orthonormal recurrence
    b_j+1 p_j+1 = t p_j - b_j p_j-1, p_0 = 1.
    """
    a = (N - 3) / 2.0
    k = np.arange(1, n)
    off = np.sqrt(k * (k + 2.0 * a) / (4.0 * (k + a) ** 2 - 1.0))
    t = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # the rule is even: symmetrize away the eigensolver's round-off; the
    # recurrence is odd or even in t, so the weights come out symmetric
    t = 0.5 * (t - t[::-1])
    p_prev, p, norm = np.zeros(n), np.ones(n), np.ones(n)
    for b_prev, b in zip([0.0, *off[:-1]], off):
        p_prev, p = p, (t * p - b_prev * p_prev) / b
        norm += p**2
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    wt = mu0 / norm
    return _read_only(t, wt * sphere_area(N - 1))


def _offset_distance(s: np.ndarray, rho: float, t: np.ndarray) -> np.ndarray:
    """|x| on the lattice |x - y| = s_i, angle cosine t_k to y, |y| = rho."""
    out = (2.0 * rho * s)[:, None] * t
    out += (rho**2 + s**2)[:, None]
    return np.sqrt(out, out=out)


def _lattice_sums(fs: list, s: np.ndarray, rho: float, N: int) -> np.ndarray:
    """Rows sum_k a_k f(|x|) over the spheres |x - y| = s_i, |y| = rho, for each f (one grid).

    Row i has |x| >= |s_i - rho|; past R_max a tail-free f is 0 on the whole
    sphere, so the row is exactly 0.0 and is not evaluated.  einsum without
    `optimize` sums each row alone with no BLAS call, so a row depends
    neither on which other rows were evaluated nor on the thread count.
    """
    t, a = _theta_rule(N, _THETA_NODES)
    out = np.zeros((len(fs), len(s)))
    keep = slice(None) if any(map(_has_tail, fs)) else np.abs(s - rho) <= fs[0].grid.R_max
    for row, v in zip(out, _evaluate(fs, _offset_distance(s[keep], rho, t))):
        row[keep] = np.einsum("ik,k->i", v, a)
    return out


def _sides(fs: list, grid: RadialGrid, rho: float, with_tail: bool) -> list:
    """Each f's side (values, tail) of int f(|x|) g(|x - y|) dx, |y| = rho, for any g on `grid`.

    fs share one grid, so they share one lattice and one cell search.  For
    rho > 0, values[i] = sum_k a_k f(|x|) over the angular nodes of the
    sphere |x - y| = r_i (f's angular means over the grid's (s, theta)
    lattice), and with_tail adds the same sums at the tail nodes that a g
    with a tail model needs.  For rho = 0, values are f's nodal values.
    """
    if not (math.isfinite(rho) and rho >= 0):
        raise ParameterError(f"offset distance must be finite and >= 0, got {rho}")
    if rho == 0.0:
        return [(v, None) for v in _evaluate(fs, grid.r)]
    values = _lattice_sums(fs, grid.r, rho, grid.N)
    tails = _lattice_sums(fs, _tail_nodes(grid)[0], rho, grid.N) if with_tail else [None] * len(fs)
    return list(zip(values, tails))


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

    Functions that share a grid (two potentials against one member square)
    share f's side over it and one lattice for their sides over f's grid.
    """
    out = [None] * len(gs)
    for grid in dict.fromkeys(g.grid for g in gs):
        idx, group = zip(*[(j, g) for j, g in enumerate(gs) if g.grid is grid])
        if rho == 0.0 and grid is f.grid:
            for j, g in zip(idx, group):
                out[j] = integrate(f * g)
            continue
        (f_side,) = _sides([f], grid, rho, any(map(_has_tail, group)))
        for j, g, g_side in zip(idx, group, _sides(group, f.grid, rho, _has_tail(f))):
            out[j] = 0.5 * (_weigh(f_side, f, g, rho) + _weigh(g_side, g, f, rho))
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
        ((values, _),) = _sides([g], grid, rho, False)
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
    dx = np.diff(_spline_knots(grid))
    n_int = len(dx)
    inside = x <= grid.R_max
    i, z = _spline_interval(grid, x[inside])
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
    lam = _thomas(_thomas_factors(sup, diag, sub), g_s).T
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
