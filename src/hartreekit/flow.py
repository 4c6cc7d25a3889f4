"""Projected ground-state flow of the coupled limit system.

The limit system has no potentials; restricted to its Nehari set the
functional equals a quarter of the Dirichlet norm, so the coupled ground
state is the constrained minimizer and projected descent is the natural
solver.  Each step is a damped Picard step that solves with the collocation
Laplacian (outermost node pinned to zero), clamps negative values, rescales
back onto the Nehari set, and backtracks on the energy.  The dilation zero
mode is re-gauged to unit scale after each residual check that does not
stop the flow, so the iterate cannot drift below grid resolution and no
check reads a freshly rescaled iterate.  From the second check on, the flow
also waits for the bulk amplitude ratio v/u to settle: near beta -> max mu
a soft mode lets the weak residual pass while the ratio still moves.  A
common dilation leaves the ratio unchanged, so it compares across a
re-gauge.

The iterate is one (M, 2) array X = [u v], so each table is applied once
to both components.  A step applies two: the pinned Laplacian's block-LU
factors and the dense M x M convolution table.  One block LU serves at two
block sizes: on blocks of m = SOLVE_BLOCK rows it factors the band matrix
into about M m numbers, and on 4-row blocks it inverts each Schur
complement.  At M = 400 the two tables take 1.6 MB and fit in a 2 MB L2
cache together, where the convolution table and a dense inverse (1.28 MB
each) did not.  The per-column Dirichlet sums w (D X)^2 come from the
derivative's five-node windows.  grids.apply_stencil gathers each column's
windows as one contiguous row, so a stenciled column does not depend on how
many columns travel with it, and each sum is bit for bit
grids.dirichlet_seminorm of that column alone.  The pinned solve does not
have this property: numpy's matmul takes a matrix-vector path for one
column, so a solved column moves at round-off with the column count.
The projection is the only place the flow convolves: it forms
Y = (X_+)^2 once, reads the nonlocal sum off the 2 x 2 matrix Y^T (w Z)
with Z = C Y (against the symmetric coupling the same sum as the double
energies, which take its symmetric part), and hands the rescaled Z on, so
the next Picard step and the Nehari defect reuse it.  The coupling mixes
the columns of Z through the 2 x 2 matrix [[mu1, beta], [beta, mu2]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bubbles import CouplingConstants, bubble_constant, golden_section_min
from .energy import Problem, _coupling_matrix, weak_residual
from .errors import ParameterError
from .grids import Pair, RadialFn, RadialGrid, _dirichlet_sums, _evaluate, _stencil_windows
from .reporting import Table
from .riesz import kernel_for

__all__ = [
    "FlowConfig",
    "FlowDiagnostics",
    "solve_limit_ground_state",
]


# the flow's fixed settings
STEP_SIZE = 1.0                  # largest Picard step; the line search halves it
MAX_ITERATIONS = 5000            # iteration budget
CHECK_EVERY = 25                 # iterations between weak-residual checks, each
                                 # followed by a dilation re-gauge unless it stops the flow
START_AMPLITUDES = (1.0, 0.8)    # Gaussian start amplitudes of u and v
RESIDUAL_TOLERANCE = 1e-3        # stopping tolerance, also the solve-ground gate


@dataclass(frozen=True)
class FlowConfig:
    """What a caller may vary per solve: the Gaussian start widths, and a
    residual tolerance no looser than RESIDUAL_TOLERANCE."""

    residual_tolerance: float = RESIDUAL_TOLERANCE
    start_widths: tuple = (1.0, 1.2)

    def __post_init__(self):
        if not 0 < self.residual_tolerance <= RESIDUAL_TOLERANCE:
            raise ParameterError(f"residual tolerance must lie in (0, {RESIDUAL_TOLERANCE}], "
                                 f"got {self.residual_tolerance}")
        widths = np.asarray(self.start_widths, dtype=float)
        if widths.shape != (2,) or not np.all(np.isfinite(widths) & (widths > 0)):
            raise ParameterError("start_widths must be two finite positive widths, "
                                 f"got {self.start_widths}")


@dataclass
class FlowDiagnostics:
    # one row per residual check
    trace: Table = field(default_factory=lambda: Table(
        "flow_trace", ["iteration", "energy", "nehari_defect", "weak_residual"]))
    final: Pair | None = None
    verdict: str = "budget exhausted"
    iterations: int = 0
    energy: float = math.nan
    residual: float = math.nan
    fitted_delta: float = math.nan
    amplitude_ratio: float = math.nan
    shape_error: float = math.nan
    projections: int = 0   # Nehari projections, one convolution-table product each
    regauges: int = 0      # dilation rescalings after a residual check

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"


def _pinned_entries(grid: RadialGrid):
    """(rows, cols, values) of -Lap from its stencil windows, the last row pinned to u_M = 0."""
    M = grid.M
    values = -grid.laplacian_matrix()
    values[-1] = 0.0
    values[-1, -1] = 1.0   # the last window ends on the last node
    return np.arange(M)[:, None], _stencil_windows(M), values


def _pinned_laplacian(grid: RadialGrid) -> np.ndarray:
    """Dense pinned -Lap, scattered from `_pinned_entries`."""
    rows, cols, values = _pinned_entries(grid)
    L = np.zeros((grid.M, grid.M))
    L[rows, cols] = values
    return L


# rows per diagonal block of the pinned solve's block LU
SOLVE_BLOCK = 100


def _slabs(n: int, rows, cols, values, m: int) -> np.ndarray:
    """Scatter an n x n band matrix (lower half-bandwidth <= 3, upper <= 4)
    into K = ceil(n / m) slabs of shape (m, m + 8).

    Slab k holds block k's rows over the matrix columns k m - 4 .. (k + 1) m + 4.
    The matrix is padded with identity rows to K m.
    """
    K = -(-n // m)
    slabs = np.zeros((K * m, m + 8))
    slabs[rows, cols - rows // m * m + 4] = values
    pad = np.arange(n, K * m)
    slabs[pad, pad % m + 4] = 1.0
    return slabs.reshape(K, m, m + 8)


def _band_factors(slabs: np.ndarray):
    """Block-LU factors of a band matrix from its `_slabs`, on K diagonal blocks of m rows.

    With diagonal blocks A_k, sub-diagonal B_k and super-diagonal U_k, the
    Schur complements are S_k = A_k - B_k S_{k-1}^-1 U_{k-1} (Golub & Van
    Loan, Matrix Computations, section 4.5).  The band puts B_k in the first
    3 rows of block k and the last 4 columns of block k-1, and U_k in the
    last 4 rows of block k and the first 4 columns of block k+1, so each
    correction stays in S_k's top-left corner and S_k keeps the band.
    Returns S_inv (K, m, m), the inverses of the S_k; P (K-1, m, 4),
    P_k = S_k^-1 B_k on the last 4 rows of block k-1; and G (K-1, m, 4),
    G_k = S_k^-1 U_k on the first 4 rows of block k+1.  For m > 4 each S_k
    is inverted by the same elimination on 4-row blocks, a `_band_solve` of
    the identity; only a 4 x 4 block goes to np.linalg.inv.  Every other
    product has inner dimension at most 4, so no BLAS thread split can
    reorder a sum.
    """
    K, m, _ = slabs.shape
    S_inv = np.empty((K, m, m))
    P = np.empty((K - 1, m, 4))
    G = np.empty((K - 1, m, 4))
    for k, slab in enumerate(slabs):
        S = slab[:, 4:-4].copy()
        if k:
            S[:3, :4] -= slab[:3, :4] @ G[k - 1, -4:]
        if m > 4:
            rows, cols = np.nonzero(S)
            S_inv[k] = _band_solve(_band_factors(_slabs(m, rows, cols, S[rows, cols], 4)),
                                   np.eye(m))
        else:
            S_inv[k] = np.linalg.inv(S)
        if k:
            P[k - 1] = S_inv[k, :, :3] @ slab[:3, :4]
        if k + 1 < K:
            G[k] = S_inv[k, :, -4:] @ slab[-4:, -4:]
    return S_inv, P, G


def _band_solve(factors, rhs: np.ndarray) -> np.ndarray:
    """Solve with `_band_factors` for K m right-hand-side rows, (K m,) or (K m, k).

    One batched product of the Schur-complement inverses with the blocks of
    rhs, then a forward sweep y_k -= P_k y_{k-1} and a back sweep
    x_k -= G_k x_{k+1}, each through 4 rows.
    """
    S_inv, P, G = factors
    K, m, _ = S_inv.shape
    x = np.matmul(S_inv, rhs.reshape(K, m, -1))
    for k in range(1, K):
        x[k] -= P[k - 1] @ x[k - 1, -4:]
    for k in range(K - 2, -1, -1):
        x[k] -= G[k] @ x[k + 1, :4]
    return x.reshape(rhs.shape)


def _pinned_solver(grid: RadialGrid):
    """Solve -Lap g = rhs with the outermost node pinned to zero.

    rhs is one (M,) vector or an (M, k) block of right-hand sides, one per
    column; the last row is pinned in every column.  Uses the collocation
    Laplacian (direct second-derivative stencils), whose block-LU factors
    (`_band_factors` on blocks of SOLVE_BLOCK rows, 340 kB at M = 400) are
    kept on the grid.  On the pinned matrix (condition number about 7e6 at
    M = 400), smooth and rough right-hand sides at M = 320..800 solve with
    normwise backward error below 2 eps and within 1e-12 of the exact
    solution, relative to its largest entry, as an LU solve with partial
    pivoting does.  The fixed point of the Picard map then satisfies the same
    strong-form operator that the residual field is built from, so
    converged flows report near-machine residuals.
    """
    M = grid.M
    factors = grid.kept("pinned_factors", lambda: _band_factors(
        _slabs(M, *_pinned_entries(grid), SOLVE_BLOCK)))
    K, m, _ = factors[0].shape

    def solve(rhs):
        b = np.zeros((K * m,) + rhs.shape[1:])
        b[:M - 1] = rhs[:M - 1]
        return _band_solve(factors, b)[:M]

    return solve


def _half_height_scale(grid: RadialGrid, values: np.ndarray) -> float:
    """Dilation estimate: radius where the profile falls to 2^-((N-2)/2) of its peak."""
    peak = values.max()
    if peak <= 0:
        return math.nan
    level = peak * 2.0 ** (-(grid.N - 2) / 2.0)
    below = np.flatnonzero(values < level)
    if len(below) == 0 or below[0] == 0:
        return math.nan
    j = below[0]
    x0, x1 = grid.r[j - 1], grid.r[j]
    y0, y1 = values[j - 1], values[j]
    return float(x0 + (level - y0) * (x1 - x0) / (y1 - y0))


def _fit_bubble_dilation(grid: RadialGrid, values: np.ndarray, amplitude: float):
    """Best dilation matching `values` to amplitude * standard bubble shape.

    Golden-section on the weighted misfit around the half-height estimate;
    returns (delta_fit, bulk relative error).
    """
    d0 = _half_height_scale(grid, values)
    if not np.isfinite(d0):
        return math.nan, math.nan
    cn = bubble_constant(grid.N, grid)
    p = (grid.N - 2) / 2.0
    bulk = values > 0.01 * values.max()
    w, r2, y = grid.w[bulk], grid.r[bulk] ** 2, values[bulk]
    scale = amplitude * cn

    def model(d):
        return scale * (d / (d**2 + r2)) ** p

    d_fit = golden_section_min(lambda d: float(w @ (y - model(d)) ** 2), d0 / 1.5, d0 * 1.5)
    err = float(np.max(np.abs(y - model(d_fit))) / values.max())
    return d_fit, err


def _decay_amplitude(grid: RadialGrid, values: np.ndarray) -> float:
    """c in values ~ c r^-(N-2), fitted over the outer half of the grid."""
    sel = grid.r > 0.5 * grid.R_max
    return float(np.mean(values[sel] * grid.r[sel] ** (grid.N - 2)))


def _amplitude_ratio(X: np.ndarray) -> float:
    """Bulk amplitude ratio of X = [u v]: the median of v/u where u > 0.01 max u.

    The median is np.median's float, read off a sort (np.median would
    import numpy.ma): the mean of the middle one or two ratios, or NaN
    when a ratio is NaN, which sorts last.
    """
    u, v = X.T
    bulk = u > 0.01 * u.max()
    if bulk.any() and np.all(u[bulk] > 0):
        q = np.sort(v[bulk] / u[bulk])
        n = len(q)
        return float(q[-1] if np.isnan(q[-1]) else np.mean(q[(n - 1) // 2:n // 2 + 1]))
    return math.nan


def _rescale_profile(grid: RadialGrid, X: np.ndarray, scale: float) -> np.ndarray:
    """Each column x(r) of X -> scale^((N-2)/2) x(scale r), power-law beyond the grid.

    The columns share one cell lookup and one factorization of the spline
    slope system.
    """
    r_out = grid.r * scale
    out = np.empty_like(X)
    inside = r_out <= grid.R_max
    out[inside] = np.column_stack(_evaluate([RadialFn(grid, x) for x in X.T], r_out[inside]))
    if (~inside).any():
        amplitudes = [_decay_amplitude(grid, x) for x in X.T]
        out[~inside] = np.outer(r_out[~inside] ** (-(grid.N - 2)), amplitudes)
    return out * scale ** ((grid.N - 2) / 2.0)


def solve_limit_ground_state(cc: CouplingConstants, cfg: FlowConfig,
                             grid: RadialGrid) -> FlowDiagnostics:
    """Projected descent for the coupled limit ground state.

    The scalar limit equation is the case mu1 = mu2 = mu/3, beta = 2 mu/3:
    there k1 = k2 = 1/mu, both components equal mu^(-1/2) U and the level
    is twice S_HL^2 / (4 mu).
    """
    N = grid.N
    kern = kernel_for(grid)
    W = grid.w
    solve = _pinned_solver(grid)
    prob = Problem.limit(N, cc)

    widths = np.asarray(cfg.start_widths, float)
    X = np.asarray(START_AMPLITUDES, float) * np.exp(-(grid.r[:, None] / widths) ** 2)
    # the Gaussian's far tail would make subnormal entries of Y = X^2, on
    # which the start product C Y and the first Picard solve run slowly
    X[X < math.sqrt(np.finfo(float).tiny)] = 0.0
    coupling = _coupling_matrix(cc)

    def nonlocal_sum(Y, Z):
        """Sum of coupling * D((X_+)^2) over both components, from Y = (X_+)^2 and Z = C Y."""
        return float((coupling * (Y.T @ (W[:, None] * Z))).sum())

    def project(XX):
        """Rescale onto the Nehari set.

        Returns t XX, its energy, its convolution C (t XX)_+^2 and its
        per-column Dirichlet sums, as dirichlet_seminorm forms them.
        """
        Y = np.maximum(XX, 0.0) ** 2
        Z = kern.convolve_values(Y)
        diag.projections += 1
        Kx = _dirichlet_sums(grid, XX)
        K = float(Kx.sum())
        NL = nonlocal_sum(Y, Z)
        if NL <= 0:
            raise ParameterError("pair has vanishing positive parts")
        t = math.sqrt(K / NL)
        # on-manifold energy = K/4
        return t * XX, t**4 * 0.25 * NL, t**2 * Z, t**2 * Kx

    diag = FlowDiagnostics()
    X, energy, Z, Kx = project(X)
    tau = STEP_SIZE
    residual = math.inf
    ratio = math.nan
    it = 0

    for it in range(1, MAX_ITERATIONS + 1):
        Xp = np.maximum(X, 0.0)
        pic = solve((Z @ coupling) * Xp)

        accepted = False
        for _ in range(40):
            cand = (1.0 - tau) * X + tau * pic
            cand_p = np.maximum(cand, 0.0)
            try:
                cand, cand_energy, cand_Z, cand_K = project(cand_p)
            except ParameterError:
                tau *= 0.5
                continue
            if cand_energy <= energy * (1.0 + 1e-12):
                accepted = True
                break
            tau *= 0.5
        if not accepted:
            diag.verdict = "stalled line search"
            break
        X, energy, Z, Kx = cand, cand_energy, cand_Z, cand_K
        tau = min(STEP_SIZE, tau * 1.3)

        if it % CHECK_EVERY == 0 or it == MAX_ITERATIONS:
            pair = Pair(RadialFn(grid, X[:, 0]), RadialFn(grid, X[:, 1]))
            residual = weak_residual(pair, prob)
            ku, kv = Kx
            K = float(ku + kv)
            defect = (K - nonlocal_sum(np.maximum(X, 0.0) ** 2, Z)) / max(K, 1e-300)
            diag.trace.add(iteration=it, energy=energy, nehari_defect=defect,
                           weak_residual=residual)
            if min(ku, kv) < 1e-12 * max(ku, kv):
                diag.verdict = "semi-trivial attractor"
                break
            last_ratio, ratio = ratio, _amplitude_ratio(X)
            settled = (len(diag.trace.rows) == 1
                       or abs(ratio - last_ratio) <= cfg.residual_tolerance * abs(last_ratio))
            if residual < cfg.residual_tolerance and settled:
                diag.verdict = "converged"
                break
            if it < MAX_ITERATIONS:
                d_hat = _half_height_scale(grid, X[:, 0])
                if np.isfinite(d_hat) and abs(d_hat - 1.0) > 0.2:
                    X = _rescale_profile(grid, X, d_hat)
                    X, energy, Z, Kx = project(X)
                    diag.regauges += 1

    u, v = X.T
    diag.iterations = it
    diag.residual = residual
    fu = RadialFn(grid, u, p_tail=N - 2, c_tail=max(_decay_amplitude(grid, u), 0.0))
    fv = RadialFn(grid, v, p_tail=N - 2, c_tail=max(_decay_amplitude(grid, v), 0.0))
    diag.final = Pair(fu, fv)
    diag.energy = energy

    diag.amplitude_ratio = _amplitude_ratio(X)
    diag.fitted_delta, diag.shape_error = _fit_bubble_dilation(
        grid, u, math.sqrt(cc.k1)
    )
    return diag

