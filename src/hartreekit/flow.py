"""Projected ground-state flow of the coupled limit system.

The limit system has no potentials; restricted to its Nehari set the
functional equals a quarter of the Dirichlet norm, so the coupled ground
state is the constrained minimizer and projected descent is the natural
solver.  Each step is a damped Picard step that solves with the collocation
Laplacian (outermost node pinned to zero), clamps negative values, rescales
back onto the Nehari set, and backtracks on the energy.  The dilation zero
mode is re-gauged to unit scale every few dozen iterations so the iterate
cannot drift below grid resolution.

The iterate is one (M, 2) array X = [u v], so each dense M x M table is
applied once to both components.  A step applies two, the pinned inverse
and the convolution table; the per-column Dirichlet sums w (D X)^2 come
from the derivative's five-node windows, as in grids.dirichlet_seminorm.
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
from pathlib import Path

import numpy as np

from .bubbles import CouplingConstants, bubble_constant, golden_section_min
from .energy import Problem, _coupling_matrix, weak_residual
from .errors import ParameterError
from .grids import Pair, RadialFn, RadialGrid, _dirichlet_sums, _evaluate, _stencil_windows
from .riesz import kernel_for

__all__ = [
    "FlowConfig",
    "FlowDiagnostics",
    "solve_limit_ground_state",
]


# the flow's fixed settings
STEP_SIZE = 1.0                  # largest Picard step; the line search halves it
MAX_ITERATIONS = 5000            # iteration budget
RECENTER_EVERY = 50              # iterations between dilation re-gauges
CHECK_EVERY = 25                 # iterations between weak-residual checks
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
    trace: list = field(default_factory=list)   # (iteration, energy, defect, residual)
    final: Pair | None = None
    verdict: str = "budget exhausted"
    iterations: int = 0
    energy: float = math.nan
    residual: float = math.nan
    fitted_delta: float = math.nan
    amplitude_ratio: float = math.nan
    shape_error: float = math.nan
    clamped_mass: list = field(default_factory=list)
    projections: int = 0   # Nehari projections, one convolution-table product each

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"

    def trace_csv(self, path):
        from .reporting import Table

        t = Table("trace", ["iteration", "energy", "nehari_defect", "weak_residual"])
        for row in self.trace:
            t.add(iteration=row[0], energy=row[1], nehari_defect=row[2], weak_residual=row[3])
        t.to_csv(path)

    def write_files(self, out_dir):
        """flow_trace.csv and, once there is a final iterate, ground_state.csv."""
        out = Path(out_dir)
        self.trace_csv(out / "flow_trace.csv")
        if self.final is not None:
            u, v = self.final.u, self.final.v
            np.savetxt(out / "ground_state.csv",
                       np.column_stack([u.grid.r, u.values, v.values]),
                       delimiter=",", header="r,u,v", comments="")


def _block_tridiagonal_inverse(L: np.ndarray) -> np.ndarray:
    """Dense inverse of a matrix with lower half-bandwidth <= 3 and upper <= 4.

    On 4 x 4 blocks such a matrix is block tridiagonal (the last block may be
    smaller), with diagonal blocks D_k, sub-diagonal B_k and super-diagonal
    C_k, so block elimination (Golub & Van Loan, Matrix Computations,
    section 4.5) takes M/4 steps.  The forward sweep forms the Schur
    complements S_k = D_k - B_k G_{k-1}, G_k = S_k^-1 C_k, and the eliminated
    identity rows Y_k = S_k^-1 (E_k - B_k Y_{k-1}); the back sweep sets
    X_k = Y_k - G_k X_{k+1}.  Every product has inner dimension at most 4,
    so no BLAS thread split can reorder a sum: the result does not depend on
    the thread count.
    """
    M = len(L)
    blocks = [slice(i, min(i + 4, M)) for i in range(0, M, 4)]
    X = np.zeros((M, M))
    G = []
    for k, s in enumerate(blocks):
        S = L[s, s]
        Y = X[s, : s.stop]   # Y_k vanishes right of block k
        Y[:, s] = np.eye(s.stop - s.start)
        if k:
            p = blocks[k - 1]
            B = L[s, p]
            S = S - B @ G[-1]
            Y[:, : p.stop] -= B @ X[p, : p.stop]
        S_inv = np.linalg.inv(S)
        Y[:] = S_inv @ Y
        if k + 1 < len(blocks):
            G.append(S_inv @ L[s, blocks[k + 1]])
    for k in range(len(blocks) - 2, -1, -1):
        X[blocks[k]] -= G[k] @ X[blocks[k + 1]]
    return X


def _pinned_laplacian(grid: RadialGrid) -> np.ndarray:
    """Dense -Lap scattered from its stencil windows, the last row pinned to u_M = 0."""
    M = grid.M
    L = np.zeros((M, M))
    L[np.arange(M)[:, None], _stencil_windows(M)] = -grid.laplacian_matrix()
    L[-1, :] = 0.0
    L[-1, -1] = 1.0
    return L


def _pinned_solver(grid: RadialGrid):
    """Solve -Lap g = rhs with the outermost node pinned to zero.

    rhs is one (M,) vector or an (M, k) block of right-hand sides, one per
    column; the last row is pinned in every column.  Uses the collocation
    Laplacian (direct second-derivative stencils), whose inverse is built
    by block-tridiagonal elimination and cached on the grid (the dense
    pinned matrix is not kept): each solve is then one product of the
    inverse with rhs.  On the pinned matrix (condition number about 7e6 at
    M = 400), smooth and rough right-hand sides at M = 320..800 solve with
    normwise backward error below 2 eps and within 1e-12 of the exact
    solution, relative to its largest entry, as an LU solve with partial
    pivoting does.  The fixed point of the Picard map then satisfies the
    same strong-form operator that the residual field is built from, so
    converged flows report near-machine residuals.
    """
    key = "laplacian_inverse"
    if key not in grid._cache:
        grid._cache[key] = _block_tridiagonal_inverse(_pinned_laplacian(grid))
    inv = grid._cache[key]

    def solve(rhs):
        b = rhs.copy()
        b[-1] = 0.0
        return inv @ b

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
    w = grid.w[bulk]

    def misfit(d):
        model = amplitude * cn * (d / (d**2 + grid.r[bulk] ** 2)) ** p
        return float(w @ (values[bulk] - model) ** 2)

    d_fit = golden_section_min(misfit, d0 / 1.5, d0 * 1.5)
    model = amplitude * cn * (d_fit / (d_fit**2 + grid.r[bulk] ** 2)) ** p
    err = float(np.max(np.abs(values[bulk] - model)) / values.max())
    return d_fit, err


def _decay_amplitude(grid: RadialGrid, values: np.ndarray) -> float:
    """c in values ~ c r^-(N-2), fitted over the outer half of the grid."""
    sel = grid.r > 0.5 * grid.R_max
    return float(np.mean(values[sel] * grid.r[sel] ** (grid.N - 2)))


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
    it = 0

    for it in range(1, MAX_ITERATIONS + 1):
        Xp = np.maximum(X, 0.0)
        pic = solve((Z @ coupling) * Xp)

        accepted = False
        for _ in range(40):
            cand = (1.0 - tau) * X + tau * pic
            cand_p = np.maximum(cand, 0.0)
            clamped = float((W @ (cand - cand_p) ** 2).sum())
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
        diag.clamped_mass.append(clamped)
        tau = min(STEP_SIZE, tau * 1.3)

        if it % RECENTER_EVERY == 0:
            d_hat = _half_height_scale(grid, X[:, 0])
            if np.isfinite(d_hat) and abs(d_hat - 1.0) > 0.2:
                X = _rescale_profile(grid, X, d_hat)
                X, energy, Z, Kx = project(X)

        if it % CHECK_EVERY == 0 or it == MAX_ITERATIONS:
            pair = Pair(RadialFn(grid, X[:, 0]), RadialFn(grid, X[:, 1]))
            residual = weak_residual(pair, prob)
            ku, kv = Kx
            K = float(ku + kv)
            defect = (K - nonlocal_sum(np.maximum(X, 0.0) ** 2, Z)) / max(K, 1e-300)
            diag.trace.append((it, energy, defect, residual))
            if min(ku, kv) < 1e-12 * max(ku, kv):
                diag.verdict = "semi-trivial attractor"
                break
            if residual < cfg.residual_tolerance:
                diag.verdict = "converged"
                break

    u, v = X.T.copy()
    diag.iterations = it
    diag.residual = residual
    fu = RadialFn(grid, u, p_tail=N - 2, c_tail=max(_decay_amplitude(grid, u), 0.0))
    fv = RadialFn(grid, v, p_tail=N - 2, c_tail=max(_decay_amplitude(grid, v), 0.0))
    diag.final = Pair(fu, fv)
    diag.energy = energy

    bulk = u > 0.01 * u.max()
    if bulk.any() and np.all(u[bulk] > 0):
        diag.amplitude_ratio = float(np.median(v[bulk] / u[bulk]))
    diag.fitted_delta, diag.shape_error = _fit_bubble_dilation(
        grid, u, math.sqrt(cc.k1)
    )
    return diag

