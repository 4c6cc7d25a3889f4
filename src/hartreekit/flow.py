"""Ground-state flows and sequence bookkeeping checks.

The limit system has no potentials; restricted to its Nehari set the
functional equals a quarter of the Dirichlet norm, so the coupled ground
state is the constrained minimizer and projected descent is the natural
solver.  Each step is a damped Picard step that solves with the collocation
Laplacian (outermost node pinned to zero), clamps negative values, rescales
back onto the Nehari set, and backtracks on the energy.  The dilation zero
mode is re-gauged to unit scale every few dozen iterations so the iterate
cannot drift below grid resolution.

The iterate is one (M, 2) array X = [u v], so each dense M x M table is
applied once to both components.  A step applies three: the pinned inverse,
the stiffness and the convolution table.  The projection is the only place
the flow convolves: it forms Y = (X_+)^2 once, reads the nonlocal sum off
the 2 x 2 matrix Y^T (w Z) with Z = C Y (against the symmetric coupling
the same sum as the double energies, which take its symmetric part), and
hands the rescaled Z on, so the next Picard step and the Nehari defect
reuse it.  The coupling mixes the columns of Z through the 2 x 2 matrix
[[mu1, beta], [beta, mu2]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bubbles import CouplingConstants, bubble_constant, make_bubble
from .energy import Problem, _coupling_matrix, potential_mass, weak_residual
from .errors import ParameterError
from .grids import (
    Pair,
    RadialFn,
    RadialGrid,
    _has_tail,
    dirichlet_seminorm,
    integrate,
)
from .riesz import double_energy, kernel_for

__all__ = [
    "FlowConfig",
    "FlowDiagnostics",
    "solve_limit_ground_state",
    "vanishing_energy_limit",
    "brezis_lieb_check",
]


@dataclass(frozen=True)
class FlowConfig:
    step_size: float = 1.0
    max_iterations: int = 5000
    residual_tolerance: float = 1e-3
    recenter_every: int = 50
    check_every: int = 25
    start: str = "gaussian"   # gaussian | bubble
    start_widths: tuple = (1.0, 1.2)
    start_amplitudes: tuple = (1.0, 0.8)

    def __post_init__(self):
        if not (0 < self.step_size < math.inf):
            raise ParameterError(f"step size must be positive and finite, got {self.step_size}")
        if not (0 < self.residual_tolerance < math.inf):
            raise ParameterError("residual tolerance must be positive and finite, "
                                 f"got {self.residual_tolerance}")
        if self.start not in ("gaussian", "bubble"):
            raise ParameterError(f"start must be gaussian or bubble, got {self.start!r}")
        for name in ("max_iterations", "check_every", "recenter_every"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be at least 1, got {getattr(self, name)}")


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


def _pinned_solver(grid: RadialGrid):
    """Solve -Lap g = rhs with the outermost node pinned to zero.

    rhs is one (M,) vector or an (M, k) block of right-hand sides, one per
    column; the last row is pinned in every column.  Uses the collocation
    Laplacian (direct second-derivative stencils), whose inverse is built
    by block-tridiagonal elimination and cached on the grid: each solve is
    then one product of the inverse with rhs.  On the pinned matrix
    (condition number about 7e6 at M = 400), smooth and rough right-hand
    sides at M = 320..800 solve with normwise backward error below 2 eps and
    within 1e-12 of the exact solution, relative to its largest entry, as
    an LU solve with partial pivoting does.  The fixed point of the Picard map then satisfies
    the same strong-form operator that the residual field is built from, so
    converged flows report near-machine residuals.
    """
    key = "laplacian_inverse"
    if key not in grid._cache:
        L = -grid.laplacian_matrix()
        L[-1, :] = 0.0
        L[-1, -1] = 1.0
        grid._cache[key] = _block_tridiagonal_inverse(L)
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

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = d0 / 1.5, d0 * 1.5
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = misfit(c1), misfit(c2)
    for _ in range(80):
        # the surviving interior point keeps its misfit; one new evaluation per pass
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = misfit(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = misfit(c2)
    d_fit = 0.5 * (a + b)
    model = amplitude * cn * (d_fit / (d_fit**2 + grid.r[bulk] ** 2)) ** p
    err = float(np.max(np.abs(values[bulk] - model)) / values.max())
    return d_fit, err


def _decay_amplitude(grid: RadialGrid, values: np.ndarray) -> float:
    """c in values ~ c r^-(N-2), fitted over the outer half of the grid."""
    sel = grid.r > 0.5 * grid.R_max
    return float(np.mean(values[sel] * grid.r[sel] ** (grid.N - 2)))


def _rescale_profile(grid: RadialGrid, values: np.ndarray, scale: float) -> np.ndarray:
    """values(r) -> scale^((N-2)/2) values(scale r), power-law beyond the grid."""
    f = RadialFn(grid, values)
    r_out = grid.r * scale
    out = np.empty_like(values)
    inside = r_out <= grid.R_max
    out[inside] = f(r_out[inside])
    if (~inside).any():
        out[~inside] = _decay_amplitude(grid, values) * r_out[~inside] ** (-(grid.N - 2))
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
    A = grid.stiffness()
    W = grid.w
    solve = _pinned_solver(grid)
    prob = Problem.limit(N, cc)

    if cfg.start == "bubble":
        b = make_bubble(1.0, grid)(grid.r)
        X = b[:, None] * np.sqrt([cc.k1, cc.k2])
    else:
        widths = np.asarray(cfg.start_widths, float)
        amps = np.asarray(cfg.start_amplitudes, float)
        X = amps * np.exp(-(grid.r[:, None] / widths) ** 2)
    coupling = _coupling_matrix(cc)

    def nonlocal_sum(Y, Z):
        """Sum of coupling * D((X_+)^2) over both components, from Y = (X_+)^2 and Z = C Y."""
        return float((coupling * (Y.T @ (W[:, None] * Z))).sum())

    def project(XX):
        """Rescale onto the Nehari set.

        Returns t XX, its energy, its convolution C (t XX)_+^2 and its
        per-column Dirichlet sums (t x)^T A (t x).
        """
        Y = np.maximum(XX, 0.0) ** 2
        Z = kern.convolve_values(Y)
        diag.projections += 1
        P = XX * (A @ XX)
        K = float(P.sum())
        NL = nonlocal_sum(Y, Z)
        if NL <= 0:
            raise ParameterError("pair has vanishing positive parts")
        t = math.sqrt(K / NL)
        # on-manifold energy = K/4
        return t * XX, t**4 * 0.25 * NL, t**2 * Z, t**2 * P.sum(axis=0)

    diag = FlowDiagnostics()
    X, energy, Z, Kx = project(X)
    tau = cfg.step_size
    residual = math.inf
    it = 0

    for it in range(1, cfg.max_iterations + 1):
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
        tau = min(cfg.step_size, tau * 1.3)

        if it % cfg.recenter_every == 0:
            d_hat = _half_height_scale(grid, X[:, 0])
            if np.isfinite(d_hat) and abs(d_hat - 1.0) > 0.2:
                X = np.column_stack([_rescale_profile(grid, x, d_hat) for x in X.T])
                X, energy, Z, Kx = project(X)

        if it % cfg.check_every == 0 or it == cfg.max_iterations:
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


# ---------------------------------------------------------------------------
# sequence bookkeeping
# ---------------------------------------------------------------------------

def vanishing_energy_limit(prob: Problem, mu_index: int, delta_seq,
                           grid: RadialGrid):
    """Scalar concentration family mu_j^(-1/2) U_delta: potential mass and
    constrained energy per dilation.

    Each row is computed on the delta-scaled copy of the base grid, so the
    dilation covariances (L^2 mass ~ delta^2, Dirichlet and double energies
    constant) hold to machine precision and only the potential term carries
    delta dependence.
    """
    from .reporting import Table

    if mu_index not in (1, 2):
        raise ParameterError("mu_index must be 1 or 2")
    mu = prob.mu1 if mu_index == 1 else prob.mu2
    lam = prob.lam1 if mu_index == 1 else prob.lam2
    V = prob.potential(mu_index)

    table = Table(
        "vanishing_limits",
        ["delta", "l2_mass", "lambda_mass", "potential_mass", "t_n", "energy"],
    )
    for d in delta_seq:
        gd = grid.scaled(float(d))
        prof = make_bubble(float(d), gd).profile_on(gd) * (1.0 / math.sqrt(mu))
        sq = prof.squared()
        l2 = integrate(sq)
        lam_mass = lam * l2
        pot = potential_mass(V, lam, sq)
        K = dirichlet_seminorm(prof)
        D = double_energy(sq, sq)
        t_sq = (K + pot) / (mu * D)
        energy = 0.25 * t_sq * (K + pot)
        table.add(delta=float(d), l2_mass=l2, lambda_mass=lam_mass,
                  potential_mass=pot, t_n=math.sqrt(t_sq), energy=energy)
    return table


def brezis_lieb_check(u0: RadialFn | None, bubble_profile: RadialFn,
                      sigma_seq, fine_grid: RadialGrid):
    """Splitting error of the nonlocal energy along a concentrating family.

    u_n = u0 + sigma_n^(-(N-2)/2) b(x / sigma_n); the self column reports
    | D(u_n^2, u_n^2) - D((u_n - u0)^2, (u_n - u0)^2) - D(u0^2, u0^2) |
    and the mixed column the analogous quantity for the pair
    (u_n, v_n = u0/2 + bubble).  All three double energies are evaluated
    independently on one fine grid resolving both scales.

    The bubbles sit at the origin, like the background: the discretization
    carries a single translation center, and a background plus an offset
    bubble would need two.
    """
    from .reporting import Table

    g = fine_grid
    N = g.N

    if u0 is None:
        u0f = RadialFn(g, np.zeros(g.M))
    else:
        u0f = u0.resample(g).positive()
    v0f = 0.5 * u0f
    d_u0 = double_energy(u0f.squared(), u0f.squared())
    d_u0v0 = double_energy(u0f.squared(), v0f.squared())

    table = Table(
        "nonlocal_splitting",
        ["sigma", "self_error", "mixed_error", "d_full", "d_bubble", "d_background"],
    )
    p = (N - 2) / 2.0
    for sig in sigma_seq:
        vals = bubble_profile(g.r / sig) * sig ** (-p)
        if _has_tail(bubble_profile):
            ct = bubble_profile.c_tail * sig ** (bubble_profile.p_tail - p)
            bn = RadialFn(g, vals, p_tail=bubble_profile.p_tail, c_tail=ct)
        else:
            bn = RadialFn(g, vals)
        bn = bn.positive()
        un = (u0f + bn).positive()
        vn = (v0f + bn).positive()
        d_bn = double_energy(bn.squared(), bn.squared())
        d_un = double_energy(un.squared(), un.squared())
        d_mixed = double_energy(un.squared(), vn.squared())
        table.add(
            sigma=float(sig),
            self_error=abs(d_un - d_bn - d_u0),
            mixed_error=abs(d_mixed - d_bn - d_u0v0),
            d_full=d_un, d_bubble=d_bn, d_background=d_u0,
        )
    return table
