"""Energy functionals, Nehari projections, barycenter maps, and residuals.

The functional of the coupled system on pairs (u, v) is

    I(u, v) = 1/2 int |grad u|^2 + |grad v|^2 + (V1 + lam1) u^2 + (V2 + lam2) v^2
            - 1/4 [ mu1 D(u+^2, u+^2) + 2 beta D(u+^2, v+^2) + mu2 D(v+^2, v+^2) ],

with D the Riesz double energy at exponent 4 and u+ the positive part.  On
the Nehari set (kinetic + potential = nonlocal sum) the value reduces to a
quarter of the quadratic part, which is what every level computation here
exploits.

Weak pairings are evaluated through the pointwise residual field
R_u = -L u + (V1 + lam1) u - RHS_u, with L the collocation Laplacian of the
grid.  Its pairing with a translated test bump is linear in its nodal
values, so the default test set becomes one pairing matrix per grid
(grids.bicenter_rows).  The ground-state flow's fixed point satisfies the
same collocation equation, so converged flows report near-machine residuals
and discretized continuum solutions expose only their truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bubbles import CouplingConstants, TrialProfile, _pair_density, trial_member
from .errors import DivergenceError, ParameterError, ProjectionError
from .grids import (
    Pair,
    RadialFn,
    RadialGrid,
    _has_tail,
    apply_stencil,
    axis_moment_integrals,
    bicenter_integral,
    bicenter_integrals,
    bicenter_rows,
    dirichlet_seminorm,
    from_callable,
    integrate,
    lp_norm,
    make_grid,
)
from .riesz import double_energy, kernel_for

__all__ = [
    "Problem",
    "EnergyBreakdown",
    "energy_I",
    "nehari_project",
    "trial_projection_scalars",
    "barycenter",
    "barycenter_axis_sign",
    "pohozaev_residual",
    "weak_residual",
    "residual_fields",
    "default_test_set",
    "potential_mass",
    "mollified_bump",
]


@dataclass(frozen=True)
class Problem:
    """Parameters of the coupled system: couplings, mass shifts, potentials."""

    N: int
    mu1: float
    mu2: float
    beta: float
    lam1: float = 0.0
    lam2: float = 0.0
    V1: RadialFn | None = None
    V2: RadialFn | None = None

    def __post_init__(self):
        if self.mu1 <= 0 or self.mu2 <= 0:
            raise ParameterError("mu1, mu2 must be positive")
        if self.lam1 < 0 or self.lam2 < 0:
            raise ParameterError("lam1, lam2 must be nonnegative")
        for tag, V in (("V1", self.V1), ("V2", self.V2)):
            if V is None:
                continue
            if np.any(V.values < 0) or V.c_tail < 0:
                raise ParameterError(f"{tag} must be nonnegative")
            lp_norm(V, self.N / 2.0)  # raises DivergenceError if not L^{N/2}

    @classmethod
    def limit(cls, N: int, cc: CouplingConstants) -> "Problem":
        """The limit system of cc's couplings: no potentials, no mass shifts."""
        return cls(N=N, mu1=cc.mu1, mu2=cc.mu2, beta=cc.beta)

    def with_lambda(self, lam1: float, lam2: float) -> "Problem":
        return replace(self, lam1=lam1, lam2=lam2)

    def potential(self, j: int) -> RadialFn | None:
        return self.V1 if j == 1 else self.V2

    def potential_overlaps(self, sq: RadialFn, rho: float) -> tuple[float, float]:
        """(int V1(x) sq(|x - y|) dx, the same for V2) at |y| = rho; 0 for an absent V.

        Two potentials on one grid share sq's side of the overlap, and one
        potential object standing for both (V1 is V2) is integrated once.
        """
        potentials = (self.V1, self.V2)
        distinct = list(dict.fromkeys(V for V in potentials if V is not None))
        over = dict(zip(distinct, bicenter_integrals(sq, distinct, rho)))
        return tuple(0.0 if V is None else over[V] for V in potentials)

    def potential_norms(self) -> tuple[float, float]:
        n1 = lp_norm(self.V1, self.N / 2.0) if self.V1 is not None else 0.0
        n2 = lp_norm(self.V2, self.N / 2.0) if self.V2 is not None else 0.0
        return n1, n2


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float       # int |grad u|^2 + |grad v|^2
    potential: float     # int (V1 + lam1) u^2 + (V2 + lam2) v^2
    nonlocal_11: float   # mu1 D(u+^2, u+^2)
    nonlocal_22: float   # mu2 D(v+^2, v+^2)
    nonlocal_12: float   # 2 beta D(u+^2, v+^2)

    @property
    def nonlocal_sum(self) -> float:
        return self.nonlocal_11 + self.nonlocal_22 + self.nonlocal_12

    @property
    def total(self) -> float:
        return 0.5 * (self.kinetic + self.potential) - 0.25 * self.nonlocal_sum

    @property
    def defect(self) -> float:
        """Nehari defect <I'(u,v), (u,v)>."""
        return (self.kinetic + self.potential) - self.nonlocal_sum

    @property
    def ray_scale_sq(self) -> float:
        """t^2 of the one t > 0 that puts t (u, v) on the Nehari set."""
        return (self.kinetic + self.potential) / self.nonlocal_sum

    @property
    def ray_scale(self) -> float:
        """That t; ProjectionError if the pair has no positive part to scale."""
        if self.nonlocal_sum <= 0.0:
            raise ProjectionError("pair has vanishing positive part; projection undefined")
        return math.sqrt(self.ray_scale_sq)

    @property
    def nehari_level(self) -> float:
        """The functional at t (u, v): a quarter of t^2 (kinetic + potential)."""
        return 0.25 * self.ray_scale_sq * (self.kinetic + self.potential)

    def to_dict(self) -> dict:
        return {
            "kinetic": self.kinetic,
            "potential": self.potential,
            "nonlocal_11": self.nonlocal_11,
            "nonlocal_22": self.nonlocal_22,
            "nonlocal_12": self.nonlocal_12,
            "total": self.total,
            "nehari_defect": self.defect,
        }


def potential_mass(V: RadialFn | None, lam: float, sq: RadialFn, rho: float = 0.0) -> float:
    """int (V(x) + lam) sq(|x - y|) dx at |y| = rho: the lam term, then the V term.

    At rho = 0, V is read on sq's grid (resampled unless it lives there).
    """
    out = 0.0
    if lam > 0.0:
        if _has_tail(sq) and sq.p_tail <= sq.grid.N:
            raise DivergenceError("component lacks the L^2 decay required when lam > 0")
        out += lam * integrate(sq)
    if V is not None:
        if rho == 0.0:
            out += integrate((V if V.grid is sq.grid else V.resample(sq.grid)) * sq)
        else:
            out += bicenter_integral(V, sq, rho)
    return out


def energy_I(p: Pair, prob: Problem) -> EnergyBreakdown:
    """Full breakdown of the coupled functional at a pair."""
    u, v = p.u, p.v
    kinetic = dirichlet_seminorm(u) + dirichlet_seminorm(v)
    potential = (potential_mass(prob.V1, prob.lam1, u.squared(), p.offset)
                 + potential_mass(prob.V2, prob.lam2, v.squared(), p.offset))
    up2 = u.positive().squared()
    vp2 = v.positive().squared()
    return EnergyBreakdown(
        kinetic=kinetic,
        potential=potential,
        nonlocal_11=prob.mu1 * double_energy(up2, up2),
        nonlocal_22=prob.mu2 * double_energy(vp2, vp2),
        nonlocal_12=2.0 * prob.beta * double_energy(up2, vp2),
    )


def nehari_project(p: Pair, prob: Problem):
    """Unique t > 0 with t * p on the Nehari set of `prob`.

    t^2 is EnergyBreakdown.ray_scale_sq; the projected pair has zero defect
    up to roundoff by construction.
    """
    t = energy_I(p, prob).ray_scale
    return t, p.scale(t)


def trial_projection_scalars(profile: TrialProfile, delta: float, rho: float,
                             prob: Problem, cc: CouplingConstants, overlaps=None):
    """Ray scalings t0 (no mass shifts) and t_lam (with them) of a trial member.

    Both follow from the profile's certified energy equality and the exact
    dilation covariances: the Dirichlet and double energies of every member
    equal the profile's, and the L^2 mass scales as delta^2.  The member's
    square comes from the profile's per-delta memo, and both potentials
    share its side of the overlap (Problem.potential_overlaps).  `overlaps`,
    if given, are those two overlaps, already computed for this member.
    """
    if rho < 0:
        raise ParameterError(f"offset must be >= 0, got {rho}")
    E = profile.energy
    ksum = cc.k_sum
    if overlaps is None:
        overlaps = prob.potential_overlaps(profile.member_square(delta), rho)
    over1, over2 = overlaps
    P = cc.k1 * over1 + cc.k2 * over2
    lam_term = (cc.k1 * prob.lam1 + cc.k2 * prob.lam2) * delta**2 * profile.l2_mass
    t0 = math.sqrt(1.0 + P / (ksum * E))
    t_lam = math.sqrt(1.0 + (P + lam_term) / (ksum * E))
    return t0, t_lam


# ---------------------------------------------------------------------------
# barycenter and concentration maps
# ---------------------------------------------------------------------------

def barycenter(p: Pair | RadialFn, mu1: float = 1.0, mu2: float = 1.0, beta: float = 1.0,
               *, rho: float = 0.0):
    """Barycenter axial component xi and concentration gamma of a pair.

    Both maps weigh the critical-density combination of the positive parts
    (_pair_density); they are invariant under positive scalar multiples of
    the pair.  For centered pairs xi = 0 exactly by symmetry.  A density
    built beforehand (TrialProfile.member_density) may stand in for its
    pair: `p` is then that RadialFn, translated by `rho`, and it already
    carries its couplings.
    """
    if isinstance(p, Pair):
        dens, rho = _pair_density(p, mu1, mu2, beta), p.offset
    else:
        dens = p
    if np.all(dens.values == 0.0) and dens.c_tail == 0.0:
        raise ProjectionError("zero critical density; barycenter undefined")
    mass, axial, spread = axis_moment_integrals(dens, rho)
    return axial / mass, spread / mass


def barycenter_axis_sign(profile: TrialProfile, delta: float, rho: float) -> float:
    """<xi | y> for the proportional trial pair at the member (delta, rho); must be > 0."""
    if rho <= 0:
        raise ParameterError("axis sign is defined only for rho > 0")
    prof = trial_member(profile, delta)
    N = prof.grid.N
    mass, axial, _ = axis_moment_integrals(prof.power(2.0 * N / (N - 2.0)), rho)
    return (axial / mass) * rho


# ---------------------------------------------------------------------------
# identities and residuals
# ---------------------------------------------------------------------------

def pohozaev_residual(p: Pair, prob: Problem):
    """Dilation-identity residual for the V = 0 system.

    Returns (lambda_mass, identity_gap) with
      lambda_mass = int lam1 u^2 + lam2 v^2,
      identity_gap = |(N-2)/2 (K - NL) + N/2 lambda_mass| / scale.
    Solutions of the V = 0 system satisfy both the weak identity K + L = NL
    and the dilation identity, which forces lambda_mass = 0.
    """
    if prob.V1 is not None or prob.V2 is not None:
        raise ParameterError("dilation identity is implemented for V = 0 problems only")
    N = prob.N
    br = energy_I(p, prob)
    K = br.kinetic
    if K == 0.0:
        return 0.0, 0.0
    lam_mass = br.potential   # with V = 0, only the mass shifts remain
    NL = br.nonlocal_sum
    gap = abs(0.5 * (N - 2) * (K - NL) + 0.5 * N * lam_mass)
    scale = 0.5 * (N - 2) * max(K, NL) + 0.5 * N * lam_mass
    return lam_mass, gap / scale


def _coupling_matrix(c) -> np.ndarray:
    """[[mu1, beta], [beta, mu2]] of a Problem or CouplingConstants.

    With the convolutions of both squared components as the columns of an
    (M, 2) array, column j of (conv @ this matrix) is component j's factor.
    """
    return np.array([[c.mu1, c.beta], [c.beta, c.mu2]])


def _nodal_potential(V, grid):
    if V is None:
        return 0.0
    return V.values if V.grid is grid else V(grid.r)


def residual_fields(p: Pair, prob: Problem):
    """Pointwise nodal residuals (R_u, R_v) of the coupled system at a centered pair.

    The Laplacian is the grid's collocation stencil, so the fields can be
    interpolated and integrated against translated test functions.  Both
    components travel as the columns of one (M, 2) array, so the Laplacian
    and the convolution table are each applied once.
    """
    if p.offset != 0.0:
        raise ParameterError("residual fields are defined for centered pairs")
    u, v = p.u, p.v
    grid = u.grid
    kern = kernel_for(grid)
    X = np.column_stack([u.values, v.values])
    Xp = np.maximum(X, 0.0)
    rhs = (kern.convolve_values(Xp**2) @ _coupling_matrix(prob)) * Xp
    shift = np.stack(np.broadcast_arrays(_nodal_potential(prob.V1, grid) + prob.lam1,
                                         _nodal_potential(prob.V2, grid) + prob.lam2), axis=-1)
    res_u, res_v = (-apply_stencil(grid.laplacian_matrix(), X) + shift * X - rhs).T
    return RadialFn(grid, res_u), RadialFn(grid, res_v)


def mollified_bump(grid: RadialGrid, scale: float) -> RadialFn:
    """Smooth compactly supported bump of unit height and the given support radius."""
    def f(r):
        x = np.asarray(r, float) / scale
        out = np.zeros_like(x)
        inside = x < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out
    return from_callable(grid, f)


def default_test_set(grid: RadialGrid) -> list:
    """(bump, offset) pairs: mollified bumps at log-spaced scales, offsets 0, 1, 5 (20 in all)."""
    scales = np.geomspace(0.05, 20.0, 7)
    out = []
    for s in scales:
        own = make_grid(grid.N, 80, float(s), 1.0)
        prof = mollified_bump(own, float(s))
        for rho in (0.0, 1.0, 5.0):
            if len(out) >= 20:
                break
            out.append((prof, rho))
    return out[:20]


def _pairing_matrix(bumps: list, grid: RadialGrid):
    """(W, ||grad phi||^2, ||phi||_2^2) over a test set, W[b] @ R.values pairing R with bump b.

    The residual fields on `grid` carry no tail model, so the pairing
    bicenter_integral(R, phi, rho) with each bump (phi, rho) is a fixed row
    of W (see bicenter_rows).  W and the norms are plain arrays: a
    resampled RadialFn would point back at the grid whose cache holds them.
    """
    W = bicenter_rows(bumps, grid)
    base = np.array([dirichlet_seminorm(phi) for phi, _ in bumps])
    mass = np.array([integrate(phi.squared()) for phi, _ in bumps])
    return W, base, mass


def weak_residual(p: Pair, prob: Problem) -> float:
    """Relative dual-norm estimate of I'(p) over the default mollified-bump test set.

    Each test bump (phi, rho) enters as (phi, 0) and (0, phi).  Pairings
    are the translated-overlap quadrature bicenter_integral(R, phi, rho) of
    each residual field R, normalized by ||phi|| ||p|| in the lam-weighted
    norm.  A pairing is linear in R's nodal values, so the test set becomes
    a pairing matrix W, one row per bump: W and the norms are built once per
    grid and kept in the grid's cache, and a call is one product of W with
    the two residual fields.
    """
    key = "weak_residual_pairing"
    if key not in p.grid._cache:
        p.grid._cache[key] = _pairing_matrix(default_test_set(p.grid), p.grid)
    W, base, mass = p.grid._cache[key]
    res_u, res_v = residual_fields(p, prob)
    u, v = p.u, p.v

    norm_p_sq = dirichlet_seminorm(u) + dirichlet_seminorm(v)
    if prob.lam1 > 0:
        norm_p_sq += prob.lam1 * integrate(u.squared())
    if prob.lam2 > 0:
        norm_p_sq += prob.lam2 * integrate(v.squared())
    if norm_p_sq == 0.0:
        return 0.0
    norm_p = math.sqrt(norm_p_sq)

    pairs = W @ np.stack([res_u.values, res_v.values], axis=1)
    nrm = np.sqrt(base[:, None] + np.array([prob.lam1, prob.lam2]) * mass[:, None])
    ratios = np.abs(pairs[nrm > 0]) / (nrm[nrm > 0] * norm_p)
    return float(ratios.max(initial=0.0))
