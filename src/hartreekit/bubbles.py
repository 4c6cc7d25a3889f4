"""Closed-form extremals and trial families.

The limit equation  -Lap u = (|x|^-4 * u^2) u  on R^N is solved by the
one-parameter family

    U_delta(x - z) = C_N (delta / (delta^2 + |x - z|^2))^((N-2)/2),

whose Dirichlet energy and self double-energy both equal S_HL^2.  The
amplitude C_N is pinned numerically through the homogeneity of the equation
(the left side is linear in the amplitude, the right side cubic) and then
certified by a weak-form residual over a mollified-bump test set.

The coupled ground pair is (sqrt(k1) U, sqrt(k2) U) with

    k1 = (beta - mu2) / (beta^2 - mu1 mu2),
    k2 = (beta - mu1) / (beta^2 - mu1 mu2),      beta > max(mu1, mu2).

The trial profile is a boundary-mollified truncation of a concentrated
bubble to the unit ball, rescaled so its Dirichlet energy equals its self
double-energy exactly, then certified to sit in a prescribed energy window
just above the coupled ground level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    NumericalError,
    ParameterError,
)
from .grids import (
    Pair,
    RadialFn,
    RadialGrid,
    _dilation,
    dirichlet_seminorm,
    integrate,
    make_grid,
    sphere_area,
)
from .riesz import ConstantsTable, double_energy, hls_constant, sobolev_constant, unit_extremal

__all__ = [
    "CouplingConstants",
    "TrialProfile",
    "bubble_constant",
    "bubble_profile",
    "make_constants_table",
    "coupling_constants",
    "quotient_infimum",
    "ground_pair",
    "make_trial_profile",
]


def bubble_constant(N: int, grid: RadialGrid | None = None) -> float:
    """Amplitude C_N of the standard bubble, from the homogeneity relation.

    With u1 the unit-amplitude profile, C_N^2 = ||grad u1||^2 / D_4(u1^2, u1^2);
    any solution with this profile shape must satisfy the ray-stationarity
    identity, and residual certification (runner.bubble_certification)
    confirms the shape.

    The amplitude is a property of the grid and is cached on it.  Without a
    grid, a fresh reference grid (M=400, R=40, stretch 1.02) is built and
    discarded.
    """
    if not (isinstance(N, (int, np.integer)) and N >= 5):
        raise ParameterError(f"N must be an integer >= 5, got {N}")
    if grid is None:
        grid = make_grid(N, 400, 40.0, 1.02)
    if grid.N != N:
        raise ParameterError(f"grid dimension {grid.N} does not match N={N}")

    def build():
        u1 = unit_extremal(grid)
        num = dirichlet_seminorm(u1)
        den = double_energy(u1.squared(), u1.squared())
        if not (num > 0 and den > 0):
            raise NumericalError("homogeneity relation failed to bracket a positive amplitude")
        return math.sqrt(num / den)

    return grid.kept("bubble_amplitude", build)


def bubble_profile(delta: float, grid: RadialGrid) -> RadialFn:
    """Extremal U_delta on `grid`, with the amplitude C_N pinned on the grid
    and the tail C_N delta^((N-2)/2) r^-(N-2)."""
    c_N = bubble_constant(grid.N, grid)
    d = _dilation(delta, grid.N)
    p = (grid.N - 2) / 2.0
    return RadialFn(grid, c_N * (d / (d**2 + grid.r**2)) ** p,
                    p_tail=grid.N - 2, c_tail=c_N * d**p)


def make_constants_table(grid: RadialGrid) -> ConstantsTable:
    N = grid.N
    S = sobolev_constant(grid)
    C = hls_constant(N, 4.0)
    return ConstantsTable(
        N=N,
        hls=C,
        sobolev=S,
        s_hl=S / math.sqrt(C),
        bubble_norm=bubble_constant(N, grid),
        sphere=sphere_area(N),
    )


@dataclass(frozen=True)
class CouplingConstants:
    """Amplitudes and energy levels of the coupled limit system."""

    mu1: float
    mu2: float
    beta: float
    k1: float
    k2: float
    s_hl_sq: float

    @property
    def k_sum(self) -> float:
        return self.k1 + self.k2

    @property
    def c_inf(self) -> float:   # ground level of the coupled limit system
        return 0.25 * self.k_sum * self.s_hl_sq

    @property
    def m1_inf(self) -> float:  # scalar limit levels S_HL^2 / (4 mu_j)
        return self.s_hl_sq / (4.0 * self.mu1)

    @property
    def m2_inf(self) -> float:
        return self.s_hl_sq / (4.0 * self.mu2)

    def identity_defect(self) -> float:
        """mu1 k1^2 + mu2 k2^2 + 2 beta k1 k2 - (k1 + k2); zero analytically."""
        return (self.mu1 * self.k1**2 + self.mu2 * self.k2**2
                + 2.0 * self.beta * self.k1 * self.k2) - self.k_sum

    def to_dict(self) -> dict:
        return {
            "mu1": self.mu1, "mu2": self.mu2, "beta": self.beta,
            "k1": self.k1, "k2": self.k2,
            "c_inf": self.c_inf, "m1_inf": self.m1_inf, "m2_inf": self.m2_inf,
        }


def coupling_constants(mu1: float, mu2: float, beta: float,
                       s_hl_sq: float) -> CouplingConstants:
    """k1, k2 and the associated energy levels; requires beta > max(mu1, mu2)."""
    if mu1 <= 0 or mu2 <= 0:
        raise ParameterError(f"mu1, mu2 must be positive, got {mu1}, {mu2}")
    if beta <= max(mu1, mu2):
        raise DomainError(
            f"beta must exceed max(mu1, mu2): beta={beta}, max={max(mu1, mu2)}"
        )
    den = beta**2 - mu1 * mu2
    k1 = (beta - mu2) / den
    k2 = (beta - mu1) / den
    return CouplingConstants(mu1=mu1, mu2=mu2, beta=beta, k1=k1, k2=k2, s_hl_sq=s_hl_sq)


# passes of `golden_section_min`; each shrinks the bracket by the golden ratio
GOLDEN_PASSES = 80


def golden_section_min(f, a: float, b: float) -> float:
    """Minimizer of a unimodal f on [a, b]: the bracket's midpoint after
    GOLDEN_PASSES golden-section passes, one new evaluation per pass."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(GOLDEN_PASSES):
        # the surviving interior point keeps its value
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = f(c2)
    return 0.5 * (a + b)


def quotient_infimum(mu1: float, mu2: float, beta: float):
    """inf over t >= 0 of (1 + t)^2 / (mu1 t^2 + 2 beta t + mu2).

    Returns (t_star, value).  Closed-form stationarity gives
    t_star = (beta - mu2)/(beta - mu1); a golden-section refinement over a
    wide bracket confirms the closed form to 1e-10.
    """
    if mu1 <= 0 or mu2 <= 0 or beta <= max(mu1, mu2):
        raise DomainError("requires mu1, mu2 > 0 and beta > max(mu1, mu2)")

    def q(t):
        return (1.0 + t) ** 2 / (mu1 * t**2 + 2.0 * beta * t + mu2)

    t_star = (beta - mu2) / (beta - mu1)
    value = q(t_star)

    ts = np.linspace(0.0, 1000.0, 4001)
    i = int(np.argmin(q(ts)))
    t_bf = golden_section_min(q, ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)])
    if abs(q(t_bf) - value) > 1e-10 * value:
        raise NumericalError(
            f"quotient infimum cross-check failed: closed={value}, brute={q(t_bf)}"
        )
    return t_star, value


def ground_pair(delta: float, rho: float, cc: CouplingConstants,
                grid: RadialGrid) -> Pair:
    """The coupled ground state (sqrt(k1) U_delta, sqrt(k2) U_delta), offset by rho."""
    prof = bubble_profile(delta, grid)
    return Pair(math.sqrt(cc.k1) * prof, math.sqrt(cc.k2) * prof, rho)


# ---------------------------------------------------------------------------
# trial profile
# ---------------------------------------------------------------------------

def _smoothstep(x):
    """C^inf step: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(x, 0.0, 1.0)
    def f(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out
    a = f(x)
    b = f(1.0 - x)
    return a / (a + b)


@dataclass(frozen=True, eq=False)
class TrialProfile:
    """Compactly supported trial profile on the unit ball plus its certificates.

    The family member at dilation delta is delta^(-(N-2)/2) profile(x / delta),
    and the trial pair is (sqrt(k1), sqrt(k2)) times it.  No member is built:
    by the dilation law its square is delta^(2-N) square(x / delta) and the
    pair's critical density delta^(-N) density(x / delta), so the trial maps
    read these two unit functions on the profile grid at dilation delta.
    """

    profile: RadialFn          # supported in [0, 1], radially nonincreasing
    energy: float              # ||grad||^2 = D_4(profile^2, profile^2), > S_HL^2
    sigma: float               # coupled limit energy of (sqrt(k1), sqrt(k2)) * profile
    l2_mass: float             # int profile^2
    cc: CouplingConstants
    cbar: float
    inner_scale: float         # dilation of the truncated bubble core
    square: RadialFn           # profile^2
    density: RadialFn          # critical density of the unit trial pair (_pair_density)

    @property
    def grid(self) -> RadialGrid:
        return self.profile.grid


# the inner dilation shrinks by 0.9 per step for at most this many steps
_SHRINK_STEPS = 60
# share of the bubble's Dirichlet mass the first inner dilation keeps in the ball
SUPPORT_FRACTION = 0.995
# the cutoff spans the outermost MOLL_CELLS cells of the profile grid
MOLL_CELLS = 5


def make_trial_profile(cc: CouplingConstants, cbar: float, grid: RadialGrid,
                       amplitude: float) -> TrialProfile:
    """Build the certified trial profile on `grid` (the unit ball).

    A bubble of the given amplitude (the run grid's C_N) with inner dilation
    delta0 is cut off smoothly inside the unit ball and rescaled by the
    unique t > 0 with t^2 ||grad||^2 = t^4 D_4, enforcing the energy
    equality exactly.  delta0 starts at the value keeping SUPPORT_FRACTION
    of the bubble's Dirichlet mass inside the ball and shrinks geometrically
    until the certified coupled energy lands inside (c_inf, cbar); the
    target is the window midpoint.
    """
    if not cbar > cc.c_inf:
        raise ParameterError(f"cbar={cbar} must exceed c_inf={cc.c_inf}")
    N = grid.N
    w_moll = float(grid.edges[-1] - grid.edges[max(0, len(grid.edges) - 1 - MOLL_CELLS)])
    cn = amplitude

    # delta0 with the requested Dirichlet fraction inside the unit ball
    def inside_fraction(d0):
        p = (N - 2) / 2.0
        rr = np.linspace(1e-6, 1.0, 2001)
        du = cn * p * (d0**p) * (-2.0 * rr) / (d0**2 + rr**2) ** (p + 1)
        integ = np.trapezoid(du**2 * rr ** (N - 1), rr) * grid.omega
        s_hl_sq = cc.s_hl_sq
        return integ / s_hl_sq

    lo, hi = 1e-4, 1.0
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if inside_fraction(mid) > SUPPORT_FRACTION:
            lo = mid
        else:
            hi = mid
    delta0 = lo

    window = cbar - cc.c_inf
    prefer_hi = cc.c_inf + 0.45 * window   # leaves over half the window as boundary slack
    accept_hi = cc.c_inf + 0.70 * window   # floor values up to here are still usable
    best = None
    prev_sigma = math.inf
    for _ in range(_SHRINK_STEPS):
        prof, E, sigma = _build_and_certify(grid, cn, delta0, w_moll, cc)
        if cc.c_inf < sigma < cbar and (best is None or sigma < best[2]):
            best = (prof, E, sigma, delta0)
        if cc.c_inf < sigma <= prefer_hi:
            break
        if sigma >= prev_sigma:  # resolution floor reached, shrinking no longer helps
            break
        prev_sigma = sigma
        delta0 *= 0.9
    if best is None or best[2] > accept_hi:
        achieved = best[2] if best is not None else prev_sigma
        raise ConstructionError(
            f"energy window (c_inf={cc.c_inf:.6f}, cbar={cbar:.6f}) not reached; "
            f"achieved sigma={achieved:.6f} (window too tight for this grid)"
        )
    prof, E, sigma, delta0 = best
    square = prof.squared()
    pair = Pair(math.sqrt(cc.k1) * prof, math.sqrt(cc.k2) * prof)
    return TrialProfile(
        profile=prof,
        energy=E,
        sigma=sigma,
        l2_mass=integrate(square),
        cc=cc,
        cbar=cbar,
        inner_scale=delta0,
        square=square,
        density=_pair_density(pair, cc.mu1, cc.mu2, cc.beta),
    )


def _build_and_certify(grid, cn, delta0, w_moll, cc):
    N = grid.N
    p = (N - 2) / 2.0
    r = grid.r
    cutoff = _smoothstep((1.0 - r) / w_moll)
    raw = cn * (delta0 / (delta0**2 + r**2)) ** p * cutoff
    base = RadialFn(grid, raw)  # compact support: no tail
    grad_sq = dirichlet_seminorm(base)
    d4 = double_energy(base.squared(), base.squared())
    t = math.sqrt(grad_sq / d4)
    prof = t * base
    E = t**2 * grad_sq  # equals t^4 d4 by construction
    sigma = 0.25 * cc.k_sum * E
    return prof, E, sigma


def _pair_density(p: Pair, mu1: float, mu2: float, beta: float) -> RadialFn:
    """Radial profile of mu1 (u+)^{2*} + 2 beta (u+ v+)^{2*/2} + mu2 (v+)^{2*}."""
    u, v = p.u, p.v
    N = p.grid.N
    two_star = 2.0 * N / (N - 2.0)
    up = u.positive().power(two_star)
    vp = v.positive().power(two_star)
    cross = u.positive().power(two_star / 2.0) * v.positive().power(two_star / 2.0)
    return mu1 * up + 2.0 * beta * cross + mu2 * vp
