"""Named verification checks, their bubble-family tables, the linking-region
scan, and the homotopy test.

Every check returns a LemmaReport whose rows each carry an explicit
tolerance.  Limit statements are rendered at desk scale: along a geometric
parameter sequence of length >= 4 the monitored quantity must decrease
(5% non-monotone jitter allowed) and its final value must drop below a
fixed fraction (10%) of the initial one.

The region scan, the homotopy check and the lambda sweep read fixed module
constants: the candidate lists, the sample counts (32 per boundary face, a
7 x 5 interior lattice), the 0.02 clearance around 1/2 and the 5% energy
slack.  No argument, config key or flag changes them.  The homotopy
clearances are affine in the homotopy time, so checking both ends is exact
in that direction; the boundary itself is sampled, and the degree
conclusion is reported as supported, never as proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bubbles import (
    CouplingConstants,
    TrialProfile,
    bubble_profile,
    coupling_constants,
    ground_pair,
)
from .energy import (
    Problem,
    barycenter,
    barycenter_axis_sign,
    energy_I,
    pohozaev_residual,
    trial_projection_scalars,
    weak_residual,
)
from .errors import AdmissibilityError, DomainError, NumericalError, ParameterError
from .flow import FlowConfig, FlowDiagnostics
from .grids import Pair, RadialFn, RadialGrid, _has_tail, integrate
from .reporting import LemmaReport, Table, limit_trend
from .riesz import ConstantsTable, double_energy

__all__ = [
    "AdmissibilityReport",
    "RegionScan",
    "TrialSamples",
    "check_A3",
    "choose_a_and_cbar",
    "scan_region",
    "ensure_scan",
    "trial_samples",
    "homotopy_boundary_check",
    "lambda_sweep",
    "limit_trend",
    "vanishing_energy_limit",
    "brezis_lieb_check",
    "CHECK_IDS",
    "VerifyContext",
    "verify_lemma",
]


# ---------------------------------------------------------------------------
# admissibility of the potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Potential-smallness condition in both normalization conventions.

    The plain convention weighs the L^{N/2} norms directly against the
    Sobolev constant; the alternative scales both sides by the inverse root
    of the sharp convolution constant, so the two agree on satisfaction and
    differ only in the margin's units; `satisfied` reads the plain one.
    """

    v1_norm: float
    v2_norm: float
    left_plain: float
    right_plain: float
    left_scaled: float
    right_scaled: float
    nonzero: bool           # V1 + V2 not identically zero
    satisfied_plain: bool
    satisfied_scaled: bool

    @property
    def margin_plain(self) -> float:
        return self.right_plain - self.left_plain

    @property
    def margin_scaled(self) -> float:
        return self.right_scaled - self.left_scaled

    def satisfied(self) -> bool:
        return self.satisfied_plain

    def to_dict(self) -> dict:
        return {
            "v1_norm": self.v1_norm,
            "v2_norm": self.v2_norm,
            "left_plain": self.left_plain,
            "right_plain": self.right_plain,
            "margin_plain": self.margin_plain,
            "left_scaled": self.left_scaled,
            "right_scaled": self.right_scaled,
            "margin_scaled": self.margin_scaled,
            "nonzero": self.nonzero,
            "satisfied_plain": self.satisfied_plain,
            "satisfied_scaled": self.satisfied_scaled,
        }


def _min_factor(mu1, mu2, beta) -> float:
    den = 2.0 * beta - mu1 - mu2
    num = beta**2 - mu1 * mu2
    return min(math.sqrt(num / (mu1 * den)), math.sqrt(num / (mu2 * den)), math.sqrt(2.0))


def check_A3(prob: Problem, constants: ConstantsTable) -> AdmissibilityReport:
    """Evaluate the potential-smallness condition in both conventions."""
    if prob.beta <= max(prob.mu1, prob.mu2):
        raise DomainError("beta must exceed max(mu1, mu2)")
    n1, n2 = prob.potential_norms()
    cc = coupling_constants(prob.mu1, prob.mu2, prob.beta, constants.s_hl_sq)
    wsum = (cc.k1 * n1 + cc.k2 * n2) / cc.k_sum
    mf = _min_factor(prob.mu1, prob.mu2, prob.beta)
    right_plain = (mf - 1.0) * constants.sobolev
    scale = constants.hls ** -0.5
    left_scaled = wsum * scale
    right_scaled = (mf - 1.0) * constants.s_hl
    nonzero = (n1 + n2) > 0.0
    return AdmissibilityReport(
        v1_norm=n1, v2_norm=n2,
        left_plain=wsum, right_plain=right_plain,
        left_scaled=left_scaled, right_scaled=right_scaled,
        nonzero=nonzero,
        satisfied_plain=nonzero and wsum < right_plain,
        satisfied_scaled=nonzero and left_scaled < right_scaled,
    )


def choose_a_and_cbar(prob: Problem, constants: ConstantsTable, c_star_lower: float):
    """Exponent a in (0, 1) and the energy cap cbar.

    a solves f(a) = left where f(t) = 2^(-(1-t)/2) * minfactor * S - S is
    continuous and increasing on [0, 1], so a = 1 + 2 log2((left + S) /
    (minfactor * S)); cbar is the midpoint of
    (c_inf, min((c_star_lower + c_inf)/2, 2^(1-a) c_inf)).  The implied chain
    2^(1-a) c_inf <= min(scalar levels, 2 c_inf) is verified.
    """
    rep = check_A3(prob, constants)
    if not rep.satisfied():
        raise AdmissibilityError(
            "potential-smallness condition violated; cannot place the energy cap"
        )
    cc = coupling_constants(prob.mu1, prob.mu2, prob.beta, constants.s_hl_sq)
    mf = _min_factor(prob.mu1, prob.mu2, prob.beta)
    S = constants.sobolev
    left = rep.left_plain

    if 2.0 ** -0.5 * mf * S - S >= left:
        # degenerate: even f(0) clears the left side; keep a interior
        a = 1e-9
    else:
        a = 1.0 + 2.0 * math.log2((left + S) / (mf * S))
    if not 0.0 < a < 1.0:
        raise AdmissibilityError(f"exponent landed outside (0, 1): a={a}")

    c_inf = cc.c_inf
    cap = min(0.5 * (c_star_lower + c_inf), 2.0 ** (1.0 - a) * c_inf)
    cbar = 0.5 * (c_inf + cap)
    chain_rhs = min(cc.m1_inf, cc.m2_inf, 2.0 * c_inf)
    if 2.0 ** (1.0 - a) * c_inf > chain_rhs * (1.0 + 1e-12):
        raise NumericalError(
            "cap chain violated: 2^(1-a) c_inf exceeds the scalar-level minimum"
        )
    return a, cbar


# ---------------------------------------------------------------------------
# linking-region scan
# ---------------------------------------------------------------------------

# candidates tried in order; the scan keeps the first that passes
DELTA1_CANDIDATES = (0.4, 0.3, 0.2, 0.1, 0.05)
DELTA2_CANDIDATES = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
RBAR_CANDIDATES = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
Y_PROBE = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)   # samples of 'all y'
BOUNDARY_SAMPLES = 32           # per boundary face
INTERIOR_DELTA_SAMPLES = 7
INTERIOR_Y_SAMPLES = 5
GAMMA_MARGIN = 0.02             # clearance required around the 1/2 level
ENERGY_MARGIN = 0.05            # fraction of the cap window kept as slack
# mass shifts of the lambda sweep, largest first
SWEEP_LAMBDAS = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5,
                 3e-6, 1e-6, 3e-7, 1e-7, 3e-8, 1e-8)


@dataclass
class RegionScan:
    """Linking region [delta1, delta2] x {|y| < rbar} with per-sample maps."""

    delta1: float
    delta2: float
    rbar: float
    cbar: float
    c_star_lower: float
    kappa: float                    # sup of the shifted-free energy over the region
    s_tilde: float                  # same with the mass shifts included
    threshold: float                # min(scalar levels, 2 c_inf)
    boundary_sup_energy: float      # sup over the boundary pieces (no shifts)
    samples: Table = field(default_factory=lambda: Table(
        "region_samples",
        ["piece", "delta", "rho", "gamma", "xi_axial", "t0", "t_lam", "i0_hat", "i_tilde"],
    ))
    found: bool = True
    failure: str = ""

    def boundary_rows(self, piece: str):
        return [r for r in self.samples.rows if r["piece"] == piece]

    def to_dict(self) -> dict:
        return {
            "delta1": self.delta1, "delta2": self.delta2, "rbar": self.rbar,
            "cbar": self.cbar, "c_star_lower": self.c_star_lower,
            "kappa": self.kappa, "s_tilde": self.s_tilde,
            "threshold": self.threshold,
            "boundary_sup_energy": self.boundary_sup_energy,
            "found": self.found, "failure": self.failure,
        }


@dataclass(eq=False)
class TrialSamples:
    """The trial family's maps at each sample (delta, rho), each computed once.

    One memo per run: the region scan, 4.4, 4.5 and 5.1 read a member's
    potential overlaps, its shape maps (gamma, xi) and its energy maps
    (t0, t_lam and the two energies) here.  A sample's key rounds delta and
    rho to 12 digits, so a lattice point reached by two different sums is
    one sample; its maps are those of the first (delta, rho) read.
    """

    profile: TrialProfile
    prob: Problem
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def _read(self, kind: str, maps, delta, rho):
        key = (kind, round(float(delta), 12), round(float(rho), 12))
        if key not in self._memo:
            self._memo[key] = maps(self, float(delta), float(rho))
        return self._memo[key]

    # each map is read from the module when it is computed, so a hook on
    # checks._shape_maps or checks._energy_maps sees every computation
    def overlaps(self, delta: float, rho: float) -> tuple[float, float]:
        return self._read("overlaps", _overlaps, delta, rho)

    def shape(self, delta: float, rho: float) -> tuple[float, float]:
        return self._read("shape", _shape_maps, delta, rho)

    def energy(self, delta: float, rho: float) -> tuple[float, float, float, float]:
        return self._read("energy", _energy_maps, delta, rho)


def _overlaps(samples: TrialSamples, delta: float, rho: float):
    """(V1, V2) overlaps of the trial member's square at one (delta, rho)."""
    return samples.prob.potential_overlaps(samples.profile.member_square(delta), rho)


def _shape_maps(samples: TrialSamples, delta: float, rho: float):
    """(gamma, xi_axial) of the trial member at one (delta, rho)."""
    xi, gamma = barycenter(samples.profile.member_density(delta), rho=rho)
    return gamma, xi


def _energy_maps(samples: TrialSamples, delta: float, rho: float):
    """(t0, t_lam, i0_hat, i_tilde) of the trial member at one (delta, rho)."""
    prof = samples.profile
    t0, t_lam = trial_projection_scalars(prof, delta, rho, samples.prob, prof.cc,
                                         overlaps=samples.overlaps(delta, rho))
    sigma = prof.sigma
    return t0, t_lam, t0**4 * sigma, t_lam**4 * sigma


def scan_region(profile: TrialProfile, prob: Problem, c_star_lower: float,
                samples: TrialSamples | None = None) -> RegionScan:
    """Search for the linking region and evaluate the energy caps on it.

    Constraints: concentration below 1/2 on the inner dilation face for all
    probed offsets, above 1/2 on the outer face for offsets below rbar, and
    the shift-free projected energy below cbar on the whole boundary.  Each
    candidate (rbar, delta2) combination is verified on the same dense
    boundary lattice that the final report carries, so an accepted region is
    consistent with its own evidence.  Each face test stops at its first
    failing sample and reads a sample's energy maps only once its
    concentration passed; the offset face reads only energies.  The
    recorded lattice (three boundary faces plus the interior) is still
    evaluated in full once a region is accepted.  kappa (region supremum)
    is then compared against the scalar-level threshold.  The maps come from
    `samples`, the run's memo (a fresh one if None).
    """
    if samples is None:
        samples = TrialSamples(profile, prob)
    elif samples.profile is not profile or samples.prob is not prob:
        raise ParameterError("the sample memo belongs to another profile or problem")
    cc = profile.cc
    cbar = profile.cbar
    c_inf = cc.c_inf
    threshold = min(cc.m1_inf, cc.m2_inf, 2.0 * c_inf)
    cap = cbar - ENERGY_MARGIN * (cbar - c_inf)

    scan = RegionScan(
        delta1=math.nan, delta2=math.nan, rbar=math.nan, cbar=cbar,
        c_star_lower=c_star_lower, kappa=math.nan, s_tilde=math.nan,
        threshold=threshold, boundary_sup_energy=math.nan,
    )
    shape, energy = samples.shape, samples.energy

    def below(g):
        return g < 0.5 - GAMMA_MARGIN

    def above(g):
        return g > 0.5 + GAMMA_MARGIN

    def face_ok(d, rhos, gamma_ok):
        # lazy: stops at the first sample that fails either constraint, and
        # reads a sample's energy only once its concentration passed
        return all(gamma_ok(shape(d, rho)[0]) and energy(d, rho)[2] < cap for rho in rhos)

    # inner dilation face: gamma < 1/2 and energy < cbar for every probed offset
    delta1 = None
    for d in DELTA1_CANDIDATES:
        if d < 0.5 and face_ok(d, Y_PROBE, below):
            delta1 = d
            break
    if delta1 is None:
        scan.found = False
        scan.failure = "no inner dilation face with concentration below 1/2"
        return scan

    nb = BOUNDARY_SAMPLES

    def offset_face_ok(rb, d2):
        ds = np.geomspace(delta1, d2, nb)
        return all(energy(d, rb)[2] < cap for d in ds)

    rbar = delta2 = None
    for rb in RBAR_CANDIDATES:
        rhos = np.linspace(0.0, rb * 0.999, nb)
        if not face_ok(delta1, rhos, below):
            continue
        d2_found = None
        for d2 in DELTA2_CANDIDATES:
            if d2 <= 0.5:
                continue
            if face_ok(float(d2), rhos, above):
                d2_found = float(d2)
                break
        if d2_found is None:
            continue
        if offset_face_ok(rb, d2_found):
            rbar, delta2 = rb, d2_found
            break
    if rbar is None:
        scan.found = False
        scan.failure = ("no (radius, outer dilation) combination satisfies the "
                        "boundary constraints on the dense lattice")
        scan.delta1 = delta1
        return scan

    scan.delta1, scan.delta2, scan.rbar = delta1, delta2, rbar

    # record the verified lattice: three boundary pieces plus the interior
    def record(piece, d, rho):
        (g, xi), (t0, tl, e0, et) = shape(d, rho), energy(d, rho)
        scan.samples.add(piece=piece, delta=float(d), rho=float(rho), gamma=g,
                         xi_axial=xi, t0=t0, t_lam=tl, i0_hat=e0, i_tilde=et)

    rho_b = np.linspace(0.0, rbar * 0.999, nb)
    for rho in rho_b:
        record("inner_face", delta1, rho)
        record("outer_face", delta2, rho)
    for d in np.geomspace(delta1, delta2, nb):
        record("offset_face", d, rbar)
    for d in np.geomspace(delta1, delta2, INTERIOR_DELTA_SAMPLES):
        for rho in np.linspace(0.0, rbar * 0.98, INTERIOR_Y_SAMPLES):
            record("interior", d, rho)

    e0s = scan.samples.column("i0_hat")
    ets = scan.samples.column("i_tilde")
    boundary_e0 = [r["i0_hat"] for r in scan.samples.rows if r["piece"] != "interior"]
    scan.kappa = max(e0s)
    scan.s_tilde = max(ets)
    scan.boundary_sup_energy = max(boundary_e0)
    if scan.boundary_sup_energy >= cbar:
        scan.found = False
        scan.failure = "boundary energy cap violated on the sampled lattice"
    return scan


def homotopy_boundary_check(scan: RegionScan) -> LemmaReport:
    """Non-vanishing of the boundary homotopy toward (1/2, 0).

    The straight-line homotopy between the identity and the
    (concentration, barycenter) map misses (1/2, 0) on each boundary piece
    through its own mechanism: first component below 1/2 on the inner face,
    above 1/2 on the outer face, and a positive inner product with the
    offset axis on the offset face.  Each clearance is affine in the
    homotopy time s, so its minimum over s in [0, 1] sits at s = 0 (the
    identity) or s = 1 (the map): the time direction is checked exactly.
    The boundary is sampled, so the clearances support (do not prove) a
    unit degree.
    """
    rep = LemmaReport("homotopy", "boundary homotopy clears the target point")
    if not scan.found:
        rep.status = "fail"
        rep.add_note(f"region scan failed: {scan.failure}")
        return rep

    inner = scan.boundary_rows("inner_face")
    outer = scan.boundary_rows("outer_face")
    offset = scan.boundary_rows("offset_face")

    # the s = 0 term, then the s = 1 term at every boundary sample
    m1 = min(0.5 - scan.delta1, *(0.5 - row["gamma"] for row in inner))
    m2 = min(scan.delta2 - 0.5, *(row["gamma"] - 0.5 for row in outer))
    m3 = min(scan.rbar**2, *(row["xi_axial"] * scan.rbar for row in offset))
    # each clearance must be strictly positive at every sampled y and every s
    rep.lower_bound("inner face clearance (1/2 - first component)", m1, bound=0.0, tol=0.0)
    rep.lower_bound("outer face clearance (first component - 1/2)", m2, bound=0.0, tol=0.0)
    rep.lower_bound("offset face inner-product clearance", m3, bound=0.0, tol=0.0)
    rep.add_note(
        "unit degree supported by boundary non-vanishing: exact in the homotopy time "
        "(each clearance is affine in s and checked at s = 0 and s = 1), sampled on "
        f"the boundary ({len(inner)} + {len(outer)} + {len(offset)} points); not a proof"
    )
    rep.info("identity-end clearance",
             min(0.5 - scan.delta1, scan.delta2 - 0.5, scan.rbar**2))
    return rep


def lambda_sweep(profile: TrialProfile, scan: RegionScan) -> Table:
    """Empirical feasibility of the shifted caps as the mass shifts shrink.

    For each lam in SWEEP_LAMBDAS the shifted projected energy is
    re-evaluated from the recorded samples (only the shift term changes);
    feasible means the boundary cap stays below cbar and the region cap
    below the scalar-level threshold.
    """
    cc = profile.cc
    if not scan.found or not scan.samples.rows:
        raise ParameterError("lambda sweep requires a successful region scan")
    tbl = Table("lambda_sweep",
                ["lam", "boundary_sup", "region_sup", "cap_ok", "threshold_ok", "feasible"])
    ksum_E = cc.k_sum * profile.energy
    for lam in SWEEP_LAMBDAS:
        shift = (cc.k1 * lam + cc.k2 * lam) * profile.l2_mass
        b_sup, r_sup = 0.0, 0.0
        for row in scan.samples.rows:
            t_lam_sq = row["t0"] ** 2 + shift * row["delta"] ** 2 / ksum_E
            e = t_lam_sq**2 * profile.sigma
            r_sup = max(r_sup, e)
            if row["piece"] != "interior":
                b_sup = max(b_sup, e)
        cap_ok = b_sup < scan.cbar
        thr_ok = r_sup < scan.threshold
        tbl.add(lam=float(lam), boundary_sup=b_sup, region_sup=r_sup,
                cap_ok=cap_ok, threshold_ok=thr_ok, feasible=cap_ok and thr_ok)
    return tbl


# ---------------------------------------------------------------------------
# bubble-family sequences
# ---------------------------------------------------------------------------

def vanishing_energy_limit(prob: Problem, mu_index: int, delta_seq,
                           grid: RadialGrid):
    """Scalar concentration family mu_j^(-1/2) U_delta: potential mass and
    constrained energy per dilation.

    Each row evaluates energy_I at the pair with mu_j^(-1/2) U_delta in
    component j and zero in the other, on the delta-scaled copy of the base
    grid, so the dilation covariances (L^2 mass ~ delta^2, Dirichlet and
    double energies constant) hold to machine precision and only the
    potential term carries delta dependence.  t_n and the energy are the
    pair's Nehari ray scaling and level.
    """
    if mu_index not in (1, 2):
        raise ParameterError("mu_index must be 1 or 2")
    mu = prob.mu1 if mu_index == 1 else prob.mu2
    lam = prob.lam1 if mu_index == 1 else prob.lam2

    table = Table(
        "vanishing_limits",
        ["delta", "l2_mass", "lambda_mass", "potential_mass", "t_n", "energy"],
    )
    for d in delta_seq:
        gd = grid.scaled(float(d))
        prof = bubble_profile(d, gd) * (1.0 / math.sqrt(mu))
        zero = RadialFn(gd, np.zeros(gd.M))
        br = energy_I(Pair(prof, zero) if mu_index == 1 else Pair(zero, prof), prob)
        l2 = integrate(prof.squared())
        table.add(delta=float(d), l2_mass=l2, lambda_mass=lam * l2,
                  potential_mass=br.potential, t_n=math.sqrt(br.ray_scale_sq),
                  energy=br.nehari_level)
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


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

@dataclass
class VerifyContext:
    """Shared artifacts for the named checks."""

    grid: "RadialGrid"
    constants: ConstantsTable
    cc: CouplingConstants
    prob: Problem
    c_star_lower: float        # lower estimate of the compactness level above c_inf
    profile: TrialProfile | None = None
    scan: RegionScan | None = None
    flow_diag: FlowDiagnostics | None = None   # set by the ground-state solve
    rng_seed: int = 1234
    flow: FlowConfig = field(default_factory=FlowConfig)
    # the trial family's sample memo (trial_samples); a replaced context starts a new one
    samples: TrialSamples | None = field(default=None, init=False, repr=False)


def resolve_check(check_id: str) -> str:
    """The numeric id of a check given by its id or its name (see CHECK_IDS)."""
    for cid, name in CHECK_IDS.items():
        if check_id in (cid, name):
            return cid
    raise ParameterError(
        f"unknown check id {check_id!r}; known: {sorted(CHECK_IDS)} "
        f"or names {sorted(CHECK_IDS.values())}"
    )


def verify_lemma(check_id: str, ctx: VerifyContext) -> LemmaReport:
    """Dispatch a named check (numeric aliases listed in CHECK_IDS)."""
    return _CHECKS[resolve_check(check_id)][1](ctx)


def _check_vanishing_limits(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("2.1", "scalar concentration family: potential mass vanishes, "
                             "constrained level reaches the scalar limit")
    deltas = [1.0, 0.3, 0.1, 0.03]
    for j in (1, 2):
        tbl = vanishing_energy_limit(ctx.prob, j, deltas, ctx.grid)
        tbl.name = f"component{j}_" + tbl.name
        rep.tables.append(tbl)
        rep.trend(f"component {j}: potential mass final/initial",
                  tbl.column("potential_mass"), note="monotone decay with vanishing limit")
        mu = ctx.prob.mu1 if j == 1 else ctx.prob.mu2
        target = ctx.constants.s_hl_sq / (4.0 * mu)
        rep.require(
            f"component {j}: constrained energy at smallest dilation",
            tbl.column("energy")[-1], target=target, tol=1e-3,
        )
        lam = ctx.prob.lam1 if j == 1 else ctx.prob.lam2
        if lam > 0:
            u1 = bubble_profile(1.0, ctx.grid)
            l2_u1 = integrate(u1.squared())
            worst = 0.0
            for row in tbl.rows:
                law = lam * row["delta"] ** 2 * l2_u1 / mu
                worst = max(worst, abs(row["lambda_mass"] - law) / law)
            rep.require(f"component {j}: shift-mass dilation law", worst, tol=1e-6)
    return rep


def _ordering_pairs(grid: RadialGrid, seed: int, count: int = 50):
    """The seeded random positive Gaussian pairs of the projection-ordering check."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a1, a2 = rng.uniform(0.3, 2.0, 2)
        w1, w2 = rng.uniform(0.5, 3.0, 2)
        u = RadialFn(grid, a1 * np.exp(-((grid.r / w1) ** 2)))
        v = RadialFn(grid, a2 * np.exp(-((grid.r / w2) ** 2)))
        yield Pair(u, v)


def _ordering_scales(pair: Pair, prob: Problem):
    """(tau, t, breakdown): the Nehari ray scalings of `pair` under the limit system
    of prob's couplings and under prob, from one breakdown under prob.

    The limit system's breakdown is prob's with the potential term 0: the
    kinetic and nonlocal terms do not read the potentials or the shifts.
    """
    br = energy_I(pair, prob)
    return replace(br, potential=0.0).ray_scale, br.ray_scale, br


def _check_projection_ordering(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("2.2", "free projection never exceeds the potential-weighted one")
    violations = 0
    min_gap = math.inf
    strict_expected = 0
    for pair in _ordering_pairs(ctx.grid, ctx.rng_seed):
        tau, t, br = _ordering_scales(pair, ctx.prob)
        if tau > t * (1.0 + 1e-14):
            violations += 1
        min_gap = min(min_gap, t - tau)
        if br.potential > 0:
            strict_expected += 1
    rep.require("ordering violations over 50 random positive pairs", float(violations),
                tol=0.0)
    rep.info("minimum gap t - tau", min_gap)
    rep.info("pairs with strictly positive potential term", float(strict_expected))
    return rep


def _check_dilation_identity(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("2.5", "dilation identity forces zero shift-mass for solutions")
    grid = ctx.grid
    free = Problem.limit(grid.N, ctx.cc)
    gp = ground_pair(1.0, 0.0, ctx.cc, grid)
    lam_mass, gap = pohozaev_residual(gp, free)
    rep.require("identity gap at the limit ground state", gap, tol=1e-3)
    rep.require("shift mass at the limit ground state", lam_mass, tol=1e-12)
    shifted = free.with_lambda(0.5, 0.5)
    lam_mass2, gap2 = pohozaev_residual(gp, shifted)
    rep.lower_bound("shift mass flags the non-solution (must be far from 0)",
                    lam_mass2, bound=0.0, tol=0.1)
    res = weak_residual(gp, shifted)
    rep.lower_bound("weak residual flags the non-solution", res, bound=0.0, tol=1e-3)
    rep.add_note("a pair passing the residual gate with positive shifts must have "
                 "vanishing shift mass; verified on the solver output in the flow check")
    return rep


def _check_ground_level_limit(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("2.6", "infimum with potentials equals the limit level "
                             "(energy limit only; non-attainment is not decided numerically)")
    deltas = [1.0, 0.3, 0.1, 0.03]
    cc = ctx.cc
    tbl = Table("level_limit", ["delta", "potential_mass", "t_n", "energy_gap"])
    gaps = []
    for d in deltas:
        br = energy_I(ground_pair(d, 0.0, cc, ctx.grid.scaled(d)), ctx.prob)
        gap = br.nehari_level - cc.c_inf
        gaps.append(abs(gap))
        tbl.add(delta=d, potential_mass=br.potential, t_n=math.sqrt(br.ray_scale_sq),
                energy_gap=gap)
    rep.tables.append(tbl)
    rep.trend("energy gap to the limit level: final/initial", gaps)
    rep.require("energy at the smallest dilation", gaps[-1] + cc.c_inf,
                target=cc.c_inf, tol=1e-3)
    rep.add_note("non-attainment of the infimum is a structural statement outside "
                 "numerical scope; only the level identity is checked")
    return rep


def _check_nonlocal_splitting(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("3.2", "nonlocal energy splits along a concentrating family")
    grid = ctx.grid
    from .grids import from_callable, make_grid

    gauss = from_callable(grid, lambda r: np.exp(-((r / 2.0) ** 2)))
    bprof = bubble_profile(1.0, grid)
    fine = make_grid(grid.N, 640, grid.R_max, 1.025)
    tbl = brezis_lieb_check(gauss, bprof, [1.0, 0.3, 0.1], fine)
    rep.tables.append(tbl)
    for col in ("self_error", "mixed_error"):
        rep.trend(f"{col} final/initial", tbl.column(col))
    stat = brezis_lieb_check(gauss, bprof, [1.0, 1.0, 1.0], fine)
    spread = max(stat.column("self_error")) - min(stat.column("self_error"))
    rep.require("stationary-sequence control stays constant", spread, tol=1e-10)
    return rep


# offsets probed at each dilation of the concentration and spreading limits
_OFFSET_PROBES = (0.0, 1.0, 3.0, 10.0)
# the trial family's three parameter limits, which 4.4 and 5.1 both sample:
# (label, the parameter's sequence, the probes each sup runs over, whether
# the parameter is the offset).  The spreading overlap with the potential
# bulk peaks near dilation ~ 1 / inner scale; its sequence starts beyond
# that hump, where the vanishing statement applies.
TRIAL_LIMITS = (
    ("concentration", (1.0, 0.3, 0.1, 0.03), _OFFSET_PROBES, False),
    ("spreading", (100.0, 300.0, 1000.0, 3000.0), _OFFSET_PROBES, False),
    ("far offset", (1.0, 4.0, 16.0, 64.0), (0.3, 1.0, 3.0, 10.0), True),
)


def _limit_sups(quantity):
    """(label, sequence, sups) per trial limit: the sup of quantity(delta, rho)
    over the limit's probes at each parameter of its sequence."""
    return [(label, seq, [max(quantity(q, p) if offset else quantity(p, q) for q in probes)
                          for p in seq])
            for label, seq, probes, offset in TRIAL_LIMITS]


def _check_potential_vanishing(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("4.4", "potential mass of the trial family vanishes in all "
                             "three parameter limits")
    samples = trial_samples(ctx)

    def pot_mass(delta, rho):
        return max(0.0, *samples.overlaps(delta, rho))

    sups = _limit_sups(pot_mass)
    pre_hump = Table("spreading_prehump", ["parameter", "sup_potential_mass"])
    for d in (1.0, 10.0):
        pre_hump.add(parameter=d,
                     sup_potential_mass=max(pot_mass(d, rho) for rho in _OFFSET_PROBES))
    rep.tables.append(pre_hump)
    rep.add_note("spreading overlap first rises while the family still sits on the "
                 "potential bulk; the trend gate samples the decaying regime")
    for label, seq, sup in sups:
        t = Table(f"{label.replace(' ', '_')}_limit", ["parameter", "sup_potential_mass"])
        for p, s in zip(seq, sup):
            t.add(parameter=p, sup_potential_mass=s)
        rep.tables.append(t)
        rep.trend(f"{label} limit: final/initial", sup)
    return rep


def _check_concentration_maps(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("4.5", "concentration map limits and barycenter axis positivity")
    prof = ctx.profile
    samples = trial_samples(ctx)
    seq_small = [1.0, 0.3, 0.1, 0.03]
    sup_small = [max(samples.shape(d, rho)[0] for rho in (0.0, 1.0, 3.0))
                 for d in seq_small]
    rep.trend("concentration limit gamma -> 0: final/initial", sup_small)
    worst_bound = max(samples.shape(0.01, rho)[0] / 0.04 for rho in (0.0, 1.0, 3.0))
    rep.require("four-dilations bound at delta = 0.01 (gamma / 4 delta)",
                worst_bound, bound=1.0, tol=0.0)
    far = [abs(1.0 - samples.shape(1000.0, rho)[0]) for rho in (0.0, 1.5, 3.0)]
    rep.require("spreading limit: max |1 - gamma| at delta = 1000, |y| <= 3",
                max(far), tol=0.05, note="absolute tolerance 0.05")
    worst_sign = math.inf
    grid_pts = [(d, r) for d in (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
                for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
    for d, r in grid_pts:
        worst_sign = min(worst_sign, barycenter_axis_sign(prof, d, r))
    rep.lower_bound("axis inner product over a 30-point grid (minimum)",
                    worst_sign, bound=0.0, tol=0.0)
    return rep


def _check_projection_scalars(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("5.1", "shift-free projection scalar tends to 1 in all limits")
    samples = trial_samples(ctx)

    def t0_dev(delta, rho):
        return abs(samples.energy(delta, rho)[0] - 1.0)

    for label, _, sup in _limit_sups(t0_dev):
        rep.trend(f"{label.replace(' ', '-')} limit of |t0 - 1|: final/initial", sup)
    return rep


def trial_samples(ctx: VerifyContext) -> TrialSamples:
    """The context's sample memo of its trial profile under its problem, made once."""
    if ctx.samples is None:
        ctx.samples = TrialSamples(ctx.profile, ctx.prob)
    return ctx.samples


def ensure_scan(ctx: VerifyContext) -> RegionScan:
    """The context's region scan, run once against the context's c_star_lower."""
    if ctx.scan is None:
        ctx.scan = scan_region(ctx.profile, ctx.prob, c_star_lower=ctx.c_star_lower,
                               samples=trial_samples(ctx))
    return ctx.scan


def _check_linking_region(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("5.2", "linking region exists with the boundary energy cap")
    scan = ensure_scan(ctx)
    rep.tables.append(scan.samples)
    rep.require("region found (1 = yes)", 1.0 if scan.found else 0.0,
                target=1.0, tol=0.0)
    if not scan.found:
        rep.add_note(f"failure: {scan.failure}")
        return rep
    inner = [r["gamma"] for r in scan.boundary_rows("inner_face")]
    outer = [r["gamma"] for r in scan.boundary_rows("outer_face")]
    rep.require("inner face: max gamma (must stay below 1/2)", max(inner),
                bound=0.5, tol=0.0)
    rep.lower_bound("outer face: min gamma (must stay above 1/2)", min(outer),
                    bound=0.5, tol=0.0)
    rep.require("boundary energy cap: sup over the three faces",
                scan.boundary_sup_energy, bound=scan.cbar, tol=0.0)
    rep.info("delta1", scan.delta1)
    rep.info("delta2", scan.delta2)
    rep.info("rbar", scan.rbar)
    return rep


def _check_energy_cap(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("5.4", "region energy cap stays below the scalar-level threshold")
    scan = ensure_scan(ctx)
    if not scan.found:
        rep.status = "fail"
        rep.add_note(f"region scan failed: {scan.failure}")
        return rep
    rep.require("kappa (sup of the shift-free energy over the region)",
                scan.kappa, bound=scan.threshold, tol=0.0)
    rep.info("threshold min(scalar levels, twice the limit level)", scan.threshold)
    rep.info("margin", scan.threshold - scan.kappa)
    return rep


def _check_threshold_gap(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("cor2.3", "coupled level sits strictly below both scalar levels")
    cc = ctx.cc
    rep.require("level gap c_inf < min(scalar levels): c_inf value", cc.c_inf,
                bound=min(cc.m1_inf, cc.m2_inf), tol=0.0)
    rng = np.random.default_rng(ctx.rng_seed + 1)
    worst = -math.inf
    for _ in range(100):
        mu1, mu2 = rng.uniform(0.2, 5.0, 2)
        beta = max(mu1, mu2) * rng.uniform(1.01, 5.0)
        c = coupling_constants(mu1, mu2, beta, ctx.constants.s_hl_sq)
        worst = max(worst, c.k_sum - min(1.0 / mu1, 1.0 / mu2))
    rep.require("max over 100 random triples of k_sum - min(1/mu)", worst,
                bound=0.0, tol=0.0)
    return rep


# numeric alias -> (name, check), in the order run-all runs them
_CHECKS = {
    "2.1": ("scalar-vanishing-limits", _check_vanishing_limits),
    "2.2": ("projection-ordering", _check_projection_ordering),
    "2.5": ("dilation-identity", _check_dilation_identity),
    "2.6": ("ground-level-limit", _check_ground_level_limit),
    "3.2": ("nonlocal-splitting", _check_nonlocal_splitting),
    "4.4": ("potential-vanishing", _check_potential_vanishing),
    "4.5": ("concentration-maps", _check_concentration_maps),
    "5.1": ("projection-scalars", _check_projection_scalars),
    "5.2": ("linking-region", _check_linking_region),
    "5.4": ("energy-cap", _check_energy_cap),
    "cor2.3": ("threshold-gap", _check_threshold_gap),
}
CHECK_IDS = {cid: name for cid, (name, _) in _CHECKS.items()}
