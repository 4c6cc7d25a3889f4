import dataclasses
import math

import numpy as np
import pytest

from hartreekit import (
    AdmissibilityError,
    ParameterError,
    Problem,
    check_A3,
    choose_a_and_cbar,
    from_callable,
    homotopy_boundary_check,
    lambda_sweep,
    nehari_project,
    scan_region,
    verify_lemma,
)
from hartreekit import checks
from hartreekit.checks import CHECK_IDS, limit_trend


def make_problem(grid, v0, lam=0.1):
    if v0 == 0.0:
        return Problem(N=5, mu1=1.0, mu2=2.0, beta=3.0, lam1=lam, lam2=lam)
    V = from_callable(grid, lambda r: v0 * (1.0 + r**2) ** -2.0, p_tail=4.0, c_tail=v0)
    return Problem(N=5, mu1=1.0, mu2=2.0, beta=3.0, lam1=lam, lam2=lam, V1=V, V2=V)


def test_limit_trend_semantics():
    assert limit_trend([1.0, 0.5, 0.2, 0.05])
    assert not limit_trend([1.0, 0.5, 0.2, 0.15])        # final too large
    assert not limit_trend([1.0, 1.2, 0.2, 0.05])        # non-monotone beyond jitter
    assert limit_trend([1.0, 1.02, 0.2, 0.05])           # within jitter
    assert limit_trend([0.0, 0.0, 0.0])


def test_check_a3_zero_potential(grid, constants):
    rep = check_A3(make_problem(grid, 0.0), constants)
    assert rep.left_plain == 0.0
    assert not rep.nonzero
    assert not rep.satisfied_plain and not rep.satisfied_scaled


def test_check_a3_small_potential_satisfied(grid, constants):
    rep = check_A3(make_problem(grid, 0.1), constants)
    assert rep.satisfied_plain and rep.satisfied_scaled
    assert rep.margin_plain > 0 and rep.margin_scaled > 0
    # left side tracks the known L^{5/2} norm of the inverse-square profile
    assert abs(rep.v1_norm - 0.1 * 0.98746078133372893) <= 1e-6


def test_check_a3_large_potential_fails(grid, constants):
    rep = check_A3(make_problem(grid, 100.0), constants)
    assert not rep.satisfied_plain and not rep.satisfied_scaled
    assert rep.margin_plain < 0


def test_check_a3_conventions_equivalent(grid, constants):
    # the two conventions are global rescalings of each other, so they agree
    # on satisfaction at every amplitude
    for v0 in (0.05, 0.5, 1.0, 1.2, 2.0, 100.0):
        rep = check_A3(make_problem(grid, v0), constants)
        assert rep.satisfied_plain == rep.satisfied_scaled
        assert rep.margin_scaled == pytest.approx(
            rep.margin_plain * constants.hls**-0.5, rel=1e-12
        )


def test_choose_a_matches_closed_form(grid, constants, c_star_lower):
    prob = make_problem(grid, 0.1)
    rep = check_A3(prob, constants)
    a, cbar = choose_a_and_cbar(prob, constants, c_star_lower)
    mf = min(math.sqrt(7.0 / 3.0), math.sqrt(7.0 / 6.0), math.sqrt(2.0))
    a_closed = 1.0 + 2.0 * math.log(
        (rep.left_plain / constants.sobolev + 1.0) / mf
    ) / math.log(2.0)
    assert abs(a - a_closed) <= 1e-9
    assert 0 < a < 1


def test_choose_a_monotone_f(grid, constants):
    prob = make_problem(grid, 0.1)
    mf = min(math.sqrt(7.0 / 3.0), math.sqrt(7.0 / 6.0), math.sqrt(2.0))
    S = constants.sobolev
    ts = np.linspace(0, 1, 21)
    f = 2.0 ** (-(1 - ts) / 2.0) * mf * S - S
    assert np.all(np.diff(f) > 0)
    assert f[-1] > 0


def test_choose_a_cap_window(grid, constants, cc, c_star_lower):
    prob = make_problem(grid, 0.1)
    a, cbar = choose_a_and_cbar(prob, constants, c_star_lower)
    assert cc.c_inf < cbar
    assert cbar <= min(0.5 * (c_star_lower + cc.c_inf), 2 ** (1 - a) * cc.c_inf)
    assert 2 ** (1 - a) * cc.c_inf <= min(cc.m1_inf, cc.m2_inf, 2 * cc.c_inf) + 1e-12


def test_choose_a_rejects_inadmissible(grid, constants, c_star_lower):
    with pytest.raises(AdmissibilityError):
        choose_a_and_cbar(make_problem(grid, 100.0), constants, c_star_lower)


@pytest.fixture(scope="module")
def scan(trial_profile, problem, c_star_lower):
    return scan_region(trial_profile, problem, c_star_lower)


def test_scan_finds_region(scan):
    assert scan.found, scan.failure
    assert scan.delta1 < 0.5 < scan.delta2
    assert scan.rbar > 0


def test_scan_gamma_levels(scan):
    inner = [r["gamma"] for r in scan.boundary_rows("inner_face")]
    outer = [r["gamma"] for r in scan.boundary_rows("outer_face")]
    assert max(inner) < 0.5
    assert min(outer) > 0.5


def test_scan_boundary_energy_cap(scan):
    assert scan.boundary_sup_energy < scan.cbar


def test_scan_kappa_below_threshold(scan):
    assert scan.kappa < scan.threshold
    assert scan.threshold - scan.kappa > 0.05


def test_scan_gamma_trend_matches_limits(scan, trial_profile, cc):
    # concentration map rises from the inner to the outer dilation face
    from hartreekit import barycenter, trial_pair

    gammas = [barycenter(trial_pair(trial_profile, d, 0.0),
                         cc.mu1, cc.mu2, cc.beta)[1]
              for d in np.geomspace(scan.delta1, scan.delta2, 6)]
    assert gammas[0] < 0.5 < gammas[-1]
    assert all(a < b for a, b in zip(gammas[:-1], gammas[1:]))


def test_scan_negative_control_shrunken_radius(trial_profile, problem, c_star_lower, scan,
                                               monkeypatch):
    # a radius below the certified one must fail the boundary constraints
    monkeypatch.setattr(checks, "RBAR_CANDIDATES", (scan.rbar / 16.0,))
    bad = scan_region(trial_profile, problem, c_star_lower)
    assert not bad.found


def eager_scan(profile, prob):
    """Reference region scan: every face test evaluates all its rows, then decides.

    It reads the scan constants of `checks` when called, so a test that
    patches them patches both scans."""
    cc = profile.cc
    margin = checks.GAMMA_MARGIN
    cap = profile.cbar - checks.ENERGY_MARGIN * (profile.cbar - cc.c_inf)
    nb = checks.BOUNDARY_SAMPLES
    samples = checks.TrialSamples(profile, prob)   # shared by the maps for the overlaps only
    cache = {}

    def maps(d, rho):
        key = (round(float(d), 12), round(float(rho), 12))
        if key not in cache:
            cache[key] = (checks._shape_maps(samples, float(d), float(rho))
                          + checks._energy_maps(samples, float(d), float(rho)))
        return cache[key]

    def face_ok(d, rhos, lo):
        rows = [maps(d, rho) for rho in rhos]
        side = [g < 0.5 - margin if lo else g > 0.5 + margin
                for g, *_ in rows]
        return all(side) and all([e0 < cap for *_, e0, _ in rows])

    out = {"found": False, "delta1": math.nan, "delta2": math.nan, "rbar": math.nan,
           "kappa": math.nan, "rows": []}
    delta1 = next((d for d in checks.DELTA1_CANDIDATES
                   if d < 0.5 and face_ok(d, checks.Y_PROBE, True)), None)
    if delta1 is None:
        return dict(out, failure="no inner dilation face with concentration below 1/2")
    out["delta1"] = delta1
    for rb in checks.RBAR_CANDIDATES:
        rb = float(rb)
        rhos = np.linspace(0.0, rb * 0.999, nb)
        if not face_ok(delta1, rhos, True):
            continue
        d2 = next((float(d) for d in checks.DELTA2_CANDIDATES
                   if d > 0.5 and face_ok(float(d), rhos, False)), None)
        if d2 is None:
            continue
        if all([maps(d, rb)[4] < cap for d in np.geomspace(delta1, d2, nb)]):
            break
    else:
        return dict(out, failure="no (radius, outer dilation) combination satisfies "
                                 "the boundary constraints on the dense lattice")
    lattice = [(piece, d, rho) for rho in np.linspace(0.0, rb * 0.999, nb)
               for piece, d in (("inner_face", delta1), ("outer_face", d2))]
    lattice += [("offset_face", d, rb) for d in np.geomspace(delta1, d2, nb)]
    lattice += [("interior", d, rho)
                for d in np.geomspace(delta1, d2, checks.INTERIOR_DELTA_SAMPLES)
                for rho in np.linspace(0.0, rb * 0.98, checks.INTERIOR_Y_SAMPLES)]
    names = ("gamma", "xi_axial", "t0", "t_lam", "i0_hat", "i_tilde")
    rows = [dict(piece=piece, delta=float(d), rho=float(rho), **dict(zip(names, maps(d, rho))))
            for piece, d, rho in lattice]
    boundary = max(r["i0_hat"] for r in rows if r["piece"] != "interior")
    return dict(out, found=boundary < profile.cbar, delta2=d2, rbar=rb, rows=rows,
                kappa=max(r["i0_hat"] for r in rows),
                failure="" if boundary < profile.cbar
                else "boundary energy cap violated on the sampled lattice")


@pytest.fixture
def count_maps(monkeypatch):
    """The (delta, rho) of every shape-map and every energy-map call, in call order.

    A hook that is never called fails the test, so the counts cannot go
    vacuous if the scan stops reaching the maps by these names."""
    calls = {"shape": [], "energy": []}
    for kind in calls:
        name = f"_{kind}_maps"
        inner = getattr(checks, name)

        def counted(*args, inner=inner, log=calls[kind]):
            log.append(args[-2:])
            return inner(*args)

        monkeypatch.setattr(checks, name, counted)
    yield calls
    assert all(calls.values()), {kind: len(log) for kind, log in calls.items()}


@pytest.mark.parametrize("shrink", [None, 16.0])
def test_scan_matches_the_eager_reference(trial_profile, problem, c_star_lower, scan,
                                          count_maps, monkeypatch, shrink):
    # the default constants and the shrunken-radius negative control
    if shrink is not None:
        monkeypatch.setattr(checks, "RBAR_CANDIDATES", (scan.rbar / shrink,))
    lazy = scan_region(trial_profile, problem, c_star_lower)
    lazy_maps = {kind: len(log) for kind, log in count_maps.items()}
    ref = eager_scan(trial_profile, problem)
    assert (lazy.found, lazy.failure) == (ref["found"], ref["failure"])
    for key in ("delta1", "delta2", "rbar", "kappa"):
        assert repr(getattr(lazy, key)) == repr(ref[key]), key
    assert lazy.samples.rows == ref["rows"]
    assert lazy.found == (shrink is None)
    # the early stop evaluates fewer members than the eager reference; the
    # default scan records 131 samples from at most 212 shape maps and 255
    # energy maps (722 of each when eager)
    for kind, log in count_maps.items():
        assert 0 < lazy_maps[kind] < len(log) - lazy_maps[kind], kind
    if shrink is None:
        assert len(lazy.samples.rows) == 131
        assert lazy_maps["shape"] <= 212 and lazy_maps["energy"] <= 255


def test_scan_face_test_stops_at_its_first_failing_sample(trial_profile, problem,
                                                          c_star_lower, count_maps,
                                                          monkeypatch):
    # no concentration can sit below 1/2 - 1/2, so each inner-face candidate
    # fails at its first probed offset: one shape map and no energy map
    monkeypatch.setattr(checks, "DELTA1_CANDIDATES", (0.4, 0.3))
    monkeypatch.setattr(checks, "GAMMA_MARGIN", 0.5)
    lazy = scan_region(trial_profile, problem, c_star_lower)
    assert not lazy.found
    assert count_maps == {"shape": [(0.4, 0.0), (0.3, 0.0)], "energy": []}
    ref = eager_scan(trial_profile, problem)
    assert ref["failure"] == lazy.failure
    assert len(count_maps["shape"]) == 2 + 2 * len(checks.Y_PROBE)
    assert len(count_maps["energy"]) == 2 * len(checks.Y_PROBE)


def test_run_memo_scan_matches_a_fresh_scan(context, scan, count_maps):
    # the context's memo already holds 4.4's, 4.5's and 5.1's samples when
    # the scan runs; the scan reads them and computes only the missing ones
    ctx = dataclasses.replace(context, scan=None)
    for cid in ("4.4", "4.5", "5.1"):
        verify_lemma(cid, ctx)
    before = {kind: len(log) for kind, log in count_maps.items()}
    shared = checks.ensure_scan(ctx)
    assert ctx.samples is checks.trial_samples(ctx)
    assert shared.samples.rows == scan.samples.rows
    assert shared.to_dict() == scan.to_dict()
    # no sample is computed twice, and the scan computes at most its own maps
    for kind, log in count_maps.items():
        keys = [(round(d, 12), round(rho, 12)) for d, rho in log]
        assert len(set(keys)) == len(keys), kind
    assert len(count_maps["shape"]) - before["shape"] <= 212
    assert len(count_maps["energy"]) - before["energy"] <= 255


def test_scan_rejects_a_memo_of_another_problem(trial_profile, problem, c_star_lower, grid):
    other = checks.TrialSamples(trial_profile, make_problem(grid, 0.1))
    with pytest.raises(ParameterError, match="memo"):
        scan_region(trial_profile, problem, c_star_lower, samples=other)


def test_projection_ordering_reads_one_breakdown_per_pair(context):
    # tau and t from the one breakdown are nehari_project's, bit for bit
    free = Problem.limit(context.grid.N, context.cc)
    pairs = list(checks._ordering_pairs(context.grid, context.rng_seed))
    assert len(pairs) == 50
    for pair in pairs:
        tau, t, br = checks._ordering_scales(pair, context.prob)
        assert tau == nehari_project(pair, free)[0]
        assert t == nehari_project(pair, context.prob)[0]
        assert br.potential > 0.0


def test_homotopy_clearances(scan):
    rep = homotopy_boundary_check(scan)
    assert rep.passed
    for row in rep.rows[:3]:
        assert row.value > 0


def test_homotopy_time_is_checked_exactly(scan):
    # each clearance is affine in the homotopy time s, so the check's two ends
    # give, bit for bit, its minimum over 1001 samples of s in [0, 1]
    s = np.linspace(0.0, 1.0, 1001)
    inner = min(np.min(0.5 - ((1.0 - s) * scan.delta1 + s * row["gamma"]))
                for row in scan.boundary_rows("inner_face"))
    outer = min(np.min(((1.0 - s) * scan.delta2 + s * row["gamma"]) - 0.5)
                for row in scan.boundary_rows("outer_face"))
    offset = min(np.min((1.0 - s) * scan.rbar**2 + s * row["xi_axial"] * scan.rbar)
                 for row in scan.boundary_rows("offset_face"))
    rep = homotopy_boundary_check(scan)
    assert [row.value for row in rep.rows[:3]] == [inner, outer, offset]
    assert min(inner, outer, offset) > 0.0


def test_lambda_sweep_monotone(trial_profile, scan):
    tbl = lambda_sweep(trial_profile, scan)
    flags = [bool(r["feasible"]) for r in tbl.rows]
    assert flags == sorted(flags)  # infeasible at large shifts, feasible at small
    assert any(flags), "expected a feasible shift at the bottom of the sweep"


def test_lambda_sweep_requires_scan(trial_profile):
    from hartreekit import RegionScan

    empty = RegionScan(delta1=1, delta2=2, rbar=1, cbar=1.51, c_star_lower=1.53,
                       kappa=0, s_tilde=0, threshold=1.75,
                       boundary_sup_energy=0, found=False, failure="x")
    with pytest.raises(ParameterError):
        lambda_sweep(trial_profile, empty)


def test_verify_lemma_unknown_id(context):
    with pytest.raises(ParameterError):
        verify_lemma("9.9", context)


def test_verify_lemma_accepts_names(context):
    rep = verify_lemma("projection-ordering", context)
    assert rep.check_id == "2.2"
    assert rep.passed


@pytest.mark.parametrize("cid", sorted(CHECK_IDS))
def test_named_checks_pass(cid, context):
    rep = verify_lemma(cid, context)
    assert rep.passed, [(r.label, r.value) for r in rep.rows if not r.passed]
    for row in rep.rows:
        if row.note != "informational":
            assert row.tol is not None  # every gated row carries its tolerance


def test_c_star_lower_follows_the_margin(monkeypatch):
    # the margin reaches the cap choice and the value the region scan records;
    # an empty inner-face candidate list keeps the scan to its set-up
    from hartreekit import runner
    from hartreekit.config import RunConfig

    monkeypatch.setattr(runner, "C_STAR_MARGIN", 0.05)
    ctx = runner.build_context(RunConfig())
    assert ctx.c_star_lower == pytest.approx(1.05 * ctx.cc.c_inf, rel=1e-15)
    runner.ensure_profile(ctx)
    _, cbar = choose_a_and_cbar(ctx.prob, ctx.constants, c_star_lower=ctx.c_star_lower)
    assert ctx.profile.cbar == cbar
    monkeypatch.setattr(checks, "DELTA1_CANDIDATES", ())
    verify_lemma("5.2", ctx)
    assert ctx.scan.to_dict()["c_star_lower"] == ctx.c_star_lower
