"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Defaults throughout: dimension 5, the 400-node reference grid, couplings
(1, 2, 3), inverse-square potentials at amplitude 0.1, mass shifts 0.1.
"""

import math
import subprocess
import sys

import numpy as np

from hartreekit import (
    FlowConfig,
    Pair,
    Problem,
    RadialFn,
    barycenter,
    brezis_lieb_check,
    bubble_profile,
    coupling_constants,
    dirichlet_seminorm,
    double_energy,
    energy_I,
    from_callable,
    ground_pair,
    homotopy_boundary_check,
    integrate,
    make_grid,
    nehari_project,
    pohozaev_residual,
    quotient_infimum,
    scan_region,
    solve_limit_ground_state,
    vanishing_energy_limit,
)
from hartreekit.checks import TrialSamples
from hartreekit.runner import bubble_certification

from conftest import explicit_trial_pair


def record(num, label, ok):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_constants_chain(grid, constants):
    chain = abs(constants.s_hl_sq * constants.hls - constants.sobolev**2)
    ok = chain <= 1e-12 * constants.sobolev**2
    U = bubble_profile(1.0, grid)
    d4 = double_energy(U.squared(), U.squared())
    grad = dirichlet_seminorm(U)
    s2 = constants.s_hl_sq
    ok = ok and abs(d4 - s2) <= 1e-3 * s2 and abs(grad - s2) <= 1e-3 * s2
    ok = ok and abs(d4 - grad) <= 1e-3 * s2
    record(1, "constants chain and bubble energy identities", ok)


def test_criterion_02_bubble_certification(context):
    rep = bubble_certification(context)
    record(2, "bubble residual certification with negative control", rep.passed)


def test_criterion_03_algebraic_identities(constants):
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        mu1, mu2 = rng.uniform(0.2, 5.0, 2)
        beta = max(mu1, mu2) * rng.uniform(1.01, 5.0)
        cc = coupling_constants(mu1, mu2, beta, constants.s_hl_sq)
        ok = ok and abs(cc.identity_defect()) <= 1e-12 * cc.k_sum
        t_star, val = quotient_infimum(mu1, mu2, beta)
        ok = ok and abs(val - cc.k_sum) <= 1e-10 * cc.k_sum
    record(3, "coupling identity and quotient infimum over 100 random triples", ok)


def test_criterion_04_ground_pair_levels(grid, constants):
    rng = np.random.default_rng(99)
    triples = [(1.0, 2.0, 3.0)]
    for _ in range(10):
        mu1, mu2 = rng.uniform(0.3, 3.0, 2)
        triples.append((mu1, mu2, max(mu1, mu2) * rng.uniform(1.05, 4.0)))
    ok = True
    for mu1, mu2, beta in triples:
        cc = coupling_constants(mu1, mu2, beta, constants.s_hl_sq)
        gp = ground_pair(1.0, 0.0, cc, grid)
        total = energy_I(gp, Problem.limit(5, cc)).total
        ok = ok and abs(total - cc.c_inf) <= 1e-3 * cc.c_inf
        ok = ok and cc.c_inf < min(cc.m1_inf, cc.m2_inf)
    record(4, "ground pair level and strict threshold gap on 11 triples", ok)


def test_criterion_05_solver(grid, cc, free_problem):
    diag = solve_limit_ground_state(cc, FlowConfig(), grid)
    ok = diag.iterations <= 5000 and diag.residual < 1e-3
    ok = ok and abs(diag.amplitude_ratio - math.sqrt(2.0)) <= 1e-3 * math.sqrt(2.0)
    _, gap = pohozaev_residual(diag.final, free_problem)
    ok = ok and gap < 1e-3
    record(5, "projected flow: residual, bulk ratio, dilation identity", ok)


def test_criterion_06_projection_ordering(grid, problem, free_problem):
    rng = np.random.default_rng(1234)
    violations = 0
    for _ in range(50):
        a1, a2 = rng.uniform(0.3, 2.0, 2)
        w1, w2 = rng.uniform(0.5, 3.0, 2)
        pair = Pair(
            RadialFn(grid, a1 * np.exp(-((grid.r / w1) ** 2))),
            RadialFn(grid, a2 * np.exp(-((grid.r / w2) ** 2))),
        )
        tau, _ = nehari_project(pair, free_problem)
        t, _ = nehari_project(pair, problem)
        violations += tau > t
    record(6, "free projection below weighted projection on 50 random pairs",
           violations == 0)


def test_criterion_07_vanishing_limits(grid, problem, constants):
    deltas = [1.0, 0.3, 0.1, 0.03]
    ok = True
    for j in (1, 2):
        tbl = vanishing_energy_limit(problem, j, deltas, grid)
        pm = tbl.column("potential_mass")
        ok = ok and all(a > b for a, b in zip(pm[:-1], pm[1:])) and pm[-1] < 0.1 * pm[0]
        mu = problem.mu1 if j == 1 else problem.mu2
        target = constants.s_hl_sq / (4.0 * mu)
        ok = ok and abs(tbl.column("energy")[-1] - target) <= 1e-3 * target
    # shift-only rows follow the dilation law: with no V, the potential term
    # energy_I computes under the dilated problem is lam delta^2 ||U_1||_2^2
    lam_only = Problem(N=5, mu1=1.0, mu2=2.0, beta=3.0, lam1=0.1, lam2=0.1)
    tbl = vanishing_energy_limit(lam_only, 1, deltas, grid)
    l2 = integrate(bubble_profile(1.0, grid).squared())
    for row in tbl.rows:
        law = 0.1 * row["delta"] ** 2 * l2
        ok = ok and abs(row["potential_mass"] - law) <= 1e-6 * law
    record(7, "scalar concentration family: mass decay, level, dilation law", ok)


def test_criterion_08_nonlocal_splitting(grid):
    gauss = from_callable(grid, lambda r: np.exp(-((r / 2.0) ** 2)))
    bprof = bubble_profile(1.0, grid)
    fine = make_grid(5, 640, 40.0, 1.025)
    tbl = brezis_lieb_check(gauss, bprof, [1.0, 0.3, 0.1], fine)
    ok = True
    for col in ("self_error", "mixed_error"):
        vals = tbl.column(col)
        ok = ok and all(a > b for a, b in zip(vals[:-1], vals[1:]))
        ok = ok and vals[-1] < 0.1 * vals[0]
    stat = brezis_lieb_check(gauss, bprof, [1.0] * 3, fine)
    sv = stat.column("self_error")
    ok = ok and max(sv) - min(sv) <= 1e-10 * max(sv)
    record(8, "nonlocal splitting decays; stationary control constant", ok)


def test_criterion_09_barycenter_machinery(grid, cc, trial_profile):
    gp = ground_pair(1.0, 0.0, cc, grid)
    xi0, _ = barycenter(gp, cc.mu1, cc.mu2, cc.beta)
    ok = xi0 == 0.0
    pair = explicit_trial_pair(trial_profile, 0.5, 2.0)
    xi, gamma = barycenter(pair, cc.mu1, cc.mu2, cc.beta)
    for t in (0.5, 2.0):
        xi_t, gamma_t = barycenter(pair.scale(t), cc.mu1, cc.mu2, cc.beta)
        ok = ok and abs(xi_t - xi) <= 1e-12 * max(abs(xi), 1.0)
        ok = ok and abs(gamma_t - gamma) <= 1e-12 * max(gamma, 1.0)
    for rho in (0.0, 1.0, 3.0):
        g_small = barycenter(explicit_trial_pair(trial_profile, 0.01, rho),
                             cc.mu1, cc.mu2, cc.beta)[1]
        ok = ok and g_small < 0.04
        g_large = barycenter(explicit_trial_pair(trial_profile, 1000.0, rho),
                             cc.mu1, cc.mu2, cc.beta)[1]
        ok = ok and abs(1.0 - g_large) < 0.05
    for d in (0.1, 0.3, 1.0, 3.0, 10.0, 30.0):
        for rho in (0.5, 1.0, 2.0, 4.0, 8.0):
            xi, _ = barycenter(explicit_trial_pair(trial_profile, d, rho), cc.mu1, cc.mu2, cc.beta)
            ok = ok and xi * rho > 0
    record(9, "barycenter maps: symmetry, invariance, limits, axis positivity", ok)


def test_criterion_10_region_and_bounds(trial_profile, problem, c_star_lower):
    scan = scan_region(TrialSamples(trial_profile, problem), c_star_lower)
    ok = scan.found
    ok = ok and scan.boundary_sup_energy < scan.cbar
    ok = ok and scan.kappa < scan.threshold and (scan.threshold - scan.kappa) > 0
    rep = homotopy_boundary_check(scan)
    ok = ok and rep.passed and all(r.value > 0 for r in rep.rows[:3])
    record(10, "linking region, energy caps, homotopy clearances", ok)


def test_criterion_11_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "hartreekit", "run-all",
             "--out", str(out), "--seed", "31415"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append((out / "report.json").read_bytes())
    record(11, "repeated runs produce byte-identical machine reports",
           outs[0] == outs[1])
