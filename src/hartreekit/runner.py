"""End-to-end verification run: constants, certification, checks, report bundle."""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from .bubbles import (
    coupling_constants,
    ground_pair,
    make_bubble,
    make_constants_table,
    make_trial_profile,
)
from .checks import (
    CHECK_IDS,
    VerifyContext,
    check_A3,
    choose_a_and_cbar,
    homotopy_boundary_check,
    lambda_sweep,
    verify_lemma,
)
from .energy import Problem, pohozaev_residual, weak_residual
from .flow import solve_limit_ground_state
from .grids import Pair, RadialFn, dirichlet_seminorm, make_grid
from .reporting import LemmaReport, write_bundle
from .riesz import double_energy


def build_context(cfg) -> VerifyContext:
    grid = cfg.build_grid()
    constants = make_constants_table(cfg.N, grid)
    cc = coupling_constants(cfg.mu1, cfg.mu2, cfg.beta, constants.s_hl_sq)
    prob = cfg.build_problem(grid)
    return VerifyContext(
        grid=grid, constants=constants, cc=cc, prob=prob,
        c_star_lower=(1.0 + cfg.c_star_margin) * cc.c_inf,
        rng_seed=cfg.seed, flow=cfg.flow,
    )


def ensure_profile(ctx: VerifyContext, cfg) -> None:
    if ctx.profile is None:
        rep = check_A3(ctx.prob, ctx.constants)
        if rep.satisfied():
            _, cbar = choose_a_and_cbar(ctx.prob, ctx.constants,
                                        c_star_lower=ctx.c_star_lower)
        else:
            # no admissible cap from the potentials; certify against the
            # default proxy window so the trial machinery stays usable
            cbar = ctx.cc.c_inf + 0.5 * (ctx.c_star_lower - ctx.cc.c_inf)
        profile_grid = make_grid(cfg.N, cfg.profile_m, 1.0, 1.0)
        ctx.profile = make_trial_profile(
            cfg.support_fraction, ctx.cc, cbar, profile_grid,
            ctx.constants.bubble_norm, moll_cells=cfg.moll_cells,
        )


def constants_report(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("constants", "constants chain and bubble energy identities")
    tbl = ctx.constants
    rep.require(
        "definitional chain: s_hl^2 * hls - sobolev^2",
        tbl.s_hl_sq * tbl.hls - tbl.sobolev**2,
        tol=1e-12 * tbl.sobolev**2,
    )
    U = make_bubble(1.0, ctx.grid).profile_on(ctx.grid)
    grad = dirichlet_seminorm(U)
    d4 = double_energy(U.squared(), U.squared())
    rep.require("bubble Dirichlet energy vs s_hl^2", grad, target=tbl.s_hl_sq, tol=1e-3)
    rep.require("bubble double energy vs s_hl^2", d4, target=tbl.s_hl_sq, tol=1e-3)
    rep.require("double energy vs Dirichlet energy", d4, target=grad, tol=1e-4)
    rep.info("bubble normalization", tbl.bubble_norm)
    return rep


def bubble_certification(ctx: VerifyContext) -> LemmaReport:
    """Certify the bubble amplitude against the scalar limit equation.

    A pair (U, 0) under unit self-coupling reduces the system to the scalar
    equation -Lap u = (|x|^-4 * u^2) u, so its dual-norm residual measures
    that equation directly.
    """
    rep = LemmaReport("bubble-certify",
                      "weak residual certification of the bubble amplitude")
    grid = ctx.grid
    prob_scalar = Problem(N=grid.N, mu1=1.0, mu2=1.0, beta=2.0)
    U = make_bubble(1.0, grid).profile_on(grid)
    zero = RadialFn(grid, np.zeros(grid.M))
    res = weak_residual(Pair(U, zero), prob_scalar)
    rep.require("scalar-equation residual at the certified amplitude", res, tol=1e-3)
    res_bad = weak_residual(Pair(2.0 * U, zero), prob_scalar)
    rep.lower_bound("doubled amplitude is rejected", res_bad, bound=0.0, tol=0.1,
                    note="negative control; residual must exceed 0.1")
    U2 = make_bubble(2.0, grid).profile_on(grid)
    res2 = weak_residual(Pair(U2, zero), prob_scalar)
    rep.require("rescaled bubble keeps the residual", res2, tol=1e-3)
    gp = ground_pair(1.0, 0.0, ctx.cc, grid)
    res_pair = weak_residual(gp, Problem.limit(grid.N, ctx.cc))
    rep.require("coupled ground pair built on the amplitude", res_pair, tol=1e-3)
    return rep


def solver_report(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("solve-ground", "projected flow reaches the coupled ground state")
    diag = ctx.flow_diag = solve_limit_ground_state(ctx.cc, ctx.flow, ctx.grid)
    rep.require("weak residual at the final iterate", diag.residual,
                tol=ctx.flow.residual_tolerance)
    rep.require("iterations within budget", float(diag.iterations),
                bound=float(ctx.flow.max_iterations) + 0.5, tol=0.0)
    rep.require("final energy vs the limit level", diag.energy,
                target=ctx.cc.c_inf, tol=1e-3)
    ratio = math.sqrt(ctx.cc.k2 / ctx.cc.k1)
    rep.require("bulk amplitude ratio", diag.amplitude_ratio, target=ratio, tol=1e-3)
    _, gap = pohozaev_residual(diag.final, Problem.limit(ctx.grid.N, ctx.cc))
    rep.require("dilation identity gap at the final iterate", gap, tol=1e-3)
    rep.info("verdict", 1.0 if diag.converged else 0.0, note=diag.verdict)
    rep.info("fitted dilation", diag.fitted_delta)
    rep.info("shape error after rescaling", diag.shape_error)
    return rep


def admissibility_report(ctx: VerifyContext) -> LemmaReport:
    rep = LemmaReport("admissibility", "potential-smallness condition and the energy cap")
    adm = check_A3(ctx.prob, ctx.constants)
    rep.info("V1 norm", adm.v1_norm)
    rep.info("V2 norm", adm.v2_norm)
    rep.info("plain-convention margin", adm.margin_plain)
    rep.info("scaled-convention margin", adm.margin_scaled)
    rep.require("conventions agree on satisfaction",
                float(adm.satisfied_plain == adm.satisfied_scaled), target=1.0, tol=0.0)
    rep.require("condition satisfied", float(adm.satisfied()), target=1.0, tol=0.0)
    if adm.satisfied():
        a, cbar = choose_a_and_cbar(ctx.prob, ctx.constants, c_star_lower=ctx.c_star_lower)
        rep.require("cap exponent lies in (0, 1)", a, bound=1.0, tol=0.0)
        rep.info("cap value", cbar)
        chain = min(ctx.cc.m1_inf, ctx.cc.m2_inf, 2.0 * ctx.cc.c_inf)
        rep.require("cap chain: 2^(1-a) c_inf below the scalar-level minimum",
                    2.0 ** (1.0 - a) * ctx.cc.c_inf, bound=chain + 1e-12, tol=0.0)
    return rep


def run_all(cfg, out_dir) -> int:
    """Execute the full verification bundle; returns a process exit code."""
    t_all = time.time()
    runtimes = {}
    reports = []

    def run_step(fn, *args):
        t0 = time.time()
        rep = fn(*args)
        rep.runtime = time.time() - t0
        runtimes[rep.check_id] = rep.runtime
        reports.append(rep)

    ctx = build_context(cfg)
    run_step(constants_report, ctx)
    run_step(bubble_certification, ctx)
    run_step(admissibility_report, ctx)
    ensure_profile(ctx, cfg)
    for cid in CHECK_IDS:
        run_step(verify_lemma, cid, ctx)
    run_step(homotopy_boundary_check, ctx.scan)
    run_step(solver_report, ctx)

    extras = {
        "constants": ctx.constants.to_dict(),
        "couplings": ctx.cc.to_dict(),
        "admissibility": check_A3(ctx.prob, ctx.constants).to_dict(),
        "trial_profile": {
            "sigma": ctx.profile.sigma,
            "energy": ctx.profile.energy,
            "inner_scale": ctx.profile.inner_scale,
            "cbar": ctx.profile.cbar,
        },
        "region": ctx.scan.to_dict() if ctx.scan is not None else None,
        "config": {
            "seed": cfg.seed,
            "grid_m": cfg.grid_m, "r_max": cfg.r_max, "stretch": cfg.stretch,
            "mu": [cfg.mu1, cfg.mu2], "beta": cfg.beta,
            "lambda": [cfg.lam1, cfg.lam2],
        },
    }
    if ctx.scan is not None and ctx.scan.found:
        sweep = lambda_sweep(ctx.profile, ctx.scan)
        feasible = [row["lam"] for row in sweep.rows if row["feasible"]]
        extras["lambda_sweep"] = sweep.to_dict()
        extras["empirical_lambda_threshold"] = max(feasible) if feasible else None

    out = Path(out_dir)
    payload = write_bundle(out, reports, extras, runtimes)
    ctx.flow_diag.write_files(out)
    total = time.time() - t_all
    md = out / "report.md"
    md.write_text(md.read_text() + f"\ntotal wall time: {total:.1f}s\n")
    return 0 if payload["all_passed"] else 1
