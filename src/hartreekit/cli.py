"""Command-line surface.

Subcommands: constants | bubble-certify | solve-ground | verify <check-id> |
scan-region | homotopy-check | run-all.

Exit codes: 0 pass, 1 check failure, 2 usage or config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .checks import CHECK_IDS, ensure_scan, homotopy_boundary_check, verify_lemma
from .config import load_config
from .errors import HartreeKitError, NumericalError, ParameterError
from .reporting import write_bundle
from .runner import (
    admissibility_report,
    build_context,
    bubble_certification,
    constants_report,
    ensure_profile,
    run_all,
    solver_report,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="run configuration file")
    common.add_argument("--out", type=str, default="out", help="output directory")
    common.add_argument("--grid-m", type=int, default=None, help="override grid node count")
    common.add_argument("--r-max", type=float, default=None, help="override grid radius")
    common.add_argument("--seed", type=int, default=None, help="override RNG seed")
    p = argparse.ArgumentParser(
        prog="hartreekit",
        description="verification toolkit for the critically coupled Hartree system",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("constants", "constants chain and bubble identities"),
        ("bubble-certify", "residual certification of the bubble amplitude"),
        ("solve-ground", "projected flow for the coupled ground state"),
        ("scan-region", "search the linking region and energy caps"),
        ("homotopy-check", "boundary homotopy non-vanishing"),
        ("run-all", "full verification bundle"),
    ):
        sub.add_parser(name, help=descr, parents=[common])
    v = sub.add_parser("verify", help="run one named check", parents=[common])
    v.add_argument("check_id", type=str,
                   help=f"one of {sorted(CHECK_IDS)} or names {sorted(CHECK_IDS.values())}")
    return p


def _apply_overrides(cfg, args):
    kw = {}
    for name in ("grid_m", "r_max", "seed"):
        if getattr(args, name) is not None:
            kw[name] = getattr(args, name)
    return dataclasses.replace(cfg, **kw)


def _emit(report, out_dir) -> int:
    payload = write_bundle(out_dir, [report], extras={}, runtimes={})
    for row in report.rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"  {status}  {row.label}: {row.value:.6g}")
    print(f"{report.check_id}: {report.status}")
    return EXIT_PASS if payload["all_passed"] else EXIT_CHECK_FAILURE


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except (ParameterError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "run-all":
            code = run_all(cfg, args.out)
            print(f"bundle written to {args.out}; "
                  f"{'all checks passed' if code == 0 else 'FAILURES present'}")
            return code

        ctx = build_context(cfg)
        if args.command == "constants":
            rep = constants_report(ctx)
            Path(args.out).mkdir(parents=True, exist_ok=True)
            (Path(args.out) / "constants.json").write_text(
                json.dumps(ctx.constants.to_dict(), sort_keys=True, indent=2) + "\n"
            )
            return _emit(rep, args.out)
        if args.command == "bubble-certify":
            return _emit(bubble_certification(ctx), args.out)
        if args.command == "solve-ground":
            code = _emit(solver_report(ctx), args.out)
            ctx.flow_diag.write_files(args.out)
            return code
        if args.command == "verify":
            ensure_profile(ctx)
            rep = verify_lemma(args.check_id, ctx)
            return _emit(rep, args.out)
        if args.command == "scan-region":
            ensure_profile(ctx)
            adm = admissibility_report(ctx)
            scan = ensure_scan(ctx)
            rep = verify_lemma("5.2", ctx)
            cap = verify_lemma("5.4", ctx)
            payload = write_bundle(args.out, [adm, rep, cap], extras=scan.to_dict(),
                                   runtimes={})
            print(f"region: {scan.to_dict()}")
            return EXIT_PASS if payload["all_passed"] else EXIT_CHECK_FAILURE
        if args.command == "homotopy-check":
            ensure_profile(ctx)
            return _emit(homotopy_boundary_check(ensure_scan(ctx)), args.out)
        parser.error(f"unknown command {args.command}")
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HartreeKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
