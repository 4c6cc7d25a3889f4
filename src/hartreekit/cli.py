"""Command-line surface.

Subcommands: constants | bubble-certify | solve-ground | verify <check-id> |
scan-region | homotopy-check | run-all.  Each runs its steps (runner.COMMANDS;
`verify` runs the one check) through `runner.run`, which writes the bundle.

Exit codes: 0 pass, 1 check failure, 2 usage or config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .checks import CHECK_IDS, resolve_check
from .config import load_config
from .errors import HartreeKitError, NumericalError, ParameterError
from .runner import COMMANDS, run

EXIT_PASS = 0
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
    for name, steps in COMMANDS.items():
        sub.add_parser(name, help=f"runs {', '.join(steps)}", parents=[common])
    v = sub.add_parser("verify", help="run one named check", parents=[common])
    v.add_argument("check_id", type=str,
                   help=f"one of {sorted(CHECK_IDS)} or names {sorted(CHECK_IDS.values())}")
    return p


def _apply_overrides(cfg, args):
    kw = {k: getattr(args, k) for k in ("grid_m", "r_max", "seed") if getattr(args, k) is not None}
    return dataclasses.replace(cfg, **kw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except (ParameterError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        steps = ((resolve_check(args.check_id),) if args.command == "verify"
                 else COMMANDS[args.command])
        code = run(cfg, steps, args.out)
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
    for rep in json.loads((Path(args.out) / "report.json").read_text())["reports"]:
        print(f"{rep['check_id']}: {rep['status']}")
    print(f"bundle written to {args.out}; "
          f"{'all checks passed' if code == EXIT_PASS else 'FAILURES present'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
