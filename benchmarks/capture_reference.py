"""Capture benchmarks/reference.json, the checked part of a run-all bundle.

    python3 benchmarks/capture_reference.py

Runs ``hartreekit run-all`` on configs/default.cfg at two seeds, requires
the seed-independent view (run.reference_view) to be identical between
them, and stores it.  Re-capture only when a change is meant to alter those
numbers.
"""

import json
import subprocess
import sys

import run


def capture(seed: int) -> dict:
    out = run.OUT / "reference" / f"seed{seed}"
    cmd = [sys.executable, "-m", "hartreekit", "run-all", "--config", str(run.CONFIG),
           "--out", str(out), "--seed", str(seed)]
    subprocess.run(cmd, env=run.child_env(), cwd=run.ROOT, check=True)
    return run.reference_view(json.loads((out / "report.json").read_text()))


def main() -> int:
    first, second = capture(1), capture(2)
    if first != second:
        print("reference view depends on the seed:", run.agree(first, second, "extras"),
              file=sys.stderr)
        return 1
    doc = {
        "note": ("seed-independent extras of run-all on configs/default.cfg; floats agree "
                 f"within rel {run.REF_REL_TOL:g} / abs {run.REF_ABS_TOL:g}, everything "
                 "else exactly"),
        "view": first,
    }
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
