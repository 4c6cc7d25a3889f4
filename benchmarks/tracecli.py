"""Run the hartreekit command line under the layer trace.

    python3 benchmarks/tracecli.py SPANS_FILE OP_ID -- <hartreekit arguments>

Installs the wrappers of layertrace.py, calls hartreekit.cli.main with the
arguments after ``--``, writes the spans to SPANS_FILE as JSON lines and
exits with the command's exit code.  The package is imported from the
PYTHONPATH the caller sets.
"""

import sys

from layertrace import Tracer


def main(argv) -> int:
    spans_file, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracecli.py SPANS_FILE OP_ID -- <hartreekit arguments>")
    tracer = Tracer().install()
    import hartreekit.cli

    tracer.op = op_id
    try:
        return hartreekit.cli.main(cli_args)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
