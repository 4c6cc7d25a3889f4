"""Benchmark of hartreekit: three closed-loop workloads, one client each.

    python3 benchmarks/run.py --workload run-all --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 1      # every metric of every workload

Workloads (the seed is the only input; the program receives the inputs drawn
from it):

- run-all: each op is a fresh child process running ``hartreekit run-all``
  on configs/default.cfg with ``--seed``.  Nothing is warmed first.
- resolution-ladder: each op is one level of the --grid-m convergence study
  (build_context, constants_report, bubble_certification, solver_report on
  a fresh grid), over M = 320..800 in steps of 30 in a seed-permuted order.
- ground-sweep: each op is one solver_report on a prebuilt M=400 grid at
  seed-drawn couplings and start widths, residual tolerance 1e-4.

A run-all or ground-sweep run measures whole ops while the next op is
projected to end within --seconds, and at least one; a ladder run is one
full pass.  Every op's output is checked.  Times are also reported scaled to
a reference machine speed measured beside the work (SpeedSampler).  The last
stdout line is the JSON result; the lines above it name every metric with
its unit and record the environment.  With ``--trace 1`` the timed ops run
under the outside-in layer trace of layertrace.py, a fixed number of them so
counts repeat, and the result holds the per-layer metrics; trace.overhead_s
comes from an untraced child run of the same ops.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "default.cfg"
REFERENCE = BENCH_DIR / "reference.json"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0           # a run must end within 180 s
PROBE_REF_S = 0.0015         # probe CPU time that defines the reference speed
PROBE_EVERY_S = 0.1          # sampling period of the speed probe
SETUP_ATTEMPTS = 3
LADDER = list(range(320, 801, 30))
SWEEP_TOLERANCE = 1e-4
# beta / max(mu1, mu2) is drawn from [BETA_FACTOR_MIN, 3]; closer to 1 the solve
# can miss the amplitude-ratio gate or its iteration budget (NOTES.md)
BETA_FACTOR_MIN = 1.5
# start widths are drawn from [WIDTH_MIN, 4]; with both widths below about 0.37
# the flow stalls at residual 5e-4 and runs its whole budget (NOTES.md)
WIDTH_MIN = 0.5
# relative tolerance on the seed-independent extras of report.json; discrete
# outcomes (scan decisions, feasibility flags, the flow's stopping iteration)
# must match exactly
REF_REL_TOL = 1e-9
REF_ABS_TOL = 1e-12

HASH_SEED = "0"
# at most 2 BLAS threads, set before numpy is imported here or in a child
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


class SetupError(RuntimeError):
    """The program or its inputs are missing; no result is printed."""


class SpeedSampler:
    """The speedprobe.py process, sampling beside the process that does the work.

    This sandbox runs the same code up to 1.8x slower in phases of seconds
    (NOTES.md), and the program's op times follow the probe closely, so each
    op is also reported scaled to the speed at which the probe takes
    PROBE_REF_S.  The probe runs no program code.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "speedprobe.py"), str(PROBE_EVERY_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise SetupError("speed probe did not start")

    def follow(self, pid: int) -> None:
        self.proc.stdin.write(f"{pid}\n")
        self.proc.stdin.flush()

    def close(self) -> list:
        """Stop sampling; returns the (perf_counter, probe seconds) samples."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return [tuple(map(float, line.split())) for line in out.splitlines()]


def probe_around(samples: list, start: float, end: float) -> float:
    """Mean probe time within one sampling period of [start, end], else the nearest."""
    near = [v for t, v in samples if start - PROBE_EVERY_S <= t <= end + PROBE_EVERY_S]
    if near:
        return statistics.fmean(near)
    return min(samples, key=lambda tv: abs(tv[0] - 0.5 * (start + end)))[1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_program():
    """Import hartreekit from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    import hartreekit

    if Path(hartreekit.__file__).resolve().parent != (SRC / "hartreekit").resolve():
        raise SetupError(f"hartreekit imported from {hartreekit.__file__}, not {SRC}")
    return hartreekit


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def reference_view(payload: dict) -> dict:
    """The seed-independent part of a run-all report.json that is checked."""
    extras = payload["extras"]
    view = {k: extras[k] for k in ("constants", "couplings", "admissibility",
                                   "trial_profile", "region", "lambda_sweep")}
    solve = next(r for r in payload["reports"] if r["check_id"] == "solve-ground")
    view["flow_stop_iteration"] = int(next(
        row["value"] for row in solve["rows"] if row["label"] == "iterations within budget"))
    return view


def agree(a, b, path="") -> list:
    """Differences between two JSON values: floats within the tolerance, all else exact."""
    if isinstance(a, float) and isinstance(b, float):
        ok = math.isclose(a, b, rel_tol=REF_REL_TOL, abs_tol=REF_ABS_TOL)
        return [] if ok else [f"{path}: {a!r} != {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{path}: keys {sorted(a)} != {sorted(b)}"]
        return [d for k in a for d in agree(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in agree(x, y, f"{path}[{i}]")]
    return [] if type(a) is type(b) and a == b else [f"{path}: {a!r} != {b!r}"]


def report_failures(payload: dict) -> list:
    bad = [f"{r['check_id']}: {row['label']}" for r in payload["reports"]
           for row in r["rows"] if not row["passed"]]
    if not payload["all_passed"]:
        bad.append("all_passed is false")
    return bad


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    trace_ops = 1          # ops of a traced run
    in_process = True      # False: each op is a child process the probe must follow

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.rng = random.Random(seed)
        self.child_spans: list = []   # span files written by traced child ops

    def setup_once(self) -> None:
        """Work done once per process before the set-up attempts."""

    def setup_attempt(self) -> None:
        """One repetition of the per-run preparation; the last one is used."""

    def rounds(self):
        """Endless sequence of rounds; a round is a list of op inputs."""
        raise NotImplementedError

    def op(self, index: int, item, traced: bool) -> bool:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cpu_s(self) -> float:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime


class RunAll(Workload):
    name = "run-all"
    why = ("the CLI user's end to end: import, four kernel builds, region scan, flow and "
           "bundle write per op; the only workload with a table repeated across grids")
    in_process = False

    def setup_once(self):
        if not CONFIG.exists():
            raise SetupError(f"missing {CONFIG}")
        self.reference = json.loads(REFERENCE.read_text())
        self.first_bundle = None

    def setup_attempt(self):
        proc = subprocess.Popen([sys.executable, "-c", "import hartreekit.cli"],
                                env=child_env(), cwd=ROOT, stderr=subprocess.PIPE, text=True)
        self.sampler.follow(proc.pid)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SetupError("importing hartreekit took over 60 s") from None
        if proc.returncode != 0:
            raise SetupError(f"hartreekit does not import: {err.strip()}")

    def rounds(self):
        while True:
            yield [None]

    def op(self, index, item, traced):
        out = self.out / f"op{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cli = ["run-all", "--config", str(CONFIG), "--out", str(out), "--seed", str(self.seed)]
        if traced:
            spans = self.out / f"spans-op{index}.jsonl"
            cmd = [sys.executable, str(BENCH_DIR / "tracecli.py"), str(spans), str(index), "--"]
            self.child_spans.append(spans)
        else:
            cmd = [sys.executable, "-m", "hartreekit"]
        with open(out / "stdout.txt", "w") as log:
            proc = subprocess.Popen(cmd + cli, env=child_env(), cwd=ROOT,
                                    stdout=log, stderr=subprocess.STDOUT)
            self.sampler.follow(proc.pid)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                print(f"op {index}: killed at the run deadline", file=sys.stderr)
                return False
        if code != 0:
            print(f"op {index}: exit code {code}", file=sys.stderr)
            return False
        raw = (out / "report.json").read_bytes()
        payload = json.loads(raw)
        problems = report_failures(payload)
        if self.first_bundle is None:
            self.first_bundle = raw
        elif raw != self.first_bundle:
            problems.append("report.json differs from the first op of this seed")
        problems += agree(self.reference["view"], reference_view(payload), "extras")
        for p in problems[:10]:
            print(f"op {index}: {p}", file=sys.stderr)
        return not problems

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def cpu_s(self):
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime


class ResolutionLadder(Workload):
    name = "resolution-ladder"
    why = ("the --grid-m convergence study: a fresh grid per level, kernel-table build speed "
           "over 2.5-15 MB of tables, nothing a cache can reuse")
    trace_ops = len(LADDER)

    def setup_once(self):
        import_program()
        from hartreekit.config import load_config

        self.cfg = load_config(CONFIG)
        self.grids = []

    def setup_attempt(self):
        from hartreekit.bubbles import bubble_constant

        # the default-grid amplitude that make_bubble needs; later attempts
        # repeat the same build on an equal grid (default.cfg's M=400 grid),
        # kept alive because the amplitude cache is keyed by id(grid)
        grid = self.cfg.build_grid() if self.grids else None
        self.grids.append(grid)
        bubble_constant(5, grid)

    def rounds(self):
        # one pass: every M once per process, and peak RSS compares like with like
        levels = list(LADDER)
        self.rng.shuffle(levels)
        yield levels

    def op(self, index, m, traced):
        from hartreekit.runner import (
            bubble_certification, build_context, constants_report, solver_report)

        ctx = build_context(dataclasses.replace(self.cfg, grid_m=m))
        reports = [constants_report(ctx), bubble_certification(ctx), solver_report(ctx)]
        failed = [r.check_id for r in reports if not r.passed]
        if failed:
            print(f"op {index} (M={m}): failed {failed}", file=sys.stderr)
        return not failed


class GroundSweep(Workload):
    name = "ground-sweep"
    why = ("many ground-state solves on one prebuilt M=400 grid: the kernel apply side, flow "
           "iterations and the weak residual, bypassing table builds and the scan")
    trace_ops = 24

    def setup_once(self):
        import_program()
        from hartreekit.bubbles import bubble_constant
        from hartreekit.config import load_config

        self.cfg = load_config(CONFIG)
        bubble_constant(5)   # default-grid amplitude used by the dilation fit

    def setup_attempt(self):
        from hartreekit.runner import build_context, solver_report

        ctx = build_context(self.cfg)
        if not solver_report(ctx).passed:    # warm-up solve; builds the Laplacian LU
            raise SetupError("warm-up solve failed")
        self.ctx = ctx

    def rounds(self):
        while True:
            mu1, mu2 = self.rng.uniform(0.5, 2.0), self.rng.uniform(0.5, 2.0)
            beta = max(mu1, mu2) * self.rng.uniform(BETA_FACTOR_MIN, 3.0)
            widths = (self.rng.uniform(WIDTH_MIN, 4.0), self.rng.uniform(WIDTH_MIN, 4.0))
            yield [(mu1, mu2, beta, widths)]

    def op(self, index, item, traced):
        from hartreekit.bubbles import coupling_constants
        from hartreekit.runner import solver_report

        mu1, mu2, beta, widths = item
        ctx = dataclasses.replace(
            self.ctx,
            cc=coupling_constants(mu1, mu2, beta, self.ctx.constants.s_hl_sq),
            flow=dataclasses.replace(self.ctx.flow, residual_tolerance=SWEEP_TOLERANCE,
                                     start_widths=widths),
        )
        rep = solver_report(ctx)
        failed = [row.label for row in rep.rows if not row.passed]
        if failed:
            print(f"op {index} (mu={mu1:.4f},{mu2:.4f} beta={beta:.4f} widths={widths}): "
                  f"failed {failed}", file=sys.stderr)
        return not failed


WORKLOADS = {w.name: w for w in (RunAll, ResolutionLadder, GroundSweep)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(wl: Workload, seconds: float, fixed_ops: int | None, traced: bool = False,
            tracer=None) -> dict:
    """Set up, then time the ops, all beside the speed probe; returns the raw figures."""
    wl.sampler = SpeedSampler()
    try:
        if wl.in_process:
            wl.sampler.follow(os.getpid())
        t0 = time.perf_counter()
        wl.deadline = t0 + DEADLINE_S
        wl.setup_once()
        setup_spans = [(t0, time.perf_counter())]
        for _ in range(SETUP_ATTEMPTS):
            t1 = time.perf_counter()
            wl.setup_attempt()
            setup_spans.append((t1, time.perf_counter()))
        raw = timed_ops(wl, seconds, fixed_ops, traced, tracer)
    finally:
        samples = wl.sampler.close()
    if not samples:
        raise SetupError("the speed probe took no samples")

    def probe(span):
        return probe_around(samples, *span)

    once, *attempts = setup_spans
    raw["setup_s"] = ((once[1] - once[0]) * PROBE_REF_S / probe(once)
                      + statistics.median((b - a) * PROBE_REF_S / probe((a, b))
                                          for a, b in attempts))
    raw["setup_wall_s"] = [b - a for a, b in setup_spans]
    raw["op_probe_s"] = [probe(span) for span in raw.pop("op_spans")]
    raw["peak_rss_mb"] = wl.peak_rss_mb()
    return raw


def timed_ops(wl: Workload, seconds: float, fixed_ops: int | None, traced: bool,
              tracer) -> dict:
    """Run whole rounds while the next one is projected to end within seconds."""
    if tracer is not None:
        tracer.install()
    times, spans, fails, round_times = [], [], 0, []
    cpu0 = wl.cpu_s()
    start = time.perf_counter()
    for items in wl.rounds():
        now = time.perf_counter()
        if fixed_ops is not None:
            if len(times) >= fixed_ops:
                break
            items = items[:fixed_ops - len(times)]
        elif round_times and (now - start + statistics.median(round_times) > seconds
                              or now + statistics.median(round_times) > wl.deadline):
            break
        r0 = now
        for item in items:
            index = len(times)
            if tracer is not None:
                tracer.op = str(index)
            o0 = time.perf_counter()
            try:
                ok = wl.op(index, item, traced)
            except Exception:
                traceback.print_exc()
                ok = False
            o1 = time.perf_counter()
            times.append(o1 - o0)
            spans.append((o0, o1))
            fails += not ok
        round_times.append(time.perf_counter() - r0)
    wall = time.perf_counter() - start
    cpu = wl.cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()
    return {"op_times_s": times, "op_spans": spans, "failed": fails, "wall_s": wall,
            "cpu_s": cpu}


def tail(times: list):
    """(percentile, value): the highest of p90/p99/p99.9 with at least ten ops beyond it."""
    n = len(times)
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = (p, statistics.quantiles(times, n=1000, method="inclusive")[int(p * 10) - 1])
    return best


def ref_op_times(raw: dict) -> list:
    """Each op's time scaled to the reference speed by the probe taken around it."""
    return [t * PROBE_REF_S / p for t, p in zip(raw["op_times_s"], raw["op_probe_s"])]


def end_to_end(raw: dict) -> dict:
    times = raw["op_times_s"]
    n = len(times)
    ok = n - raw["failed"]
    ref_times = ref_op_times(raw)
    figures = {
        "setup_s": (raw["setup_s"], "s"),
        "setup_wall_s": (raw["setup_wall_s"][0] + statistics.median(raw["setup_wall_s"][1:]),
                         "s"),
        "ops_per_s": (ok / raw["wall_s"], "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "ops_per_ref_s": (ok / sum(ref_times), "1/s"),
        "op_p50_ref_s": (statistics.median(ref_times), "s"),
        "slowdown": (statistics.fmean(raw["op_probe_s"]) / PROBE_REF_S, "x"),
        "fail_ratio": (raw["failed"] / n, "ratio"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    t = tail(times)
    if t is not None:
        figures["op_tail_s"] = (t[1], f"s (p{t[0]:g}, n={n})")
    return figures


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hartreekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "workloads": {name: cls.why for name, cls in WORKLOADS.items()},
    }


def declared_metrics(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def pick(figures: dict, kind: str) -> dict:
    out = {}
    for name, unit in declared_metrics(kind):
        value = figures[name][0] if isinstance(figures[name], tuple) else figures[name]
        out[name] = {"value": value, "unit": unit}
    return out


def run_traced(wl: Workload, args) -> tuple:
    """Untraced child run of the fixed ops, then the same ops traced here."""
    import layertrace

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--ops", str(wl.trace_ops), "--out-tag", "untraced"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=DEADLINE_S / 2)
    detail = next((json.loads(line[len("detail "):]) for line in proc.stdout.splitlines()
                   if line.startswith("detail ")), None)
    if proc.returncode != 0 or detail is None:
        sys.stderr.write(proc.stderr)
        raise SetupError("untraced reference run failed")

    tracer = layertrace.Tracer() if wl.in_process else None
    raw = measure(wl, args.seconds, wl.trace_ops, True, tracer)
    span_lists = [layertrace.load_spans(p) for p in wl.child_spans]
    if tracer is not None:
        span_lists.append(tracer.spans)
        tracer.dump(wl.out / "spans.jsonl")
    figures = layertrace.layer_metrics(span_lists)
    figures["proc.cpu_s"] = raw["cpu_s"]
    figures["trace.overhead_s"] = sum(ref_op_times(raw)) - sum(ref_op_times(detail))
    return raw, figures


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # peak RSS of the program depends on the string-hash seed (NOTES.md)
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops instead of filling --seconds")
    ap.add_argument("--save", type=str, default=None,
                    help="append the run's record (env, raw figures, result) to this JSONL file")
    ap.add_argument("--out-tag", type=str, default="", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--save", args.save] if args.save else [])
            print(f"== {name}", flush=True)
            code |= subprocess.run(cmd, cwd=ROOT).returncode
        return code

    if not (SRC / "hartreekit" / "__init__.py").exists():
        print(f"benchmark: no program at {SRC / 'hartreekit'}", file=sys.stderr)
        return 2
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)   # every run imports from bytecode
    sys.dont_write_bytecode = False

    out = OUT / args.workload / f"seed{args.seed}{'-' + args.out_tag if args.out_tag else ''}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, out)
    try:
        if args.trace:
            raw, figures = run_traced(wl, args)
            kind = "per_layer"
        else:
            raw = measure(wl, args.seconds, args.ops)
            figures = end_to_end(raw)
            kind = "end_to_end"
    except SetupError as exc:
        print(f"benchmark: set-up failed: {exc}", file=sys.stderr)
        return 2
    except (ImportError, FileNotFoundError) as exc:
        print(f"benchmark: set-up failed: {exc!r}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    units = dict(declared_metrics(kind))
    for name, value in figures.items():
        value, unit = value if isinstance(value, tuple) else (value, units.get(name, ""))
        print(f"metric {args.workload} {name} = {value:.6g} {unit}".rstrip())
    detail = {k: raw[k] for k in ("setup_s", "setup_wall_s", "op_times_s", "op_probe_s",
                                  "failed", "wall_s", "cpu_s", "peak_rss_mb")}
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail))
    attempted = len(raw["op_times_s"])
    result = {"correct": raw["failed"] == 0, "attempted": attempted,
              "failed": raw["failed"], "metrics": pick(figures, kind)}
    if args.save:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": env, "detail": detail, "result": result}
        with open(args.save, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
