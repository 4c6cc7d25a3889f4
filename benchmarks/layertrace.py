"""Outside-in layer trace for the hartreekit benchmark.

The tracer wraps public functions of the package from outside: every module
attribute that is bound to a traced function is replaced by a wrapper, so a
name copied by ``from .x import y`` is traced as well.  Each call records a
span (name, start, end, parent span, op id) in memory; child time is summed
into the parent as the child ends, which gives every span its self time.

Nothing here runs on import.  The benchmark installs a tracer only in its
traced runs; the end-to-end numbers come from untraced runs.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# module -> traced names; "Class.attr" patches the class attribute.
# riesz._build_conv_matrix is the kernel-table build behind kernel_for; it is
# traced only to count builds and is not reported as a layer of its own.
TARGETS = {
    "grids": ["make_grid", "bicenter_integral", "axis_moment_integrals",
              "dirichlet_seminorm", "RadialFn.__call__"],
    "riesz": ["kernel_for", "double_energy", "riesz_convolve",
              "AngularKernel.convolve_values", "_build_conv_matrix"],
    "bubbles": ["bubble_constant", "make_trial_profile"],
    "energy": ["weak_residual", "residual_fields", "trial_projection_scalars", "barycenter"],
    "flow": ["solve_limit_ground_state"],
    "checks": ["scan_region", "homotopy_boundary_check", "lambda_sweep", "verify_lemma"],
    "runner": ["build_context", "ensure_profile", "bubble_certification", "solver_report"],
    "reporting": ["write_bundle"],
    "cli": ["main"],
}
BUILD = "riesz._build_conv_matrix"
CHECK_IDS = ["2.1", "2.2", "2.5", "2.6", "3.2", "4.4", "4.5", "5.1", "5.2", "5.4", "cor2.3"]


def span_name(module: str, qual: str) -> str:
    return f"{module}.{qual.replace('__call__', 'call')}"


def _tag_build(args, kwargs, result):
    return {"M": int(args[0].M)}


def _tag_solve(args, kwargs, result):
    return {"iterations": int(result.iterations), "verdict": str(result.verdict)}


def _tag_scan(args, kwargs, result):
    return {"samples": len(result.samples.rows)}


def _tag_verify(args, kwargs, result):
    return {"check_id": str(args[0] if args else kwargs["check_id"])}


TAGS = {
    BUILD: _tag_build,
    "flow.solve_limit_ground_state": _tag_solve,
    "checks.scan_region": _tag_scan,
    "checks.verify_lemma": _tag_verify,
}

# span fields
NAME, START, END, PARENT, OP, CHILD_S, INFO = range(7)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list = []
        self.op = "setup"
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock, tag = self.spans, self._stack, time.perf_counter, TAGS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if tag is not None:
                    span[INFO] = tag(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[END] = clock()
                if parent >= 0:
                    spans[parent][CHILD_S] += span[END] - span[START]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        mods = [importlib.import_module(f"hartreekit.{m}") for m in TARGETS]
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "hartreekit" or n.startswith("hartreekit.")]
        for mod, quals in zip(mods, TARGETS.values()):
            short = mod.__name__.rsplit(".", 1)[1]
            for qual in quals:
                name = span_name(short, qual)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, orig))
                    self._undo.append((cls, attr, orig))
                    continue
                orig = getattr(mod, qual)
                wrapped = self._wrap(name, orig)
                for m in package:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)
                            self._undo.append((m, key, orig))
        return self

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one span a line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def load_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(span_lists) -> dict:
    """Per-layer figures from the spans of the timed ops (setup spans excluded).

    Each list holds the spans of one process; parent indices are per list.
    Inclusive time counts only the outermost span of a name, so recursion is
    not counted twice; self time is span time minus the time of its children.
    """
    out = {}
    names = [span_name(m, q) for m, quals in TARGETS.items() for q in quals]
    for n in names:
        out[f"{n}.calls"] = 0
        out[f"{n}.s"] = 0.0
        out[f"{n}.self_s"] = 0.0
    for cid in CHECK_IDS:
        out[f"checks.verify_lemma.{cid}.s"] = 0.0
    builds = build_bytes = iterations = unconverged = residual_checks = 0
    member_maps = samples = 0
    for spans in span_lists:
        for i, s in enumerate(spans):
            if s[OP] == "setup":
                continue
            name = s[NAME]
            dur = s[END] - s[START]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - s[CHILD_S]
            if not _has_ancestor(spans, i, name):
                out[f"{name}.s"] += dur
            info = s[INFO] or {}
            if name == BUILD:
                builds += 1
                build_bytes += 3 * info["M"] ** 2 * 8
            elif name == "flow.solve_limit_ground_state":
                iterations += info.get("iterations", 0)
                unconverged += info.get("verdict") != "converged"
            elif name == "energy.weak_residual":
                residual_checks += _has_ancestor(spans, i, "flow.solve_limit_ground_state")
            elif name == "energy.trial_projection_scalars":
                member_maps += _has_ancestor(spans, i, "checks.scan_region")
            elif name == "checks.scan_region":
                samples += info.get("samples", 0)
            elif name == "checks.verify_lemma" and info.get("check_id") in CHECK_IDS:
                out[f"checks.verify_lemma.{info['check_id']}.s"] += dur
    kernel_calls = out["riesz.kernel_for.calls"]
    out["riesz.kernel_builds"] = builds
    out["riesz.kernel_build_s"] = out[f"{BUILD}.s"]
    out["riesz.kernel_hit_ratio"] = (kernel_calls - builds) / kernel_calls if kernel_calls else 0.0
    out["riesz.kernel_bytes_built"] = build_bytes
    out["flow.iterations"] = iterations
    out["flow.residual_checks"] = residual_checks
    out["flow.unconverged"] = unconverged
    solve_self = out["flow.solve_limit_ground_state.self_s"]
    out["flow.iteration_self_s"] = solve_self / iterations if iterations else 0.0
    out["checks.scan.member_maps"] = member_maps
    out["checks.scan.samples"] = samples
    out["checks.scan.useful_ratio"] = samples / member_maps if member_maps else 0.0
    for key in (f"{BUILD}.calls", f"{BUILD}.s", f"{BUILD}.self_s"):
        del out[key]
    return out
