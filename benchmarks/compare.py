"""Spread of one result set, or comparison of two, against BENCHMARK.json.

    python3 benchmarks/compare.py A.jsonl             # spread per workload and metric
    python3 benchmarks/compare.py A.jsonl B.jsonl     # B (change) against A (parent)

A result set is the JSONL file that ``run.py --save`` appends to, one
untraced run per line.  For one set the table gives median, quartiles and
the spread (q3 - q1) / median against the metric's bound.  For two sets it
gives both medians and quartiles, the wins of B over A in pairs (matched by
seed, else by order) and a verdict:

- gain: B wins at least nine tenths of the pairs (ties count for neither)
  and the medians differ by more than A's quartile distance;
- REGRESSION: B's median is worse than A's by more than the bound;
- unresolved: A's spread is wider than the bound, unless every run of B
  reads better than every run of A;
- within bound: none of these.

Exit code 1 when any metric regresses.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path) -> dict:
    """workload -> list of (seed, {metric: value}) for untraced runs."""
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            runs.setdefault(rec["workload"], []).append((rec["seed"], values))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_table(runs) -> int:
    print(f"{'workload':18} {'metric':14} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for wl, rows in sorted(runs.items()):
        for m in SPEC["end_to_end"]:
            vals = [v[m["name"]] for _, v in rows]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"]
                                                        else "  > bound")
            print(f"{wl:18} {m['name']:14} {len(vals):3d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.3f} {m['bound']:6.2f}{flag}")
    return 0


def pairs(a_rows, b_rows):
    a_by_seed = dict(a_rows)
    if all(seed in a_by_seed for seed, _ in b_rows):
        return [(a_by_seed[seed], vals) for seed, vals in b_rows]
    return list(zip((v for _, v in a_rows), (v for _, v in b_rows)))


def verdict(metric, a_vals, b_vals, wins, n_pairs) -> str:
    lower = metric["better"] == "lower"
    a_q1, a_med, a_q3 = quartiles(a_vals)
    _, b_med, _ = quartiles(b_vals)
    worse = (b_med - a_med) if lower else (a_med - b_med)
    if worse > metric["bound"] * abs(a_med):
        return "REGRESSION"
    if n_pairs and wins >= 0.9 * n_pairs and -worse > (a_q3 - a_q1):
        return "gain"
    all_better = (max(b_vals) < min(a_vals)) if lower else (min(b_vals) > max(a_vals))
    if (a_q3 - a_q1) / abs(a_med) > metric["bound"] and not all_better:
        return "unresolved"
    return "within bound"


def compare_table(a_runs, b_runs) -> int:
    regressions = 0
    print(f"{'workload':18} {'metric':14} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'wins':>6}  verdict")
    for wl in sorted(set(a_runs) & set(b_runs)):
        matched = pairs(a_runs[wl], b_runs[wl])
        for m in SPEC["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            a_vals = [v[name] for _, v in a_runs[wl]]
            b_vals = [v[name] for _, v in b_runs[wl]]
            wins = sum((b[name] < a[name]) if lower else (b[name] > a[name]) for a, b in matched)
            v = verdict(m, a_vals, b_vals, wins, len(matched))
            regressions += v == "REGRESSION"
            a_q1, a_med, a_q3 = quartiles(a_vals)
            b_q1, b_med, b_q3 = quartiles(b_vals)
            print(f"{wl:18} {name:14} {a_med:11.5g} [{a_q1:.4g}, {a_q3:.4g}]".ljust(65)
                  + f" {b_med:11.5g} [{b_q1:.4g}, {b_q3:.4g}]".ljust(31)
                  + f" {wins:2d}/{len(matched):<3d} {v}")
    return 1 if regressions else 0


def main(argv) -> int:
    if len(argv) == 1:
        return spread_table(load(argv[0]))
    if len(argv) == 2:
        return compare_table(load(argv[0]), load(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
