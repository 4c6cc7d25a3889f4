"""Tables, check reports, and the one writer of the run bundle.

report.json is the deterministic machine artifact: given the same config and
seed two runs produce byte-identical files, so wall-clock runtimes are kept
out of it (they appear in report.md instead).  `write_bundle` is the only
code that knows the bundle's files and how a value is written to JSON or CSV.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError


@dataclass
class Table:
    """A named list of records with a fixed column order."""

    name: str
    columns: list
    rows: list = field(default_factory=list)

    def add(self, **kw):
        """Append one record; it must give every column and no other."""
        if kw.keys() != set(self.columns):
            missing = [c for c in self.columns if c not in kw]
            unknown = [c for c in kw if c not in self.columns]
            raise ParameterError(f"table {self.name}: missing columns {missing}, "
                                 f"unknown columns {unknown}")
        self.rows.append({c: kw[c] for c in self.columns})

    def column(self, name) -> list:
        return [row[name] for row in self.rows]

    def to_csv(self, path):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row[c]) for c in self.columns))
        Path(path).write_text("\n".join(lines) + "\n")


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# a limit 'tends to zero' when the sequence ends below this fraction of its start
TREND_FRACTION = 0.1
# ... and no step rises by more than this fraction of the value before it
TREND_JITTER = 0.05


def limit_trend(values) -> bool:
    """Desk-scale rendering of 'tends to zero' along a parameter sequence."""
    v = [abs(x) for x in values]
    if len(v) < 2 or v[0] == 0.0:
        return all(x == 0.0 for x in v)
    head = v[0]
    for prev, cur in zip(v[:-1], v[1:]):
        if cur > prev * (1.0 + TREND_JITTER):
            return False
    return v[-1] <= TREND_FRACTION * head


@dataclass
class CheckRow:
    """One verified quantity: value against its bound at a stated tolerance."""

    label: str
    value: float
    target: float | None = None   # reference value (two-sided comparison) ...
    bound: float | None = None    # ... or a one-sided bound, on the side given by `side`
    tol: float | None = None
    passed: bool = True
    note: str = ""
    # "upper": value < bound - tol; "lower": value > bound + tol; "at_least": value >= bound + tol
    side: str | None = None


@dataclass
class LemmaReport:
    """Outcome of one named check: rows of evidence plus a verdict."""

    check_id: str
    title: str
    rows: list = field(default_factory=list)
    tables: list = field(default_factory=list)
    status: str = "pass"            # pass | fail | info
    notes: list = field(default_factory=list)
    runtime: float = 0.0            # excluded from report.json

    def require(self, label, value, target=None, bound=None, tol=None, note="") -> bool:
        """Add a row; a row without a tolerance cannot pass."""
        if tol is None:
            ok = False
            note = note or "missing tolerance"
        elif target is not None:
            # two-sided: relative deviation from the reference
            scale = max(abs(target), 1e-300)
            ok = abs(value - target) <= tol * scale
        elif bound is not None:
            # one-sided: value must stay under the bound by more than the margin tol
            ok = (bound - value) > tol
        else:
            ok = abs(value) <= tol
        side = "upper" if target is None and bound is not None else None
        return self._add(CheckRow(label, value, target, bound, tol, ok, note, side))

    def lower_bound(self, label, value, bound, tol, note="", strict=True) -> bool:
        """Add a row whose value must exceed the bound by more than the margin tol
        (by at least tol if not strict)."""
        ok = (value - bound) > tol if strict else (value - bound) >= tol
        side = "lower" if strict else "at_least"
        return self._add(CheckRow(label, value, None, bound, tol, ok, note, side))

    def trend(self, label, values, note="") -> bool:
        """Add a 'tends to zero' row: value final/initial, which must fall below
        TREND_FRACTION along a sequence that passes `limit_trend`."""
        ratio = values[-1] / values[0] if values[0] != 0.0 else 0.0
        ok = TREND_FRACTION - ratio > 0.0 and limit_trend(values)
        return self._add(CheckRow(label, ratio, None, TREND_FRACTION, 0.0, ok, note, "upper"))

    def _add(self, row: CheckRow) -> bool:
        self.rows.append(row)
        if not row.passed and self.status == "pass":
            self.status = "fail"
        return row.passed

    def info(self, label, value, note=""):
        self.rows.append(CheckRow(label, value, None, None, None, True, note or "informational"))

    def add_note(self, text):
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return self.status != "fail"


# report.md's comparison sign for each side of a one-sided row
_SIDE_SIGNS = {"upper": "<", "lower": ">", "at_least": ">="}


def _json_value(x):
    """What json cannot write itself: a dataclass as its fields, a numpy
    scalar as the Python value it holds."""
    if is_dataclass(x):
        return asdict(x)
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _write_json(path, value):
    path.write_text(json.dumps(value, sort_keys=True, indent=2, default=_json_value) + "\n")


def _table_file(rep: LemmaReport, tbl: Table) -> str:
    return f"{rep.check_id.replace('.', '_')}_{tbl.name}.csv"


def write_bundle(out_dir, reports: list, extras: dict, side_tables: list, started: float) -> bool:
    """Write the run bundle to `out_dir` and return whether every report passed.

    The files, in the order written: report.json (the reports without their
    runtimes, `extras` and the verdict; deterministic), constants.json
    (`extras["constants"]`), one CSV per report table, named
    <check id>_<table name>.csv, and one per side table, named
    <table name>.csv; last report.md, with each report's runtime and the
    total wall time since `started`, a time.perf_counter() reading.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_passed = all(rep.passed for rep in reports)
    _write_json(out / "report.json", {
        "reports": [{k: v for k, v in asdict(rep).items() if k != "runtime"}
                    for rep in reports],
        "extras": extras,
        "all_passed": all_passed,
    })
    _write_json(out / "constants.json", extras["constants"])
    for rep in reports:
        for tbl in rep.tables:
            tbl.to_csv(out / _table_file(rep, tbl))
    for tbl in side_tables:
        tbl.to_csv(out / f"{tbl.name}.csv")

    lines = ["# Verification report", "", f"Overall: **{'PASS' if all_passed else 'FAIL'}**", ""]
    for rep in reports:
        lines.append(f"## {rep.check_id}: {rep.title}")
        lines.append(f"status: {rep.status} (runtime {rep.runtime:.2f}s)")
        lines.append("")
        if rep.rows:
            lines.append("| check | value | reference | tol | pass |")
            lines.append("|---|---|---|---|---|")
            for row in rep.rows:
                if row.target is not None:
                    refs = f"{row.target:.6g}"
                elif row.bound is not None:
                    refs = f"{_SIDE_SIGNS[row.side]} {row.bound:.6g}"
                else:
                    refs = ""
                tols = "" if row.tol is None else f"{row.tol:g}"
                lines.append(
                    f"| {row.label} | {row.value:.6g} | {refs} | {tols} | "
                    f"{'yes' if row.passed else 'NO'} |"
                )
            lines.append("")
        for note in rep.notes:
            lines.append(f"- {note}")
        if rep.notes:
            lines.append("")
        for tbl in rep.tables:
            lines.append(f"table: [{tbl.name}]({_table_file(rep, tbl)})")
            lines.append("")
    lines += ["", f"total wall time: {time.perf_counter() - started:.1f}s"]
    (out / "report.md").write_text("\n".join(lines) + "\n")
    return all_passed
