"""Tables, check reports, and the report bundle writers.

report.json is the deterministic machine artifact: given the same config and
seed two runs produce byte-identical files, so wall-clock runtimes are kept
out of it (they appear in report.md instead).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _native(x):
    """Convert numpy scalars (and containers of them) to plain Python types."""
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, dict):
        return {k: _native(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_native(v) for v in x]
    return x


@dataclass
class Table:
    """A named list of records with a fixed column order."""

    name: str
    columns: list
    rows: list = field(default_factory=list)

    def add(self, **kw):
        self.rows.append({c: kw.get(c) for c in self.columns})

    def column(self, name) -> list:
        return [row[name] for row in self.rows]

    def to_csv(self, path):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row[c]) for c in self.columns))
        Path(path).write_text("\n".join(lines) + "\n")

    def to_dict(self) -> dict:
        return {"name": self.name, "columns": list(self.columns), "rows": self.rows}


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(_native(x))


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
    side: str | None = None       # "upper": value < bound - tol; "lower": value > bound + tol

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "value": self.value,
            "target": self.target,
            "bound": self.bound,
            "tol": self.tol,
            "passed": self.passed,
            "note": self.note,
            "side": self.side,
        }


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

    def lower_bound(self, label, value, bound, tol, note="") -> bool:
        """Add a row whose value must exceed the bound by more than the margin tol."""
        ok = (value - bound) > tol
        return self._add(CheckRow(label, value, None, bound, tol, ok, note, "lower"))

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

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "title": self.title,
            "status": self.status,
            "rows": [r.to_dict() for r in self.rows],
            "tables": [t.to_dict() for t in self.tables],
            "notes": self.notes,
        }


def write_bundle(out_dir, reports: list, extras: dict, runtimes: dict) -> dict:
    """Write report.json (deterministic), report.md, and one CSV per table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = _native({
        "reports": [r.to_dict() for r in reports],
        "extras": extras,
        "all_passed": all(bool(r.passed) for r in reports),
    })
    (out / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )

    lines = ["# Verification report", ""]
    overall = "PASS" if payload["all_passed"] else "FAIL"
    lines.append(f"Overall: **{overall}**")
    lines.append("")
    for rep in reports:
        rt = runtimes.get(rep.check_id, rep.runtime)
        lines.append(f"## {rep.check_id}: {rep.title}")
        lines.append(f"status: {rep.status} (runtime {rt:.2f}s)")
        lines.append("")
        if rep.rows:
            lines.append("| check | value | reference | tol | pass |")
            lines.append("|---|---|---|---|---|")
            for row in rep.rows:
                if row.target is not None:
                    refs = f"{row.target:.6g}"
                elif row.bound is not None:
                    refs = f"{'<' if row.side == 'upper' else '>'} {row.bound:.6g}"
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
            fname = f"{rep.check_id.replace('.', '_')}_{tbl.name}.csv"
            tbl.to_csv(out / fname)
            lines.append(f"table: [{tbl.name}]({fname})")
            lines.append("")
    (out / "report.md").write_text("\n".join(lines) + "\n")
    return payload
