import json

import numpy as np

from hartreekit import FlowConfig, solve_limit_ground_state
from hartreekit import flow
from hartreekit.reporting import LemmaReport, Table, write_bundle


def test_flow_trace_csv(cc, grid, tmp_path, monkeypatch):
    monkeypatch.setattr(flow, "MAX_ITERATIONS", 60)
    diag = solve_limit_ground_state(cc, FlowConfig(), grid)
    path = tmp_path / "trace.csv"
    diag.trace_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "iteration,energy,nehari_defect,weak_residual"
    assert len(text) >= 2


def test_report_rows_require_tolerance():
    rep = LemmaReport("x", "demo")
    ok = rep.require("missing tolerance row", 0.0, target=0.0, tol=None)
    assert not ok and rep.status == "fail"


def test_write_bundle_layout(tmp_path):
    rep = LemmaReport("demo", "demo check")
    rep.require("unit row", 1.0, target=1.0, tol=0.0)
    t = Table("numbers", ["x", "y"])
    t.add(x=1.0, y=np.float64(2.0))
    rep.tables.append(t)
    rep.runtime = 0.1
    payload = write_bundle(tmp_path, [rep], extras={"flag": np.bool_(True)})
    assert payload["all_passed"]
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.md").exists()
    assert (tmp_path / "demo_numbers.csv").read_text().splitlines()[1] == "1.0,2.0"
    blob = json.loads((tmp_path / "report.json").read_text())
    assert blob["extras"]["flag"] is True
    assert "runtime" not in json.dumps(blob)  # wall times stay out of the machine report
    assert "status: pass (runtime 0.10s)" in (tmp_path / "report.md").read_text()


def test_trend_and_lower_bound_rows(tmp_path):
    rep = LemmaReport("demo", "row helpers")
    assert rep.trend("decays", [1.0, 0.5, 0.2, 0.05])
    assert rep.rows[-1].value == 0.05 and rep.rows[-1].side == "upper"
    assert not rep.trend("jumps", [1.0, 1.2, 0.2, 0.05])   # ratio fine, not monotone
    assert rep.lower_bound("clearance", 0.3, bound=0.0, tol=0.1)
    assert rep.rows[-1].value == 0.3 and rep.rows[-1].side == "lower"
    assert not rep.lower_bound("too close", 0.05, bound=0.0, tol=0.1)
    assert rep.lower_bound("on the bound", 0.0, bound=0.0, tol=0.0, strict=False)
    assert rep.rows[-1].side == "at_least"
    assert not rep.lower_bound("below", -1e-300, bound=0.0, tol=0.0, strict=False)
    assert rep.status == "fail"
    write_bundle(tmp_path, [rep], extras={})
    md = (tmp_path / "report.md").read_text()
    assert "| decays | 0.05 | < 0.1 | 0 | yes |" in md
    assert "| clearance | 0.3 | > 0 | 0.1 | yes |" in md
    assert "| on the bound | 0 | >= 0 | 0 | yes |" in md
