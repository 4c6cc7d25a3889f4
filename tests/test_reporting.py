import json
import time
from pathlib import Path

import numpy as np
import pytest

from hartreekit import FlowConfig, solve_limit_ground_state
from hartreekit import flow, runner
from hartreekit.config import load_config
from hartreekit.errors import ParameterError
from hartreekit.reporting import LemmaReport, Table, write_bundle

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def test_flow_trace_csv(cc, grid, tmp_path, monkeypatch):
    # the trace is a side table: write_bundle writes it as flow_trace.csv,
    # one line per residual check, each float as its repr
    monkeypatch.setattr(flow, "MAX_ITERATIONS", 60)
    diag = solve_limit_ground_state(cc, FlowConfig(), grid)
    write_bundle(tmp_path, [], {"constants": {}}, [diag.trace], time.perf_counter())
    text = (tmp_path / "flow_trace.csv").read_text().splitlines()
    assert text[0] == "iteration,energy,nehari_defect,weak_residual"
    assert len(text) == 1 + len(diag.trace.rows) >= 2
    for line, row in zip(text[1:], diag.trace.rows):
        it, *values = line.split(",")
        assert it == str(row["iteration"])
        assert [float(x) for x in values] == list(row.values())[1:]


def test_table_add_names_a_missing_or_unknown_column():
    t = Table("numbers", ["x", "y"])
    with pytest.raises(ParameterError, match="missing columns \\['y'\\]"):
        t.add(x=1.0)
    with pytest.raises(ParameterError, match="unknown columns \\['z'\\]"):
        t.add(x=1.0, y=2.0, z=3.0)
    with pytest.raises(ParameterError, match="missing columns \\['y'\\], unknown columns \\['Y'\\]"):
        t.add(x=1.0, Y=2.0)
    assert t.rows == []
    t.add(y=2.0, x=1.0)
    assert t.rows == [{"x": 1.0, "y": 2.0}]


def test_report_rows_require_tolerance():
    rep = LemmaReport("x", "demo")
    ok = rep.require("missing tolerance row", 0.0, target=0.0, tol=None)
    assert not ok and rep.status == "fail"


def test_write_bundle_layout(tmp_path):
    rep = LemmaReport("demo.1", "demo check")
    rep.require("unit row", 1.0, target=1.0, tol=0.0)
    t = Table("numbers", ["x", "y"])
    t.add(x=1.0, y=np.float64(2.0))
    rep.tables.append(t)
    rep.runtime = 0.1
    side = Table("side", ["n", "ok"])
    side.add(n=np.int64(3), ok=np.bool_(False))
    constants = {"N": np.int64(5), "s_hl": 3.75}
    assert write_bundle(tmp_path, [rep], {"flag": np.bool_(True), "constants": constants,
                                          "sweep": side}, [side], time.perf_counter() - 2.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "constants.json", "demo_1_numbers.csv", "report.json", "report.md", "side.csv"]
    assert (tmp_path / "demo_1_numbers.csv").read_text().splitlines()[1] == "1.0,2.0"
    assert (tmp_path / "side.csv").read_text() == "n,ok\n3,False\n"
    assert json.loads((tmp_path / "constants.json").read_text()) == {"N": 5, "s_hl": 3.75}
    blob = json.loads((tmp_path / "report.json").read_text())
    assert blob["extras"]["flag"] is True
    assert blob["extras"]["sweep"] == {"name": "side", "columns": ["n", "ok"],
                                       "rows": [{"n": 3, "ok": False}]}
    assert "runtime" not in json.dumps(blob)  # wall times stay out of the machine report
    md = (tmp_path / "report.md").read_text()
    assert "status: pass (runtime 0.10s)" in md
    assert "table: [numbers](demo_1_numbers.csv)" in md
    assert md.endswith("\n\ntotal wall time: 2.0s\n")


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
    write_bundle(tmp_path, [rep], {"constants": {}}, [], time.perf_counter())
    md = (tmp_path / "report.md").read_text()
    assert "| decays | 0.05 | < 0.1 | 0 | yes |" in md
    assert "| clearance | 0.3 | > 0 | 0.1 | yes |" in md
    assert "| on the bound | 0 | >= 0 | 0 | yes |" in md


# report.json's keys: asdict writes every dataclass field, so a new field
# would enter the machine report unseen
_REPORT_KEYS = {"check_id", "title", "status", "rows", "tables", "notes"}
_ROW_KEYS = {"label", "value", "target", "bound", "tol", "passed", "note", "side"}
_TABLE_KEYS = {"name", "columns", "rows"}
_EXTRAS_KEYS = {
    "constants": {"N", "hls_constant", "sobolev_constant", "s_hl", "s_hl_squared",
                  "bubble_normalization", "sphere_area"},
    "couplings": {"mu1", "mu2", "beta", "k1", "k2", "c_inf", "m1_inf", "m2_inf"},
    "admissibility": {"v1_norm", "v2_norm", "left_plain", "right_plain", "margin_plain",
                      "left_scaled", "right_scaled", "margin_scaled", "nonzero",
                      "satisfied_plain", "satisfied_scaled"},
    "trial_profile": {"sigma", "energy", "inner_scale", "cbar"},
    "region": {"delta1", "delta2", "rbar", "cbar", "c_star_lower", "kappa", "s_tilde",
               "threshold", "boundary_sup_energy", "found", "failure"},
    "config": {"seed", "grid_m", "r_max", "stretch", "mu", "beta", "lambda"},
    "lambda_sweep": _TABLE_KEYS,
}


def test_report_json_schema(tmp_path):
    assert runner.run(load_config(DEFAULT_CFG), runner.COMMANDS["run-all"], tmp_path)[0] == 0
    blob = json.loads((tmp_path / "report.json").read_text())
    assert set(blob) == {"reports", "extras", "all_passed"}
    tables = []
    for rep in blob["reports"]:
        assert set(rep) == _REPORT_KEYS, rep["check_id"]
        assert all(set(row) == _ROW_KEYS for row in rep["rows"]), rep["check_id"]
        tables += rep["tables"]
    extras = blob["extras"]
    assert set(extras) == set(_EXTRAS_KEYS) | {"empirical_lambda_threshold"}
    for key, keys in _EXTRAS_KEYS.items():
        assert set(extras[key]) == keys, key
    tables.append(extras["lambda_sweep"])
    assert tables
    for table in tables:
        assert set(table) == _TABLE_KEYS
        assert all(set(row) == set(table["columns"]) for row in table["rows"]), table["name"]
