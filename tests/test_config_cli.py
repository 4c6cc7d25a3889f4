import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartreekit import energy, grids, runner
from hartreekit.bubbles import bubble_constant
from hartreekit.checks import verify_lemma
from hartreekit.cli import main
from hartreekit.config import _KEYS, PotentialSpec, load_config
from hartreekit.errors import ConstructionError, ParameterError
from hartreekit.grids import make_grid
from hartreekit.runner import COMMANDS


def run_cli(*args):
    return main(list(args))


def test_default_config_roundtrip():
    cfg = load_config(None)
    assert cfg.mu1 == 1.0 and cfg.mu2 == 2.0 and cfg.beta == 3.0


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "[problem]\n"
        "mu1 = 1.5\nmu2 = 2.5\nbeta = 4.0\nlambda1 = 0.05\nlambda2 = 0.0\n"
        "v1.family = inverse_square\nv1.v0 = 0.2\nv1.s = 2.0\n"
        "v2.family = none\n"
        "[grid]\nm = 200\nr_max = 30.0\nstretch = 1.01\n"
        "[report]\nseed = 99\n"
    )
    cfg = load_config(p)
    assert cfg.mu1 == 1.5 and cfg.beta == 4.0
    assert cfg.lam1 == 0.05 and cfg.lam2 == 0.0
    assert cfg.grid_m == 200 and cfg.r_max == 30.0
    assert cfg.seed == 99
    grid = cfg.build_grid()
    prob = cfg.build_problem(grid)
    assert prob.V1 is not None and prob.V2 is None


def test_config_missing_file():
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/path.cfg")


def test_config_bad_convention(tmp_path):
    # the convention key is gone; an old config that still sets it is rejected
    p = tmp_path / "bad.cfg"
    p.write_text("[report]\nconvention = X9\n")
    with pytest.raises(ParameterError, match=r"\[report\] convention"):
        load_config(p)


@pytest.mark.parametrize("text, names", [
    ("[grid]\nm = 200\n[flow]\nstep = 0.5\n", "[flow] step"),
    ("[gird]\nm = 10\n", "[gird]"),
    ("[problem]\nv1.vo = 0.2\n", "[problem] v1.vo"),
    # no setting scales a tolerance or the trend fraction
    ("[report]\ntol_scale = 100\n", "[report] tol_scale"),
    ("[report]\ntrend_fraction = 1e9\n", "[report] trend_fraction"),
    # nor loosens the ground-state gate; the flow's settings are constants
    ("[flow]\nresidual_tolerance = 1.0\n", "[flow]"),
    ("[flow]\nstart = bogus\n", "[flow] start"),
    # configparser's [DEFAULT] would otherwise be dropped or copied into every section
    ("[DEFAULT]\nstretch = 1.03\n", "[DEFAULT] stretch"),
])
def test_cli_unknown_config_key_or_section_exit_code(tmp_path, capsys, text, names):
    # a misspelled key or section is a usage error, not a silently kept default
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    code = run_cli("run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and names in err
    assert not (tmp_path / "out").exists()


# every key of the earlier [flow] section and the trial-profile keys, at
# their former default values
_REMOVED_KEYS = {
    "grid": {"profile_m": "320"},
    "flow": {"step_size": "1.0", "max_iterations": "5000", "residual_tolerance": "1e-3",
             "recenter_every": "50", "check_every": "25", "start": "gaussian"},
    "report": {"support_fraction": "0.995", "moll_cells": "5", "c_star_margin": "0.02"},
}


def test_cli_names_every_removed_key_in_one_error(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for sec, keys in _REMOVED_KEYS.items()))
    code = run_cli("run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    for sec, keys in _REMOVED_KEYS.items():
        for key in keys:
            assert f"[{sec}] {key}" in err
    assert not (tmp_path / "out").exists()


def test_cli_tol_scale_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "2.1", "--tol-scale", "100", "--out", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert "--tol-scale" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_negative_seed_flag_exit_code(tmp_path, capsys):
    # numpy rejects a negative seed; the run must say so as a usage error
    code = run_cli("run-all", "--seed", "-1", "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err
    assert not (tmp_path / "out").exists()


def test_replace_meets_the_config_checks():
    cfg = load_config(None)
    with pytest.raises(ParameterError, match="seed"):
        dataclasses.replace(cfg, seed=-1)
    with pytest.raises(ParameterError, match="lambda1 \\+ lambda2"):
        dataclasses.replace(cfg, lam1=0.0, lam2=0.0)


def test_potential_csv_roundtrip(tmp_path, grid):
    r = np.linspace(0.01, 40.0, 200)
    vals = 0.1 * (1 + r**2) ** -2.0
    csv = tmp_path / "v.csv"
    csv.write_text("r,value\n" + "\n".join(f"{a},{b}" for a, b in zip(r, vals)))
    spec = PotentialSpec(family="csv", path=str(csv), tail_exponent=4.0, tail_coeff=0.1)
    V = spec.build(grid)
    assert abs(V(1.0) - 0.1 / 4.0) <= 1e-3
    assert V.p_tail == 4.0


def test_potential_csv_rejects_unsorted_radii(tmp_path, grid):
    # np.interp would read the swapped rows without complaint and return a
    # wrong potential between them
    r = np.linspace(0.01, 40.0, 200)
    vals = 0.1 * (1 + r**2) ** -2.0
    r[[60, 61]] = r[[61, 60]]
    csv = tmp_path / "v.csv"
    csv.write_text("r,value\n" + "\n".join(f"{a},{b}" for a, b in zip(r, vals)))
    spec = PotentialSpec(family="csv", path=str(csv), tail_exponent=4.0, tail_coeff=0.1)
    with pytest.raises(ParameterError, match="strictly increasing") as exc:
        spec.build(grid)
    assert str(csv) in str(exc.value)


def test_potential_csv_missing_file(grid):
    spec = PotentialSpec(family="csv", path="/no/such/file.csv")
    with pytest.raises(FileNotFoundError):
        spec.build(grid)


def test_cli_constants(tmp_path):
    code = run_cli("constants", "--out", str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "constants.json").read_text())
    assert abs(data["s_hl_squared"] - 225.0 / 16.0) < 1e-10


def test_cli_verify_check(tmp_path):
    code = run_cli("verify", "2.2", "--out", str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["all_passed"]


def test_cli_usage_error_exit_code(tmp_path):
    assert run_cli("verify", "bogus", "--out", str(tmp_path)) == 2


def test_cli_domain_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[problem]\nbeta = 0.5\n")
    code = run_cli("run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2


def test_cli_missing_potential_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    missing = tmp_path / "nope.csv"
    cfg.write_text(f"[problem]\nv1.family = csv\nv1.path = {missing}\n")
    code = run_cli("run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert str(missing) in err


def test_cli_unsorted_potential_file_exit_code(tmp_path, capsys):
    csv = tmp_path / "v.csv"
    csv.write_text("r,value\n0.0,0.1\n2.0,0.004\n1.0,0.025\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[problem]\nv1.family = csv\nv1.path = {csv}\n")
    code = run_cli("run-all", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert str(csv) in err and "strictly increasing" in err


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH, for child runs."""
    import hartreekit

    src = str(Path(hartreekit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.mark.parametrize("body", [
    "r,value\n0.0,0.1\n0.5,abc\n",
    "r,value\n0.0,0.1\n0.5,0.05,1.0\n",
    "r,value\n",
], ids=["non-numeric", "ragged", "header-only"])
def test_cli_malformed_potential_file_exit_code(tmp_path, body):
    # a usage error that names the file, with no traceback and no numpy warning
    csv = tmp_path / "v.csv"
    csv.write_text(body)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[problem]\nv1.family = csv\nv1.path = {csv}\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hartreekit", "constants", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 2, proc.stderr
    assert str(csv) in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


_SCIPY_LOADED = ("import sys; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")


@pytest.mark.parametrize("command", [
    "import hartreekit.cli",
    "from hartreekit.cli import main; code = main(['run-all', '--config', {cfg!r}, "
    "'--out', {out!r}]); assert code == 0, code",
], ids=["import", "run-all"])
def test_run_path_imports_no_scipy(tmp_path, command):
    # scipy is an oracle for the tests only: the run path is numpy alone
    cfg = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    code = command.format(cfg=str(cfg), out=str(tmp_path / "out")) + "; " + _SCIPY_LOADED
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_run_path_imports_no_numpy_ma():
    # np.unique and np.median import numpy.ma on first use; the context, the
    # trial profile and the ground-state solve do without them
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, check=True)
    if bare.stdout.strip() == "True":
        pytest.skip("a bare `import numpy` already loads numpy.ma")
    cfg = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    code = ("import sys; from hartreekit import runner; from hartreekit.config import load_config; "
            f"ctx = runner.build_context(load_config({str(cfg)!r})); runner.ensure_profile(ctx); "
            "assert runner.solver_report(ctx).passed; print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the thread count is set in the children's environment only
    reports = []
    for threads in ("1", "2"):
        env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "hartreekit", "run-all", "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hartreekit", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "run-all" in proc.stdout


def test_cli_grid_overrides(tmp_path):
    code = run_cli("constants", "--out", str(tmp_path),
                   "--grid-m", "200", "--r-max", "30.0")
    assert code == 0
    # the amplitude, and with it every bubble row, comes from the overridden grid
    data = json.loads((tmp_path / "constants.json").read_text())
    assert data["bubble_normalization"] == bubble_constant(5, make_grid(5, 200, 30.0, 1.02))
    rows = {row["label"]: row for row in
            json.loads((tmp_path / "report.json").read_text())["reports"][0]["rows"]}
    d4 = rows["bubble double energy vs s_hl^2"]["value"]
    grad = rows["bubble Dirichlet energy vs s_hl^2"]["value"]
    assert abs(d4 - grad) <= 1e-12 * grad


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_non_finite_r_max_is_a_usage_error(tmp_path, capsys, value):
    # rejected by the grid, by name, before any numpy arithmetic can warn
    code = run_cli("constants", "--out", str(tmp_path), "--r-max", value)
    assert code == 2
    assert "R_max" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["1e6", "5.0"])
def test_cli_grid_breaking_stretch_is_a_usage_error(tmp_path, capsys, value):
    # 1e6 overflows stretch**n_cells; 5.0 puts the first node at ~1e-55
    cfg = tmp_path / "stretch.cfg"
    cfg.write_text(f"[grid]\nstretch = {value}\n")
    code = run_cli("constants", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "stretch" in capsys.readouterr().err


def test_cli_solve_ground_writes_profiles(tmp_path):
    code = run_cli("solve-ground", "--out", str(tmp_path))
    assert code == 0
    data = np.loadtxt(tmp_path / "ground_state.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 3
    assert (tmp_path / "flow_trace.csv").exists()


def test_ground_state_csv_loads_back_bit_identical(tmp_path, monkeypatch):
    # every number is written as its repr, so the final iterate reads back exactly
    contexts = _log_results(monkeypatch, runner.build_context)
    assert runner.run(load_config(DEFAULT_CFG), COMMANDS["solve-ground"], tmp_path)[0] == 0
    (ctx,) = contexts
    final = ctx.flow_diag.final
    path = tmp_path / "ground_state.csv"
    assert path.read_text().splitlines()[0] == "r,u,v"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    want = np.column_stack([final.u.grid.r, final.u.values, final.v.values])
    assert data.tobytes() == want.tobytes()


def test_cli_scan_region_writes_its_candidates_beside_the_report(tmp_path):
    # one row per (rbar, delta2) tried, ending at the region the report names;
    # the sidecar stays out of report.json
    code = run_cli("scan-region", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "scan_candidates.csv").read_text().splitlines()
    assert lines[0] == "rbar,delta2,verdict,face,delta,rho,shape_maps,energy_maps"
    region = json.loads((tmp_path / "report.json").read_text())["extras"]["region"]
    rbar, delta2, verdict, *_ = lines[-1].split(",")
    assert (float(rbar), float(delta2), verdict) == (region["rbar"], region["delta2"],
                                                    "accepted")
    assert all(line.split(",")[2] == "rejected" for line in lines[1:-1])
    assert "scan_candidates" not in (tmp_path / "report.json").read_text()


@pytest.mark.parametrize("text, names", [
    ("[grid]\nm = abc\n", "[grid] m"),
    ("[report]\ntrend_fraction = x\n", "[report] trend_fraction"),
    ("[problem]\nv1.v0 = tiny\n", "[problem] v1.v0"),
    ("[problem]\nlambda1 = 0.0\nlambda2 = 0.0\n", "[problem] lambda1/lambda2"),
    ("[report]\nseed = -5\n", "[report] seed"),
    ("[problem]\nlambda1 = nan\n", "[problem] lambda1"),
    # the flow and trial-profile settings are constants in the code: a file
    # that sets one, valid or not, is rejected as an unknown key before any
    # value is read
    ("[flow]\ncheck_every = 0\n", "check_every"),
    ("[flow]\nrecenter_every = -1\n", "recenter_every"),
    ("[flow]\nmax_iterations = 0\n", "max_iterations"),
    ("[report]\nmoll_cells = 0\n", "[report] moll_cells"),
    ("[grid]\nprofile_m = 320\n[report]\nmoll_cells = 64\n", "[report] moll_cells"),
    ("[flow]\nresidual_tolerance = inf\n", "[flow] residual_tolerance"),
    ("[flow]\nresidual_tolerance = nan\n", "[flow] residual_tolerance"),
    ("[flow]\nstep_size = inf\n", "[flow] step_size"),
    ("[report]\nc_star_margin = 0\n", "[report] c_star_margin"),
    ("[report]\nc_star_margin = -0.5\n", "[report] c_star_margin"),
    ("[report]\nsupport_fraction = 0\n", "[report] support_fraction"),
    ("[report]\nsupport_fraction = 1.0\n", "[report] support_fraction"),
])
def test_cli_malformed_config_exit_code(tmp_path, capsys, text, names):
    # a config that cannot be read is a usage error (2), never a failed check (1)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = run_cli("solve-ground", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and names in err


_KNOWN_KEYS = [(section, key) for section, keys in _KEYS.items() for key in keys]
_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.integers(-3, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["gaussian", "bubble", "A3", "C3", "csv", "none", "%", "%(m)s"]),
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(_KNOWN_KEYS), _VALUES, max_size=6))
def test_load_config_fuzz_raises_only_config_errors(entries):
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{sec}]\n" + "\n".join(lines) + "\n" for sec, lines in sections.items())
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            load_config(path)
        except (ParameterError, FileNotFoundError):
            pass


# every subcommand but run-all (covered above), and verify at a check that reads
# trial samples and at one that does not
_COMMAND_ARGV = [[name] for name in COMMANDS if name != "run-all"] + [["verify", "5.2"],
                                                                      ["verify", "cor2.3"]]
# the steps that read the trial family's samples, and so build its profile
_PROFILE_STEPS = {"4.4", "4.5", "5.1", "5.2", "5.4", "homotopy"}
_EXTRAS = {"constants", "couplings", "admissibility", "trial_profile", "region", "config"}


@pytest.mark.parametrize("argv", _COMMAND_ARGV, ids=" ".join)
def test_every_command_writes_the_one_bundle_layout(tmp_path, capsys, argv):
    code = run_cli(*argv, "--out", str(tmp_path))
    assert code == 0
    steps = COMMANDS.get(argv[0], tuple(argv[1:]))
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{s}: pass" for s in steps] + [
        f"bundle written to {tmp_path}; all checks passed"]
    blob = json.loads((tmp_path / "report.json").read_text())
    assert [rep["check_id"] for rep in blob["reports"]] == list(steps)
    extras = blob["extras"]
    found = extras["region"] is not None and extras["region"]["found"]
    assert set(extras) == _EXTRAS | ({"lambda_sweep", "empirical_lambda_threshold"}
                                     if found else set())
    # the trial profile is built only for a step that reads it
    assert (extras["trial_profile"] is not None) == bool(_PROFILE_STEPS & set(steps))
    assert extras["constants"] == json.loads((tmp_path / "constants.json").read_text())
    md = (tmp_path / "report.md").read_text()
    for heavy in {"5.2", "homotopy", "solve-ground"} & set(steps):
        runtime = re.search(rf"## {re.escape(heavy)}: .*\nstatus: pass \(runtime ([0-9.]+)s\)",
                            md)
        assert float(runtime.group(1)) > 0.0, md
    assert "total wall time:" in md


def test_cli_prints_the_statuses_run_returns_without_reading_the_bundle(tmp_path, capsys,
                                                                         monkeypatch):
    # with a bundle writer that writes nothing, the status lines still come
    # from the reports the run made: no module but reporting names a file
    monkeypatch.setattr(runner, "write_bundle", lambda out_dir, reports, *rest: True)
    assert run_cli("constants", "--out", str(tmp_path / "none")) == 0
    assert capsys.readouterr().out.splitlines() == [
        "constants: pass", f"bundle written to {tmp_path / 'none'}; all checks passed"]
    assert not (tmp_path / "none").exists()


def _rebind(monkeypatch, fn, wrapper):
    """Bind wrapper in place of every package attribute bound to fn, as the
    benchmark's layer trace does."""
    for name, module in list(sys.modules.items()):
        if name == "hartreekit" or name.startswith("hartreekit."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)


def _count_calls(monkeypatch, fn):
    """Wrap fn everywhere (`_rebind`); returns the list that each call appends
    its positional arguments to."""
    log = []

    def counted(*args, **kwargs):
        log.append(args)
        return fn(*args, **kwargs)

    _rebind(monkeypatch, fn, counted)
    return log


def _log_results(monkeypatch, fn):
    """Wrap fn everywhere (`_rebind`); returns the list that each call appends
    its result to."""
    log = []

    def logged(*args, **kwargs):
        log.append(fn(*args, **kwargs))
        return log[-1]

    _rebind(monkeypatch, fn, logged)
    return log


def _arrays(value):
    """The arrays in a kept value: an array, a tuple of values, or an object's array fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [arr for item in value for arr in _arrays(item)]
    return [arr for arr in getattr(value, "__dict__", {}).values() if isinstance(arr, np.ndarray)]


def test_run_all_keeps_every_grid_value_and_rule_read_only(tmp_path, monkeypatch):
    # every grid a run-all makes (the run grid, the profile grid, 3.2's fine
    # grid, and the residual's bump grids unless an earlier run of the
    # process built its test set) keeps its own arrays and its values
    # read-only, every function the context holds keeps its values and its
    # spline read-only, and so do the quadrature rule, stencil window and
    # test set memos: a write raises
    grids_made = _log_results(monkeypatch, grids.make_grid)
    contexts = _log_results(monkeypatch, runner.build_context)
    rules = [_log_results(monkeypatch, fn)
             for fn in (grids._gauss_legendre, grids._tail_rule, grids._theta_rule,
                        grids._theta_sines, grids._stencil_windows, energy.default_test_set)]
    assert runner.run(load_config(DEFAULT_CFG), COMMANDS["run-all"], tmp_path)[0] == 0
    assert {(400, 40.0), (320, 1.0), (640, 40.0)} <= {(g.M, g.R_max) for g in grids_made}
    keys = {key for g in grids_made for key in g._cache}
    assert {"volume_weights", "kernel", "tail_kernel", "pinned_factors",
            "weak_residual_pairing", "cell_lookup", "bubble_amplitude"} <= keys
    assert all(rules)
    (ctx,) = contexts
    fns = [ctx.prob.V1, ctx.prob.V2, ctx.profile.square, ctx.profile.density]
    assert all("spline" in fn._cache for fn in fns[:3])   # the overlaps evaluated them
    own = [(g.r, g.w1, g.edges, g.node_cell) for g in grids_made]
    own += [(fn.values, grids._spline(fn)) for fn in fns]
    kept = [value for g in grids_made for value in g._cache.values()]
    arrays = {id(arr): arr for value in own + kept + sum(rules, []) for arr in _arrays(value)}
    for arr in arrays.values():
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = arr


def test_checks_that_read_no_trial_sample_run_where_no_profile_meets_the_cap(tmp_path):
    # at beta = 2.2 no profile on the profile grid meets the cap window; the
    # six checks that read no trial sample still run and pass, and build no
    # profile, while the first check that reads one stops the run
    cfg = dataclasses.replace(load_config(DEFAULT_CFG), beta=2.2)
    free = ("2.1", "2.2", "2.5", "2.6", "3.2", "cor2.3")
    assert runner.run(cfg, free, tmp_path / "free") == (0, [(cid, "pass") for cid in free])
    blob = json.loads((tmp_path / "free" / "report.json").read_text())
    assert blob["extras"]["trial_profile"] is None
    with pytest.raises(ConstructionError, match="energy window .* not reached"):
        runner.run(cfg, ("cor2.3", "4.4"), tmp_path / "trial")


def test_run_all_calls_each_step_function_once(tmp_path, monkeypatch):
    # a step that keeps its own reference to its function is not counted
    logs = {fn.__name__: _count_calls(monkeypatch, fn)
            for fn in (runner.solver_report, runner.bubble_certification)}
    assert run_cli("run-all", "--out", str(tmp_path)) == 0
    assert {name: len(log) for name, log in logs.items()} == \
        {"solver_report": 1, "bubble_certification": 1}


DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def test_equal_potential_specs_build_one_potential(grid):
    # default.cfg sets equal v1 and v2: one RadialFn stands for both, so every
    # trial overlap evaluates its spline once
    cfg = load_config(DEFAULT_CFG)
    assert cfg.v1 == cfg.v2
    prob = cfg.build_problem(grid)
    assert prob.V1 is prob.V2
    other = dataclasses.replace(cfg, v2=dataclasses.replace(cfg.v2, v0=0.2))
    prob2 = other.build_problem(grid)
    assert prob2.V1 is not prob2.V2
    assert np.array_equal(prob2.V1.values, prob.V1.values)
    assert np.array_equal(prob2.V2.values, 2.0 * prob.V1.values)


def test_run_all_integrates_each_trial_sample_once(tmp_path, monkeypatch):
    log = _count_calls(monkeypatch, grids.bicenter_integrals)
    assert runner.run(load_config(DEFAULT_CFG), COMMANDS["run-all"], tmp_path)[0] == 0
    # every call is the profile's unit square, read at a trial member's
    # dilation, against the potentials; 359 calls before the run shared one memo
    samples = [(delta, rho) for _, _, rho, delta in log]
    assert len(log) <= 304
    assert len(set(samples)) == len(samples)


def test_run_all_builds_few_cell_lookups(tmp_path, monkeypatch):
    # the trial family reads its unit functions on the profile grid: no
    # dilated grid builds its own spline cell table (57 tables, one per
    # dilation, before)
    built = []
    lookup = grids._cell_lookup

    def counted(grid):
        if "cell_lookup" not in grid._cache:
            built.append(grid.M)
        return lookup(grid)

    monkeypatch.setattr(grids, "_cell_lookup", counted)
    assert runner.run(load_config(DEFAULT_CFG), COMMANDS["run-all"], tmp_path)[0] == 0
    assert len(built) <= 9, built


def test_projection_scalars_after_potential_vanishing_add_no_quadrature(monkeypatch):
    ctx = runner.build_context(load_config(DEFAULT_CFG))
    runner.ensure_profile(ctx)
    log = _count_calls(monkeypatch, grids.bicenter_integrals)
    assert verify_lemma("4.4", ctx).passed
    assert len(log) > 0
    del log[:]
    assert verify_lemma("5.1", ctx).passed
    assert log == []
