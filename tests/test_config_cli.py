import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartreekit.bubbles import bubble_constant
from hartreekit.cli import main
from hartreekit.config import _KEYS, PotentialSpec, load_config
from hartreekit.errors import ParameterError
from hartreekit.grids import make_grid


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
        "[flow]\nmax_iterations = 1000\nresidual_tolerance = 5e-4\n"
        "[report]\nseed = 99\n"
    )
    cfg = load_config(p)
    assert cfg.mu1 == 1.5 and cfg.beta == 4.0
    assert cfg.lam1 == 0.05 and cfg.lam2 == 0.0
    assert cfg.grid_m == 200 and cfg.r_max == 30.0
    assert cfg.flow.max_iterations == 1000
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


_SCIPY_LOADED = ("import sys; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")


@pytest.mark.parametrize("command", [
    "import hartreekit.cli",
    "from hartreekit.cli import main; code = main(['run-all', '--config', {cfg!r}, "
    "'--out', {out!r}]); assert code == 0, code",
], ids=["import", "run-all"])
def test_run_path_imports_no_scipy(tmp_path, command):
    # scipy is an oracle for the tests only: the run path is numpy alone
    import hartreekit

    cfg = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    src = str(Path(hartreekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = command.format(cfg=str(cfg), out=str(tmp_path / "out")) + "; " + _SCIPY_LOADED
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the thread count is set in the children's environment only
    import hartreekit

    src = str(Path(hartreekit.__file__).resolve().parents[1])
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    reports = []
    for threads in ("1", "2"):
        env = dict(base, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
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


@pytest.mark.parametrize("text, names", [
    ("[grid]\nm = abc\n", "[grid] m"),
    ("[report]\ntrend_fraction = x\n", "[report] trend_fraction"),
    ("[problem]\nv1.v0 = tiny\n", "[problem] v1.v0"),
    ("[flow]\ncheck_every = 0\n", "check_every"),
    ("[flow]\nrecenter_every = -1\n", "recenter_every"),
    ("[flow]\nmax_iterations = 0\n", "max_iterations"),
    ("[flow]\nstart = bogus\n", "bogus"),
    ("[problem]\nlambda1 = 0.0\nlambda2 = 0.0\n", "[problem] lambda1/lambda2"),
    ("[report]\nmoll_cells = 0\n", "[report] moll_cells"),
    ("[grid]\nprofile_m = 320\n[report]\nmoll_cells = 64\n", "[report] moll_cells"),
    ("[report]\nseed = -5\n", "[report] seed"),
    ("[flow]\nresidual_tolerance = inf\n", "[flow] residual_tolerance"),
    ("[flow]\nresidual_tolerance = nan\n", "[flow] residual_tolerance"),
    ("[flow]\nstep_size = inf\n", "[flow] step_size"),
    ("[problem]\nlambda1 = nan\n", "[problem] lambda1"),
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
