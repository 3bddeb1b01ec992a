"""Command-line harness: files out, exit codes, reproducible bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from priondyn.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FAST_EIGEN = "\n".join([
    "experiment = eigen",
    "eigen.v_values = 0, 100, 600",
    "grid.xmax = 30.0",
    "grid.n = 200",
    "",
])

FAST_STEADY = "\n".join([
    "experiment = steady",
    "grid.xmax = 30.0",
    "grid.n = 200",
    "",
])

FAST_SIMULATE = "\n".join([
    "experiment = simulate",
    "simulate.t_end = 6.0",
    "simulate.seed_scale = 0.001",
    "simulate.snapshot_times = 3.0",
    "simulate.fit_start = 2.0",
    "simulate.fit_end = 5.0",
    "simulate.record_every = 4",
    "grid.xmax = 60.0",
    "grid.n = 150",
    "",
])

FAST_SWEEP = "\n".join([
    "experiment = sweep",
    "sweep.axis = tightness",
    "sweep.values = 0.05, 0.2, 0.8",
    "sweep.v_eval = 600.0",
    "model.conversion.shape = scaled_bell",
    "model.conversion.base = 0.001",
    "model.conversion.tightness = 0.1",
    "model.conversion.center = 8.0",
    "grid.xmax = 60.0",
    "grid.n = 150",
    "",
])


def _run(tmp_path, name, body, *extra):
    cfg = tmp_path / (name + ".cfg")
    cfg.write_text(body)
    out = tmp_path / (name + "-out")
    code = main([name, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


# --- one pass per subcommand -----------------------------------------------

def test_eigen_outputs(tmp_path):
    code, out = _run(tmp_path, "eigen", FAST_EIGEN)
    assert code == 0
    files = {p.name for p in out.iterdir()}
    tag = next(n for n in files if n.startswith("eigen-") and n.endswith(".json"))
    payload = json.loads((out / tag).read_text())
    assert payload["results"]["v_values"] == [0.0, 100.0, 600.0]
    assert payload["results"]["decreasing"] is True
    assert payload["results"]["sign_at_largest"] == -1
    # one vector file per non-degenerate level
    vecs = [n for n in files if "-v" in n and n.endswith(".csv")]
    assert len(vecs) == 2


FAST_PEAK_SWEEP = "\n".join([
    "experiment = sweep",
    "sweep.axis = peak_center",
    "sweep.values = 1.667, 4.167",
    "model.conversion.shape = bell",
    "model.conversion.base = 0.001",
    "model.conversion.amplitude = 0.1",
    "model.conversion.center = 2.5",
    "model.conversion.width_sq = 0.1",
    "grid.xmax = 60.0",
    "grid.n = 200",
    "",
])


def test_steady_outputs(tmp_path):
    code, out = _run(tmp_path, "steady", FAST_STEADY)
    assert code == 0
    js = next(p for p in out.iterdir() if p.suffix == ".json")
    payload = json.loads(js.read_text())
    assert payload["results"]["exists"] is True
    diag = payload["diagnostics"]
    assert 0 < diag["root_evaluations"] <= diag["root_iterations"] + 1
    assert payload["results"]["v_inf"] == pytest.approx(83.33, rel=1e-2)
    assert payload["results"]["n_modes"] == 1
    profiles = [p for p in out.iterdir() if p.name.endswith("profile.csv")]
    assert len(profiles) == 1



def test_steady_sharp_bump_on_fine_grid(tmp_path):
    # the shipped two-hump run, refined: the root search must not fail
    body = (CONFIG_DIR / "fig3.cfg").read_text().replace("grid.n = 800", "grid.n = 1600")
    assert "grid.n = 1600" in body
    code, out = _run(tmp_path, "steady", body)
    assert code == 0
    payload = json.loads(next(p for p in out.iterdir() if p.suffix == ".json").read_text())
    assert payload["results"]["n_modes"] == 2

def test_simulate_outputs(tmp_path):
    code, out = _run(tmp_path, "simulate", FAST_SIMULATE)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert any(n.endswith("-trajectory.csv") for n in names)
    assert any("-snap-" in n for n in names)
    js = next(n for n in names if n.endswith(".json") and "-snap" not in n)
    payload = json.loads((out / js).read_text())
    assert payload["results"]["t_end"] == 6.0
    assert payload["results"]["v_final"] > 0.0
    header = (out / next(n for n in names if n.endswith("-trajectory.csv"))
              ).read_text().splitlines()[0]
    assert header == "t,v,polymer_count,polymer_mass,conservation_residual"


def test_sweep_outputs(tmp_path):
    code, out = _run(tmp_path, "sweep", FAST_SWEEP)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    items = [n for n in names if "-item-" in n]
    assert len(items) == 3
    summary = json.loads((out / next(
        n for n in names if n.endswith(".json") and "-item-" not in n)).read_text())
    assert summary["results"]["axis"] == "tightness"
    assert summary["results"]["n_failed"] == 0
    assert "argmax_value" in summary["results"]


def test_validate_passes(tmp_path):
    out = tmp_path / "val"
    code = main(["validate", "--out", str(out)])
    assert code == 0
    payload = json.loads(next(out.glob("validate-*.json")).read_text())
    checks = {c["name"]: c["passed"] for c in payload["results"]["checks"]}
    assert checks["kernel-moment-laws"]
    assert checks["adjoint-duality"]
    assert checks["eigen-closed-form"]
    assert checks["conservation-books"]
    assert all(checks.values())


def test_validate_dump_operator(tmp_path):
    out = tmp_path / "vald"
    code = main(["validate", "--out", str(out), "--dump-operator"])
    assert code == 0
    dumped = list(out.glob("operator-*.csv"))
    assert len(dumped) == 1
    assert dumped[0].stat().st_size > 0


# --- failure paths ----------------------------------------------------------

def test_config_error_exits_2_with_error_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = eigen\nbogus = 1\n")
    out = tmp_path / "bad-out"
    code = main(["eigen", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = json.loads((out / "error-eigen.json").read_text())
    assert err["error_type"] == "ConfigError"
    assert any("bogus" in e for e in err["errors"])


def test_success_clears_stale_error_file(tmp_path):
    # a failed attempt leaves error-<cmd>.json; a later good run into the
    # same directory must not leave it lying around as a false alarm
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = eigen\nbogus = 1\n")
    out = tmp_path / "shared-out"
    assert main(["eigen", "--config", str(bad), "--out", str(out)]) == 2
    assert (out / "error-eigen.json").exists()
    good = tmp_path / "good.cfg"
    good.write_text(FAST_EIGEN)
    assert main(["eigen", "--config", str(good), "--out", str(out)]) == 0
    assert not (out / "error-eigen.json").exists()


def test_experiment_subcommand_mismatch(tmp_path):
    cfg = tmp_path / "mix.cfg"
    cfg.write_text(FAST_STEADY)
    out = tmp_path / "mix-out"
    code = main(["eigen", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = json.loads((out / "error-eigen.json").read_text())
    assert "does not match" in err["errors"][0]


def test_sweep_axis_not_fitting_the_shape_is_a_config_error(tmp_path):
    # a tightness sweep needs a scaled_bell conversion; the default is
    # constant, so no item can run and the whole run is refused
    mismatch = "\n".join([
        "experiment = sweep",
        "sweep.axis = tightness",
        "sweep.values = 0.1, 0.2",
        "sweep.v_eval = 600",
        "grid.n = 100",
        "grid.xmax = 30",
        "",
    ])
    code, out = _run(tmp_path, "sweep", mismatch)
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == ["error-sweep.json"]
    err = json.loads((out / "error-sweep.json").read_text())
    assert err["error_type"] == "ConfigError"
    assert err["errors"] == [
        "config: tightness sweep requires a scaled_bell conversion shape"]


def test_error_file_goes_to_the_configured_output_dir(tmp_path, monkeypatch):
    # production 1 leaves no loss-rate root, so the run fails after parsing
    monkeypatch.chdir(tmp_path)
    Path("noroot.cfg").write_text("experiment = steady\nmodel.production = 1\n"
                                  "grid.n = 100\ngrid.xmax = 30\noutput.dir = o1\n")
    assert main(["steady", "--config", "noroot.cfg"]) == 2
    err = json.loads(Path("o1/error-steady.json").read_text())
    assert "no loss-rate root" in err["error"]
    assert not Path("out").exists()


def test_threads_key_must_be_one(tmp_path):
    code, out = _run(tmp_path, "sweep", FAST_SWEEP + "threads = 2\n")
    assert code == 2
    err = json.loads((out / "error-sweep.json").read_text())
    assert err["errors"] == ["config: threads must be 1 (sweeps run serially), got 2"]
    code, one = _run(tmp_path, "sweep", FAST_SWEEP + "threads = 1\n")
    assert code == 0
    (tmp_path / "plain").mkdir()
    _, plain = _run(tmp_path / "plain", "sweep", FAST_SWEEP)
    assert _tree_bytes(one) == _tree_bytes(plain)


def test_threads_flag_is_a_usage_error(tmp_path):
    cfg = tmp_path / "sw.cfg"
    cfg.write_text(FAST_SWEEP)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x"),
              "--threads", "2"])
    assert exc.value.code == 2


def test_missing_config_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eigen", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


# --- determinism -----------------------------------------------------------

def _tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_byte_identical_reruns(tmp_path):
    _, out1 = _run(tmp_path, "simulate", FAST_SIMULATE)
    cfg = tmp_path / "simulate.cfg"
    out2 = tmp_path / "rerun-out"
    main(["simulate", "--config", str(cfg), "--out", str(out2)])
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_dose_sweep_follows_the_log_law(tmp_path):
    # C7's grid; at t_end 120 the 0.25 dose would cross only at day 119.96
    body = "\n".join([
        "experiment = sweep",
        "sweep.axis = dose",
        "sweep.values = 0.25, 1, 4",
        "sweep.t_end = 150",
        "grid.n = 400",
        "grid.xmax = 60",
        "",
    ])
    code, out = _run(tmp_path, "sweep", body)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    summary = json.loads((out / next(
        n for n in names if n.endswith(".json") and "-item-" not in n)).read_text())
    res = summary["results"]
    assert res["n_failed"] == 0
    assert abs(res["slope_fitted"] - res["slope_predicted"]) \
        <= 0.10 * abs(res["slope_predicted"])
    largest = json.loads((out / next(n for n in names if "-item-02" in n)).read_text())
    assert largest["results"]["threshold"] == pytest.approx(
        1e3 * largest["results"]["rho0"], rel=1e-12)


def test_peak_center_items_carry_root_counters(tmp_path):
    cfg = tmp_path / "peak.cfg"
    cfg.write_text(FAST_PEAK_SWEEP)
    out1 = tmp_path / "pk1"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    items = sorted(p for p in out1.iterdir() if "-item-" in p.name)
    assert len(items) == 2
    for p in items:
        diag = json.loads(p.read_text())["diagnostics"]
        assert 0 < diag["root_evaluations"] <= diag["root_iterations"] + 1


def _fig6_at(tmp_path, n, values=None):
    """configs/fig6.cfg on an n-cell grid, optionally with other slopes."""
    text = (CONFIG_DIR / "fig6.cfg").read_text().replace("grid.n = 800",
                                                         "grid.n = %d" % n)
    if values is not None:
        text = text.replace("sweep.values = 0.0314, 0.0471, 0.0628",
                            "sweep.values = " + values)
    cfg = tmp_path / "fig6.cfg"
    cfg.write_text(text)
    return cfg


def test_integration_counters_explain_steps_and_rejections(tmp_path):
    cfg = _fig6_at(tmp_path, 200, values="0.0314, 0.0628")
    out1 = tmp_path / "f1"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    diags = [json.loads(p.read_text())["diagnostics"]
             for p in sorted(out1.glob("*-item-*.json"))]
    # slope 0.0628: counts the event-landing rule must leave unchanged
    assert (diags[1]["steps"], diags[1]["rejections"]) == (4275, 20)
    for d in diags:
        assert sum(d["steps_by_limit"].values()) == d["steps"]
        assert sum(d["rejections_by_stage"].values()) == d["rejections"]
        assert 0 < d["halved_steps"] < d["steps"]
        # one landing on the probe day, one on t_end
        assert d["steps_by_limit"]["event"] == 2


COSTLY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.signal")


def _fresh_python(*args):
    """Run a fresh interpreter that imports priondyn from this checkout."""
    import priondyn
    src = str(Path(priondyn.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})


def test_import_skips_costly_scipy_modules():
    # set-up time is mostly imports; these serve only rare paths and must
    # load on first use, not with the package
    proc = _fresh_python("-c", "import sys, priondyn; print(' '.join(m for m in "
                         "%r if m in sys.modules))" % (COSTLY_SCIPY,))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_steady_run_skips_costly_scipy_modules(tmp_path):
    # counting modes is numpy only: a whole steady run loads none of them
    cfg = tmp_path / "control.cfg"
    cfg.write_text((CONFIG_DIR / "fig3-control.cfg").read_text()
                   .replace("grid.n = 800", "grid.n = 200"))
    code = "\n".join([
        "import json, sys",
        "from pathlib import Path",
        "from priondyn.cli import main",
        "code = main(['steady', '--config', %r, '--out', %r])" % (str(cfg), str(tmp_path)),
        "rec = json.loads(next(Path(%r).glob('steady-*.json')).read_text())" % str(tmp_path),
        "print(code, rec['results']['n_modes'])",
        "print(' '.join(m for m in %r if m in sys.modules))" % (COSTLY_SCIPY,),
    ])
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    # exit code and mode count, then the costly modules loaded (none)
    assert proc.stdout.split("\n")[:2] == ["0 1", ""]


def test_integration_runs_load_no_scipy(tmp_path):
    # LAPACK loads at the first shifted solve; time stepping makes none
    cfg = _fig6_at(tmp_path, 100)
    code = "\n".join([
        "import sys",
        "def loaded():",
        "    return ' '.join(sorted(m for m in sys.modules if m.startswith('scipy')))",
        "import priondyn",
        "print(loaded())",
        "from priondyn.cli import main",
        "code = main(['sweep', '--config', %r, '--out', %r])" % (str(cfg), str(tmp_path)),
        "out = priondyn.compare_continuum(priondyn.default_calibration(),"
        " t_end=30.0, fit_window=(10.0, 25.0))",
        "print(code, out['growth_rel_diff'] < 0.05)",
        "print(loaded())",
    ])
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    # scipy modules after the import, exit code and check, scipy modules
    # after the sweep and the cross-check
    assert proc.stdout.split("\n")[:3] == ["", "0 True", ""]


@pytest.mark.parametrize("module", ["priondyn", "priondyn.cli"])
def test_module_entry_points_run_cleanly(module):
    proc = _fresh_python("-m", module, "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "eigen" in proc.stdout and "validate" in proc.stdout


def test_console_script_runs():
    import shutil
    exe = shutil.which("priondyn")
    cmd = [exe, "--help"] if exe else [sys.executable, "-m", "priondyn", "--help"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    # argparse prints usage and exits 0 on --help
    assert proc.returncode == 0
    assert "eigen" in proc.stdout and "validate" in proc.stdout


@pytest.mark.parametrize("demo", sorted(
    p.name for p in (CONFIG_DIR.parent / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = _fresh_python(str(CONFIG_DIR.parent / "demos" / demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
