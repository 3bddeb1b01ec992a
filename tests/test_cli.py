"""Command-line harness: files out, exit codes, reproducible bytes."""

import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priondyn import (CoefficientSet, IntegratorFailure, PolymerState, SizeGrid,
                      build_steady_state, cli, config, eigen)
from priondyn.cli import main
from priondyn.coefficients import SHAPES
from priondyn.records import canonical_json

from blas_compare import compare_trees

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
    assert diag["root_sign_tests"] > 0
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
    assert payload["diagnostics"]["dropped_snapshot_times"] == []
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


# a conversion that overflows where it is sampled, and one that overflows
# only over the cell widths of a grid narrow enough to pass the parser
OVERFLOWING_SAMPLE = ("model.conversion.shape = affine\n"
                      "model.conversion.intercept = 0.001\n"
                      "model.conversion.slope = 1e307\n"
                      "grid.xmax = 60\ngrid.n = 100\n")
OVERFLOWING_ENTRY = ("model.conversion.shape = constant\n"
                     "model.conversion.value = 1e200\n"
                     "grid.xmax = 5e-149\ngrid.n = 50\n")


@pytest.mark.parametrize("command, model", [
    ("steady", OVERFLOWING_SAMPLE), ("simulate", OVERFLOWING_SAMPLE),
    ("steady", OVERFLOWING_ENTRY), ("eigen", OVERFLOWING_ENTRY + "eigen.v_values = 1\n")],
    ids=["sample-steady", "sample-simulate", "entry-steady", "entry-eigen"])
def test_a_non_finite_rate_is_named(tmp_path, command, model):
    code, out = _run(tmp_path, command, "experiment = %s\n%s" % (command, model))
    assert code == 2
    err = json.loads((out / ("error-%s.json" % command)).read_text())
    assert err["error_type"] == "ValueError"
    assert err["error"].startswith("conversion ") and "not finite" in err["error"]


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
    # without splitting the loss rate has no root, so the run fails after
    # parsing
    monkeypatch.chdir(tmp_path)
    Path("noroot.cfg").write_text("experiment = steady\nmodel.fragmentation.shape = constant\n"
                                  "model.fragmentation.value = 0\n"
                                  "grid.n = 100\ngrid.xmax = 30\noutput.dir = o1\n")
    assert main(["steady", "--config", "noroot.cfg"]) == 2
    err = json.loads(Path("o1/error-steady.json").read_text())
    assert "no loss-rate root" in err["error"]
    assert not Path("out").exists()


@pytest.mark.parametrize("production", [1000.0, 100.0, 10.0, 1.0, 0.0])
def test_root_does_not_depend_on_production(tmp_path, production):
    # production enters vbar, not L(v): every production finds the same
    # v_inf, which lies below vbar only at production 1000
    ss = build_steady_state(CoefficientSet(production=production, clearance=4.0),
                            SizeGrid.uniform(30.0, 200))
    assert ss.v_inf == 83.07523780464544
    assert ss.exists == (production == 1000.0)
    code, out = _run(tmp_path, "steady", "experiment = steady\nmodel.production = %r\n"
                     "grid.n = 200\ngrid.xmax = 30\n" % production)
    assert code == 0
    results = _record(out, "steady-*.json")["results"]
    assert results["v_inf"] == 83.07523780464544
    assert results["exists"] == (production == 1000.0)


def test_root_below_a_turn_of_the_loss_rate_is_found(tmp_path):
    # the loss rate crosses zero near v = 8.3e-4 and turns positive again
    # below v = 1, where a ladder from 1 would start
    code, out = _run(tmp_path, "steady", "experiment = steady\n"
                     "model.conversion.shape = constant\nmodel.conversion.value = 100\n"
                     "grid.n = 200\ngrid.xmax = 30\n")
    assert code == 0
    record = _record(out, "steady-*.json")
    assert record["results"]["v_inf"] == pytest.approx(8.3075e-4, rel=1e-4)
    assert record["diagnostics"]["root_sign_tests"] <= 32


def test_zero_loss_rate_at_zero_level_fails_the_run(tmp_path):
    # no decay leaves the smallest cell with a zero loss rate at v=0, so no
    # positive level is a root: the run fails as a run without a root does
    code, out = _run(tmp_path, "steady",
                     "experiment = steady\nmodel.decay.shape = constant\n"
                     "model.decay.value = 0\ngrid.n = 100\ngrid.xmax = 30\n")
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == ["error-steady.json"]
    err = json.loads((out / "error-steady.json").read_text())
    assert err["error"].startswith("no loss-rate root above v=0")


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


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["steady", "--config", "steady.cfg", "--seed", "1"],
])
def test_removed_command_and_flags_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("steady.cfg").write_text(FAST_STEADY)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("body, message", [
    ("experiment = validate\n", "experiment: must be one of eigen, steady, simulate, sweep"),
    (FAST_STEADY + "seed = 1\n", "unknown key 'seed'"),
], ids=["experiment-validate", "seed-key"])
def test_removed_config_values_exit_2(tmp_path, body, message):
    code, out = _run(tmp_path, "steady", body)
    assert code == 2
    err = json.loads((out / "error-steady.json").read_text())
    assert err["error_type"] == "ConfigError"
    assert any(message in e for e in err["errors"])


def test_every_experiment_has_a_runner():
    assert set(cli._RUNNERS) == set(config.EXPERIMENTS)


@pytest.mark.parametrize("name, body, key", [
    ("sweep", "sweep.axis = frag_slope\nsweep.values =\n", "sweep.values"),
    ("eigen", "eigen.v_values =\n", "eigen.v_values"),
], ids=["frag_slope", "eigen"])
def test_empty_value_lists_are_config_errors(tmp_path, name, body, key):
    code, out = _run(tmp_path, name, "experiment = %s\ngrid.n = 50\n%s" % (name, body))
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == ["error-%s.json" % name]
    err = json.loads((out / ("error-%s.json" % name)).read_text())
    assert err["errors"] == ["config: %s must list at least one value" % key]


RETIRED_KEYS = ("eigen.tol", "sweep.t_end", "sweep.record_every",
                "sweep.threshold_ratio", "sweep.probe_time")
SHAPE_PARAMS = sorted({"%s.%s" % (prefix, f.name)
                       for prefix in config._SHAPE_PREFIXES
                       for cls in SHAPES.values() for f in dataclasses.fields(cls)})
# every scalar key whose parser rejects a word, and words no parser takes
TYPED_KEYS = sorted(k for k, (_, tag, _) in config._SCALAR_KEYS.items() if tag != "str")
JUNK_VALUES = ("x", "one", "1.2.3", "--1", "1e", "0x10", "true1", "2,,x",
               "nan", "inf", "-inf", "1e999")
FLOAT_KEYS = sorted(k for k, (_, tag, _) in config._SCALAR_KEYS.items()
                    if tag in ("float", "floatlist"))
CONFIG_BASES = {
    "eigen": FAST_EIGEN, "steady": FAST_STEADY, "simulate": FAST_SIMULATE,
    "sweep": FAST_SWEEP, "peak": FAST_PEAK_SWEEP,
    **{p.stem: p.read_text().replace("grid.n = 800", "grid.n = 50")
       for p in sorted(CONFIG_DIR.glob("*.cfg"))},
}


def _is_unknown(key):
    return key not in config._SCALAR_KEYS and not key.startswith(
        tuple(p + "." for p in config._SHAPE_PREFIXES))


@st.composite
def _bad_line(draw, base_lines):
    """(line, kind): a malformed, unknown, duplicated or badly valued line."""
    kind = draw(st.sampled_from(["malformed", "unknown", "duplicate", "value"]))
    if kind == "malformed":
        text = draw(st.text(alphabet=string.ascii_letters + string.digits + " ._-",
                            min_size=1, max_size=20).filter(str.strip))
        return text, kind
    if kind == "unknown":
        key = draw(st.one_of(
            st.sampled_from(RETIRED_KEYS),
            st.from_regex(r"[a-z][a-z_]{0,7}(\.[a-z][a-z_]{0,7}){0,2}",
                          fullmatch=True).filter(_is_unknown)))
        return "%s = 1" % key, kind
    if kind == "duplicate":
        return draw(st.sampled_from([ln for ln in base_lines
                                     if "=" in ln and not ln.startswith("#")])), kind
    key = draw(st.sampled_from(TYPED_KEYS + SHAPE_PARAMS))
    return "%s = %s" % (key, draw(st.sampled_from(JUNK_VALUES))), kind


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), base=st.sampled_from(sorted(CONFIG_BASES)))
def test_any_bad_line_is_a_config_error(tmp_path_factory, data, base):
    # a config with at least one malformed, unknown, duplicated or badly
    # valued line exits 2 before any run, with every problem in its
    # error file and each malformed or unknown line named by its number
    text = CONFIG_BASES[base]
    command = next(ln.split("=")[1].strip() for ln in text.splitlines()
                   if ln.startswith("experiment"))
    lines = [(ln, None) for ln in text.splitlines()]
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        at = data.draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(at, data.draw(_bad_line(text.splitlines())))
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    cfg = work / "bad.cfg"
    cfg.write_text("\n".join(ln for ln, _ in lines) + "\n")
    out = work / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["error-%s.json" % command]
    err = json.loads((out / ("error-%s.json" % command)).read_text())
    assert err["error_type"] == "ConfigError"
    assert err["errors"]
    for number, (_, kind) in enumerate(lines, start=1):
        if kind in ("malformed", "unknown"):
            assert any(e.startswith("line %d: " % number) for e in err["errors"])


@pytest.mark.parametrize("key", FLOAT_KEYS + SHAPE_PARAMS)
def test_nonfinite_numbers_are_config_errors(key):
    # nan and the infinities parse as floats; no run can use them
    lines = ["experiment = eigen"]
    prefix, _, param = key.rpartition(".")
    if prefix in config._SHAPE_PREFIXES:
        shape = next(name for name, cls in SHAPES.items()
                     if param in {f.name for f in dataclasses.fields(cls)})
        lines.append("%s.shape = %s" % (prefix, shape))
    listed = config._SCALAR_KEYS.get(key, (None, "float"))[1] == "floatlist"
    for word in ("nan", "inf", "-inf", "1e999"):
        value = "1, " + word if listed else word
        with pytest.raises(config.ConfigError) as info:
            config.parse_config("\n".join(lines + ["%s = %s" % (key, value)]))
        assert "line %d: %s: must be a finite number" % (len(lines) + 1, key) \
            in info.value.errors


# --- determinism -----------------------------------------------------------

def _tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_byte_identical_reruns(tmp_path):
    _, out1 = _run(tmp_path, "simulate", FAST_SIMULATE)
    cfg = tmp_path / "simulate.cfg"
    out2 = tmp_path / "rerun-out"
    main(["simulate", "--config", str(cfg), "--out", str(out2)])
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_timings_are_written_only_on_request(tmp_path):
    # the integrating items of a sweep read the simulate.* keys; timings
    # reach the run record and every item record only when asked for
    body = "\n".join([
        "experiment = sweep",
        "sweep.axis = frag_slope",
        "sweep.values = 0.03, 0.06",
        "simulate.t_end = 2.0",
        "simulate.record_every = 3",
        "simulate.threshold_ratio = 10",
        "grid.xmax = 60.0",
        "grid.n = 60",
        "",
    ])
    runs = {}
    for name, extra in (("timed", "output.timings = true\n"), ("plain", ""),
                        ("rerun", "")):
        (tmp_path / name).mkdir()
        code, runs[name] = _run(tmp_path / name, "sweep", body + extra)
        assert code == 0
    timed, plain = _tree_bytes(runs["timed"]), _tree_bytes(runs["plain"])
    assert sorted(timed) == sorted(plain)
    records = {n: json.loads(b) for n, b in timed.items() if n.endswith(".json")}
    assert len(records) == 3
    for rec in records.values():
        assert rec["diagnostics"]["timings"]["seconds"] >= 0.0
    for n, b in plain.items():
        if n.endswith(".json"):
            assert "timings" not in json.loads(b)["diagnostics"]
        else:
            assert b == timed[n]
    assert plain == _tree_bytes(runs["rerun"])
    item = json.loads(next(runs["plain"].glob("*-item-00.json")).read_text())
    res = item["results"]
    assert res["times"][-1] == 2.0
    assert len(res["times"]) == 1 + -(-item["diagnostics"]["steps"] // 3)
    assert res["threshold"] == pytest.approx(10.0 * res["rho0"], rel=1e-12)


@pytest.mark.parametrize("name, body", [
    ("eigen", FAST_EIGEN), ("steady", FAST_STEADY), ("simulate", FAST_SIMULATE),
])
def test_timings_reach_the_run_record_only_on_request(tmp_path, name, body):
    # the one record of a run carries its wall-clock seconds only when
    # output.timings is set; every other byte of the run is unchanged
    runs = {}
    for tag, extra in (("timed", "output.timings = true\n"), ("plain", "")):
        (tmp_path / tag).mkdir()
        code, out = _run(tmp_path / tag, name, body + extra)
        assert code == 0
        runs[tag] = _tree_bytes(out)
    timed, plain = runs["timed"], runs["plain"]
    assert sorted(timed) == sorted(plain)
    (record,) = [n for n in plain if n.endswith(".json")]
    assert "timings" not in json.loads(plain[record])["diagnostics"]
    diag = json.loads(timed[record])["diagnostics"]
    assert diag.pop("timings")["seconds"] >= 0.0
    assert diag == json.loads(plain[record])["diagnostics"]
    assert {n: b for n, b in timed.items() if n != record} == \
        {n: b for n, b in plain.items() if n != record}


def test_dose_is_not_a_sweep_axis(tmp_path):
    # every axis edits one rate parameter; a dose law is seed_state's scale
    body = "experiment = sweep\nsweep.axis = dose\nsweep.values = 1, 4\ngrid.n = 50\n"
    code, out = _run(tmp_path, "sweep", body)
    assert code == 2
    assert [p.name for p in out.iterdir()] == ["error-sweep.json"]
    err = json.loads((out / "error-sweep.json").read_text())
    assert err["error_type"] == "ConfigError"
    assert err["errors"][0] == ("line 2: sweep.axis: must be one of bell_amplitude, "
                                "frag_slope, tightness, peak_center")


@pytest.mark.parametrize("name, body", [
    ("steady", "experiment = steady\n"),
    ("sweep", "experiment = sweep\nsweep.axis = bell_amplitude\nsweep.values = 0.01\n"),
], ids=["steady", "bell_amplitude"])
def test_zero_bell_width_is_a_config_error(tmp_path, name, body):
    # width_sq divides the exponent: a zero width is refused at parse time
    # rather than dividing by zero in the run
    bell = "\n".join([
        "model.conversion.shape = bell",
        "model.conversion.base = 0.001",
        "model.conversion.amplitude = 0.01",
        "model.conversion.center = 2",
        "model.conversion.width_sq = 0",
        "grid.n = 50",
        "",
    ])
    code, out = _run(tmp_path, name, body + bell)
    assert code == 2
    assert [p.name for p in out.iterdir()] == ["error-%s.json" % name]
    err = json.loads((out / ("error-%s.json" % name)).read_text())
    line = len(body.splitlines()) + 5
    assert err["errors"] == ["line %d: model.conversion.width_sq must be greater "
                             "than 0, got 0" % line]


@pytest.mark.parametrize("name, body, error", [
    ("steady", FAST_SWEEP.replace("experiment = sweep", "experiment = steady")
     .replace("sweep.axis = tightness\nsweep.values = 0.05, 0.2, 0.8\n"
              "sweep.v_eval = 600.0\n", "")
     .replace("tightness = 0.1", "tightness = 0"),
     "line 4: model.conversion.tightness must be greater than 0, got 0"),
    ("sweep", FAST_SWEEP.replace("0.05, 0.2, 0.8", "0, 0.2"),
     "line 3: sweep.values must be greater than 0, the bound of "
     "model.conversion.tightness that a tightness sweep sets, got 0, 0.2"),
], ids=["steady", "tightness"])
def test_zero_tightness_is_a_config_error(tmp_path, name, body, error):
    # a scaled bell of tightness 0 has no bump left to carry its unit area:
    # refused at parse time rather than run as the base rate alone
    code, out = _run(tmp_path, name, body)
    assert code == 2
    assert [p.name for p in out.iterdir()] == ["error-%s.json" % name]
    err = json.loads((out / ("error-%s.json" % name)).read_text())
    assert err["errors"] == [error]


def test_zero_clearance_tightness_sweep_names_the_level(tmp_path):
    # with no sweep.v_eval the items would read the loss rate at vbar,
    # which is infinite here: the config is refused before any item runs
    body = FAST_SWEEP.replace("sweep.v_eval = 600.0\n", "model.clearance = 0\n")
    code, out = _run(tmp_path, "sweep", body)
    assert code == 2
    assert [p.name for p in out.iterdir()] == ["error-sweep.json"]
    err = json.loads((out / "error-sweep.json").read_text())
    assert err["error_type"] == "ConfigError"
    assert err["errors"] == ["config: sweep.v_eval is required at zero clearance, "
                             "where vbar is infinite"]


@pytest.mark.parametrize("name, body", [
    ("simulate", "experiment = simulate\n"),
    ("sweep", "experiment = sweep\nsweep.axis = frag_slope\nsweep.values = 0.03\n"),
], ids=["simulate", "frag_slope"])
def test_zero_clearance_outbreak_needs_a_starting_level(tmp_path, name, body):
    # the monomer starts at vbar unless simulate.v_init says otherwise
    code, out = _run(tmp_path, name, body + "model.clearance = 0\ngrid.n = 50\n")
    assert code == 2
    err = json.loads((out / ("error-%s.json" % name)).read_text())
    assert err["error_type"] == "ConfigError"
    assert err["errors"] == ["config: simulate.v_init is required at zero clearance, "
                             "where vbar is infinite"]


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
        assert diag["root_sign_tests"] > 0


def _record(out, pattern):
    return json.loads(next(out.glob(pattern)).read_text())


def test_peak_center_items_record_what_a_steady_run_records(tmp_path):
    # an item runs the steady runner's code on the edited coefficients
    code, sweep_out = _run(tmp_path, "sweep",
                           FAST_PEAK_SWEEP.replace("1.667, 4.167", "1.667"))
    assert code == 0
    steady = FAST_PEAK_SWEEP.replace("experiment = sweep", "experiment = steady")
    steady = "\n".join(ln for ln in steady.splitlines() if not ln.startswith("sweep."))
    code, steady_out = _run(tmp_path, "steady",
                            steady.replace("center = 2.5", "center = 1.667"))
    assert code == 0
    item = _record(sweep_out, "sweep-*-item-00.json")
    run = _record(steady_out, "steady-*.json")
    assert item["results"] == run["results"]
    assert "necessary_condition_met" in item["results"]
    assert item["diagnostics"] == run["diagnostics"]
    assert "root_loss_rate" in item["diagnostics"]


def test_snapshot_instants_not_taken_are_recorded_as_dropped(tmp_path):
    # a warning in the record, not a config error: the default snapshot
    # day 96 lies past many a short run's end.  Instants before the start
    # are dropped too
    code, out = _run(tmp_path, "simulate", "\n".join([
        "experiment = simulate", "simulate.t_end = 6", "simulate.snapshot_times = 3, 96",
        "grid.n = 100", "grid.xmax = 60.0", ""]))
    assert code == 0
    run = _record(out, "simulate-*[0-9a-f].json")
    assert run["results"]["snapshot_times"] == [3.0]
    assert run["diagnostics"]["dropped_snapshot_times"] == [96.0]
    (tmp_path / "early").mkdir()
    code, out = _run(tmp_path / "early", "simulate", "\n".join([
        "experiment = simulate", "simulate.t_end = 6",
        "simulate.snapshot_times = -1, 0, 6", "grid.n = 100", "grid.xmax = 60.0", ""]))
    assert code == 0
    run = _record(out, "simulate-*[0-9a-f].json")
    assert run["results"]["snapshot_times"] == [0.0, 6.0]
    assert run["diagnostics"]["dropped_snapshot_times"] == [-1.0]
    code, out = _run(tmp_path, "sweep", "\n".join([
        "experiment = sweep", "sweep.axis = bell_amplitude", "sweep.values = 0.01",
        "simulate.t_end = 2", "model.conversion.shape = bell",
        "model.conversion.base = 0.001", "model.conversion.amplitude = 0.01",
        "model.conversion.center = 2.0", "model.conversion.width_sq = 0.1",
        "grid.n = 80", "grid.xmax = 30.0", ""]))
    assert code == 0
    item = _record(out, "sweep-*-item-00.json")
    assert item["results"]["snapshot_times"] == []
    assert item["diagnostics"]["dropped_snapshot_times"] == [96.0]


def _failing_integrate(coeffs, grid, initial, *args, **kwargs):
    state = PolymerState(v=123.0, u=initial.u, grid=grid, t=3.5)
    raise IntegratorFailure("non-finite state at t=3.5", state=state)


def test_simulate_records_an_integrator_failure(tmp_path, monkeypatch):
    # the run records the last valid state the failure carries
    monkeypatch.setattr(cli, "integrate", _failing_integrate)
    code, out = _run(tmp_path, "simulate", "\n".join([
        "experiment = simulate", "grid.n = 100", ""]))
    assert code == 1
    names = [p.name for p in out.iterdir()]
    assert len(names) == 1 and names[0].startswith("simulate-")
    run = _record(out, "simulate-*.json")
    assert run["results"] == {"failed_at": 3.5, "v_last": 123.0}
    assert run["diagnostics"]["error"] == "non-finite state at t=3.5"
    assert run["diagnostics"]["error_type"] == "IntegratorFailure"


FAST_FRAG_SWEEP = "\n".join([
    "experiment = sweep", "sweep.axis = frag_slope", "sweep.values = 0.0471",
    "simulate.t_end = 8.0", "grid.xmax = 60.0", "grid.n = 100", ""])


def test_sweep_item_records_an_integrator_failure(tmp_path, monkeypatch):
    # an integrating item records the failure as a simulate run does
    monkeypatch.setattr(cli, "integrate", _failing_integrate)
    code, out = _run(tmp_path, "sweep", FAST_FRAG_SWEEP)
    assert code == 0
    item = _record(out, "sweep-*-item-00.json")
    assert item["results"] == {"failed_at": 3.5, "v_last": 123.0}
    assert item["diagnostics"]["error"] == "non-finite state at t=3.5"
    assert item["diagnostics"]["error_type"] == "IntegratorFailure"
    assert "grid_hash" in item["diagnostics"]
    summary = _record(out, "sweep-*[0-9a-f].json")
    assert summary["results"]["n_failed"] == 1
    assert summary["results"]["t_incubation"] == [None]


def test_sweep_item_with_no_inoculum_records_no_incubation(tmp_path):
    # a zero inoculum never crosses a threshold: no error, as in a simulate run
    code, out = _run(tmp_path, "sweep",
                     FAST_FRAG_SWEEP + "simulate.seed_scale = 0\n")
    assert code == 0
    item = _record(out, "sweep-*-item-00.json")
    assert "error" not in item["diagnostics"]
    assert item["results"]["rho0"] == 0.0
    assert not {"threshold", "t_incubation", "measured_growth_rate"} & set(item["results"])
    assert _record(out, "sweep-*[0-9a-f].json")["results"]["n_failed"] == 0


@pytest.mark.parametrize("t_end, requested", [
    ("200", "5, 5.000000000001"), ("200", "1e-13"), ("200", "1.5e-12"), ("6", "1e-13")])
def test_each_requested_instant_gives_one_snapshot(tmp_path, t_end, requested):
    # instants closer than the smallest step (1e-14*max(1, t_end)) to the
    # current time are taken there, without a step
    code, out = _run(tmp_path, "simulate", "\n".join([
        "experiment = simulate", "simulate.t_end = " + t_end,
        "simulate.snapshot_times = " + requested, "grid.n = 100",
        "grid.xmax = 60", ""]))
    assert code == 0
    run = _record(out, "simulate-*[0-9a-f].json")
    wanted = [float(s) for s in requested.split(",")]
    assert run["results"]["snapshot_times"] == wanted
    assert run["diagnostics"]["dropped_snapshot_times"] == []
    assert len(list(out.glob("*-snap-*.csv"))) == len(wanted)
    assert run["results"]["t_end"] == float(t_end)


@pytest.mark.parametrize("dt_max", ["0", "-1", "1e-20", "1.9e-12"])
def test_dt_max_below_the_smallest_step_is_a_config_error(tmp_path, dt_max):
    # t_end = 200: integrate's smallest step is 2e-12
    code, out = _run(tmp_path, "simulate", "\n".join([
        "experiment = simulate", "simulate.dt_max = " + dt_max, "grid.n = 100", ""]))
    assert code == 2
    err = json.loads((out / "error-simulate.json").read_text())
    assert err["errors"] == ["config: simulate.dt_max must be at least 1e-14*max(1, "
                             "simulate.t_end) = 2e-12, got %g" % float(dt_max)]


def _short_grid(x0, xmax):
    """A 50-cell steady run on [x0, xmax]: the fig3 bump at x0 = 0."""
    lines = ["experiment = steady", "grid.n = 50", "grid.xmax = %r" % xmax]
    if x0 == 0.0:
        lines += [line for line in (CONFIG_DIR / "fig3.cfg").read_text().splitlines()
                  if line.startswith("model.")]
    return "\n".join(lines + ["model.x0 = %r" % x0, ""])


@pytest.mark.parametrize("x0, xmax", [(0.0, 1e-300), (1.0, 1.000000000000001)])
def test_grid_too_short_for_its_cells_is_a_config_error(tmp_path, x0, xmax):
    # the cells would be too narrow for normal floats: 0/0 in the
    # generator at x0 = 0, collapsed cell centres at x0 = 1
    floor = x0 + 50 * max(1e-150, 2.0 ** -26 * x0)
    code, out = _run(tmp_path, "steady", _short_grid(x0, xmax))
    assert code == 2
    err = json.loads((out / "error-steady.json").read_text())
    assert err["errors"] == ["config: grid.xmax must be at least model.x0 + grid.n*max("
                             "1e-150, 2**-26*model.x0) = %.17g, got %.17g" % (floor, xmax)]
    code, out = _run(tmp_path, "steady", _short_grid(x0, float(np.nextafter(floor, 0.0))))
    assert json.loads((out / "error-steady.json").read_text())["errors"][0].startswith(
        "config: grid.xmax must be at least")


@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_grid_at_the_width_floor_runs(tmp_path, x0):
    # every polymer leaves through xmax at once, so the loss rate has no
    # root: the solver says so instead of failing on the grid.  The ladder
    # stops where v*max(conv/h) reaches 1e150: h is 1e-150 at x0 = 0 and
    # 2**-26 at x0 = 1, conv 0.001 at both
    cap = {0.0: "1000", 1.0: "1.49012e+145"}[x0]
    floor = x0 + 50 * max(1e-150, 2.0 ** -26 * x0)
    code, out = _run(tmp_path, "steady", _short_grid(x0, floor))
    assert code == 2
    err = json.loads((out / "error-steady.json").read_text())
    assert err["error_type"] == "ValueError"
    assert err["error"] == ("no loss-rate root in (0, %s): the loss rate stays "
                            "positive up to the float-range cap" % cap)


EXTREME_STEADY = {
    # a bump that falls between the cell centres, so narrow that its
    # analytic curvature is NaN or overflows: the sampled conversion is
    # flat, so the curvature condition reads False
    "bell-width_sq-1e-200": [
        "model.conversion.shape = bell", "model.conversion.base = 0.001",
        "model.conversion.amplitude = 0.1", "model.conversion.center = 2.0",
        "model.conversion.width_sq = 1e-200", "grid.xmax = 60.0", "grid.n = 50"],
    "scaled_bell-tightness-1e103": [
        "model.conversion.shape = scaled_bell", "model.conversion.base = 0.001",
        "model.conversion.tightness = 1e103", "model.conversion.center = 2.0",
        "grid.xmax = 60.0", "grid.n = 50"],
    # two cells have no interior second difference, three have one
    "n2": ["grid.n = 2"],
    "n3": ["grid.n = 3"],
}


@pytest.mark.parametrize("case", sorted(EXTREME_STEADY))
def test_steady_reads_the_curvature_of_the_sampled_conversion(tmp_path, case):
    cfg = tmp_path / "steady.cfg"
    cfg.write_text("\n".join(["experiment = steady", *EXTREME_STEADY[case], ""]))
    out = tmp_path / "out"
    proc = _fresh_python("-W", "error", "-m", "priondyn", "steady",
                         "--config", str(cfg), "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    record = json.loads(next(out.glob("steady-*.json")).read_text())
    assert record["results"]["necessary_condition_met"] is False


def test_frag_slope_items_integrate_as_a_simulate_run_does(tmp_path):
    common = ["simulate.t_end = 8.0", "simulate.snapshot_times = 4.0",
              "simulate.threshold_ratio = 2", "simulate.record_every = 2",
              "grid.xmax = 60.0", "grid.n = 100", ""]
    code, sweep_out = _run(tmp_path, "sweep", "\n".join([
        "experiment = sweep", "sweep.axis = frag_slope", "sweep.values = 0.0471",
        *common]))
    assert code == 0
    code, sim_out = _run(tmp_path, "simulate", "\n".join([
        "experiment = simulate", "model.fragmentation.shape = affine",
        "model.fragmentation.intercept = 0", "model.fragmentation.slope = 0.0471",
        *common]))
    assert code == 0
    item = _record(sweep_out, "sweep-*-item-00.json")
    run = _record(sim_out, "simulate-*[0-9a-f].json")
    for key in ("rho0", "threshold", "t_incubation", "measured_growth_rate",
                "snapshot_times"):
        assert item["results"][key] == run["results"][key]
    assert item["results"]["t_incubation"] is not None
    # the item's profile is the run's snapshot scaled to unit count
    # a contiguous copy, as the run's snapshot was: the dot products then agree
    snap = np.loadtxt(next(sim_out.glob("*-snap-00.csv")), delimiter=",",
                      skiprows=1)[:, 1].copy()
    widths = SizeGrid.uniform(60.0, 100).widths
    np.testing.assert_array_equal(item["results"]["snapshot_profiles"],
                                  [snap / (snap @ widths)])
    run["diagnostics"].pop("growth_fit_skipped")
    assert item["diagnostics"] == run["diagnostics"]


@pytest.mark.parametrize("name", ["fig5", "fig6"])
def test_record_every_thins_the_written_rows_only(name):
    # the crossing and the growth fit read every step; the key picks which
    # rows an item writes: rows 0, 4, 8, ... and the last
    base = dataclasses.replace(
        config.parse_config((CONFIG_DIR / (name + ".cfg")).read_text()), n=100)
    every = {k: cli.sweep(dataclasses.replace(base, record_every=k)) for k in (1, 4)}
    for full, thinned in zip(every[1], every[4]):
        assert "error" not in full.diagnostics
        for key in ("t_incubation", "measured_growth_rate"):
            assert thinned.results[key] == full.results[key] is not None
        steps = full.diagnostics["steps"]
        rows = sorted(set(range(0, steps + 1, 4)) | {steps})
        for key in ("times", "rho_series", "v_series"):
            np.testing.assert_array_equal(thinned.results[key], full.results[key][rows])


def test_one_row_of_sweep_axes_makes_an_axis(tmp_path, monkeypatch):
    # an outbreak axis that moves the bump needs its row and nothing else:
    # its items integrate and the sweep table carries the outbreak columns
    monkeypatch.setitem(config.SWEEP_AXES, "bump_center",
                        ("outbreak", "conversion", "bell", "center"))
    base = config.parse_config((CONFIG_DIR / "fig5.cfg").read_text())
    cfg = dataclasses.replace(base, n=60, t_end=5.0, sweep_axis="bump_center",
                              sweep_values=(1.5, 2.5))
    summary, _, code = cli._run_sweep(cfg, tmp_path, "row")
    assert (code, summary["n_failed"]) == (0, 0)
    items = [json.loads((tmp_path / ("sweep-row-item-%02d.json" % k)).read_text())
             for k in range(2)]
    for item in items:
        assert {"rho0", "t_incubation", "times"} <= set(item["results"])
        assert item["diagnostics"]["steps"] > 0
    # each item integrated its own bump
    assert items[0]["results"]["rho_series"] != items[1]["results"]["rho_series"]
    header = (tmp_path / "sweep-row.csv").read_text().splitlines()[0]
    assert header == "value,rho0,t_incubation,measured_growth_rate"


@pytest.mark.parametrize("name, body", [
    ("steady", (CONFIG_DIR / "fig3.cfg").read_text()),
    ("sweep", FAST_PEAK_SWEEP),
])
def test_eigen_tol_reaches_the_root_search(tmp_path, monkeypatch, name, body):
    # the root's one eigen solve reads eigen.DEFAULT_TOL when it runs: at a
    # tolerance no residual meets it fails, and the error names v_inf, the
    # level the sign tests chose at the default tolerance
    def run(tag):
        (tmp_path / tag).mkdir()
        return _run(tmp_path / tag, name, body)

    def records(out):
        return [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))
                if name == "steady" or "-item-" in p.name]

    code, out = run("default")
    assert code == 0
    levels = ["level v=%g " % r["results"]["v_inf"] for r in records(out)]
    monkeypatch.setattr(eigen, "DEFAULT_TOL", 0.0)
    code, out = run("unattainable")
    if name == "steady":
        assert code == 2
        errors = [json.loads((out / "error-steady.json").read_text())]
    else:
        assert code == 0
        errors = [r["diagnostics"] for r in records(out)]
    assert [e["error_type"] for e in errors] == ["EigenConvergenceError"] * len(levels)
    assert all(level in e["error"] for level, e in zip(levels, errors)), errors


def test_tightness_item_without_interior_peak_locates_its_mode(tmp_path):
    # at a near-zero level the profile decreases from its first cell, so it
    # has no interior maximum: the one mode counted is the global maximum,
    # and its location is recorded
    body = "\n".join([
        "experiment = sweep",
        "sweep.axis = tightness",
        "sweep.values = 1.0",
        "sweep.v_eval = 0.01",
        "model.conversion.shape = scaled_bell",
        "model.conversion.base = 0.001",
        "model.conversion.tightness = 1",
        "model.conversion.center = 2",
        "grid.xmax = 30",
        "grid.n = 200",
        "",
    ])
    code, out = _run(tmp_path, "sweep", body)
    assert code == 0
    item = json.loads(next(out.glob("sweep-*-item-00.json")).read_text())
    assert item["results"]["n_modes"] == 1
    assert len(item["results"]["mode_locations"]) == 1


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
    # slope 0.0628: counts the event-landing rule must leave unchanged.
    # After the outbreak the monomer is stiff, and the ESDIRK monomer
    # stages keep the step from shortening for it
    assert (diags[1]["steps"], diags[1]["rejections"]) == (305, 0)
    # four per accepted step; no stage went negative
    assert diags[1]["rhs_evaluations"] == 1220
    for d in diags:
        assert sum(d["steps_by_limit"].values()) == d["steps"]
        # four per accepted step; a rejected step made one to four
        extra = d["rhs_evaluations"] - 4 * d["steps"]
        assert d["rejections"] <= extra <= 4 * d["rejections"]
        # one landing on the snapshot day, one on t_end
        assert d["steps_by_limit"]["event"] == 2


def test_fig5_monomer_level_does_not_oscillate():
    # the shipped amplitude-0.01 item; runs with dt_max 0.01, 0.005 and
    # 0.0025 agree on V = 73.38, 64.04 and 59.69 at days 160, 180 and 200.
    # A step that lets the monomer stage pass its stability limit records
    # 100.60, 115.18 and 60.47 instead
    text = (CONFIG_DIR / "fig5.cfg").read_text().replace(
        "sweep.values = 0.001, 0.01, 0.1", "sweep.values = 0.01")
    [item] = cli.sweep(config.parse_config(text))
    res = item.results
    v = np.interp([160.0, 180.0, 200.0], res["times"], res["v_series"])
    np.testing.assert_allclose(v, [73.38, 64.04, 59.69], atol=0.1)


COSTLY_SCIPY = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.signal")


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


def _solving_runs(tmp_path, tag, prelude=()):
    """An eigen and a steady run in one fresh interpreter.

    Returns the ``scipy`` modules loaded afterwards, and the directory
    written.
    """
    eigen_cfg, steady_cfg = tmp_path / "scan.cfg", tmp_path / "steady.cfg"
    eigen_cfg.write_text(FAST_EIGEN)
    steady_cfg.write_text(FAST_STEADY)
    out = tmp_path / tag
    code = "\n".join([
        *prelude,
        "import sys",
        "from priondyn.cli import main",
        "assert main(['eigen', '--config', %r, '--out', %r]) == 0" % (str(eigen_cfg), str(out)),
        "assert main(['steady', '--config', %r, '--out', %r]) == 0" % (str(steady_cfg), str(out)),
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))",
    ])
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split(), out


def test_solving_runs_load_no_scipy(tmp_path):
    # the shifted solves call the band LU in numpy's own OpenBLAS
    loaded, out = _solving_runs(tmp_path, "fast")
    assert loaded == []
    assert len(list(out.rglob("*.json"))) >= 2


def test_lapack_fallback_agrees_with_numpys_lapack(tmp_path):
    # with no symbol found in numpy's library, scipy.linalg.lapack serves
    # the solves instead: another OpenBLAS, so the floats keep the bounds
    # of tests/blas_compare.py and the counters are equal
    _, fast = _solving_runs(tmp_path, "fast")
    loaded, fallback = _solving_runs(
        tmp_path, "fallback",
        prelude=("from priondyn import operator",
                 "operator._lapack_symbols = lambda: None"))
    assert "scipy.linalg" in loaded
    assert compare_trees(fast, fallback) == []


def test_scipy_linalg_imports_cleanly_after_a_solve():
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from priondyn import CoefficientSet, Generator, SizeGrid",
        "gen = Generator(CoefficientSet(production=2400.0, clearance=4.0),"
        " SizeGrid.uniform(30.0, 60))",
        "b = np.linspace(1.0, 2.0, 60)",
        "x = gen.certify(100.0, 5.0, b)[0]",
        "print(not any(m.startswith('scipy') for m in sys.modules))",
        "import scipy.linalg",
        "w = scipy.linalg.eig(np.array([[2.0, 1.0], [0.0, 3.0]]), right=False)",
        "print(np.allclose(np.sort(w.real), [2.0, 3.0]))",
        "ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])",
        "print(np.allclose(scipy.linalg.solve_banded((1, 1), ab, [5.0, 6.0, 5.0]), 1.0))",
        "print(gen.certify(100.0, 5.0, b)[0].tobytes() == x.tobytes())",
    ])
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 4


def _src_trees():
    import priondyn
    for path in sorted(Path(priondyn.__file__).parent.rglob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _imports(tree):
    """Each import statement of a module with the dotted names it loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node, [node.module] + ["%s.%s" % (node.module, a.name)
                                         for a in node.names]


def test_no_module_under_src_has_an_unused_import():
    found = []
    for name, tree in _src_trees():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__" for target in node.targets):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                found += [(name, a.asname or a.name.split(".")[0]) for a in node.names
                          if (a.asname or a.name.split(".")[0]) not in used]
    assert found == []


def test_no_module_under_src_imports_the_test_side():
    # the oracles check the package, so the package must not read them
    found = [(name, n) for name, tree in _src_trees() for _, names in _imports(tree)
             for n in names if n.split(".")[0] in ("tests", "oracle")]
    assert found == []


def test_only_the_lapack_fallback_imports_scipy_linalg():
    # every solve goes through operator._BandLU.solve, which reaches scipy
    # only when numpy's library lacks the routines
    found = []
    for name, tree in _src_trees():
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node, names in _imports(tree):
            if any(n == "scipy.linalg" or n.startswith("scipy.linalg.") for n in names):
                owners = [f.name for f in functions
                          if f.lineno <= node.lineno <= f.end_lineno]
                found.append((name, owners[-1] if owners else None))
    assert found == [("operator.py", "solve")]


BUILTIN_SHA256 = any(importlib.util.find_spec(m) is not None
                     for m in ("_sha2", "_sha256"))


def _hashing_runs(tmp_path, tag, prelude=()):
    """fig2, fig3 and one fig6 item at n=100 and the chain cross-check in
    one fresh interpreter.

    Returns whether OpenSSL's ``_hashlib`` was loaded afterwards, the
    configs run by command, and the bytes written, by relative path.
    """
    configs = {}
    for command, name in (("eigen", "fig2"), ("steady", "fig3")):
        configs[command] = tmp_path / (name + ".cfg")
        configs[command].write_text((CONFIG_DIR / (name + ".cfg")).read_text()
                                    .replace("grid.n = 800", "grid.n = 100"))
    configs["sweep"] = _fig6_at(tmp_path, 100, values="0.0628")
    out = tmp_path / tag
    code = "\n".join([
        *prelude,
        "import sys",
        "import priondyn",
        "from priondyn.cli import main",
        *("assert main([%r, '--config', %r, '--out', %r]) == 0"
          % (command, str(cfg), str(out)) for command, cfg in configs.items()),
        "priondyn.compare_continuum(priondyn.default_calibration(),"
        " t_end=30.0, fit_window=(10.0, 25.0))",
        "print('_hashlib' in sys.modules)",
    ])
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    written = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    return proc.stdout.strip(), configs, written


@pytest.mark.skipif(not BUILTIN_SHA256, reason="no built-in SHA-256 module")
def test_runs_hash_without_openssl(tmp_path):
    loaded, configs, written = _hashing_runs(tmp_path, "builtin")
    assert loaded == "False"
    for command, cfg_path in configs.items():
        cfg = config.parse_config(cfg_path.read_text())
        tag = hashlib.sha256(canonical_json(config.config_echo(cfg)).encode()
                             ).hexdigest()[:10]
        grid = cfg.make_grid()
        expected = hashlib.sha256(grid.centers.tobytes()
                                  + grid.widths.tobytes()).hexdigest()[:16]
        name = Path("%s-%s-item-00.json" % (command, tag) if command == "sweep"
                    else "%s-%s.json" % (command, tag))
        assert json.loads(written[name])["diagnostics"]["grid_hash"] == expected


def test_hashlib_fallback_writes_the_same_bytes(tmp_path):
    # with the built-in modules blocked, records takes sha256 from hashlib
    _, _, builtin = _hashing_runs(tmp_path, "builtin")
    loaded, _, fallback = _hashing_runs(
        tmp_path, "fallback",
        prelude=("import sys", "sys.modules['_sha2'] = sys.modules['_sha256'] = None"))
    assert loaded == "True"
    assert fallback == builtin


def test_no_least_squares_solver_under_src():
    # lines are fitted by dynamics.line_fit, the chain's slope by its own
    # two lines; neither needs LAPACK's least squares
    found = [(name, node.lineno) for name, tree in _src_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("polyfit", "lstsq")]
    assert found == []


def test_no_module_under_src_imports_scipy_integrate():
    found = [(name, n) for name, tree in _src_trees() for _, names in _imports(tree)
             for n in names if n == "scipy.integrate" or n.startswith("scipy.integrate.")]
    assert found == []


def test_every_closed_form_is_called_outside_its_self_tests():
    # a closed form that only its own frozen-value test calls checks nothing
    import oracle
    from priondyn import reference
    root = Path(__file__).resolve().parent.parent
    paths = [p for d in ("src", "demos", "tests") for p in (root / d).rglob("*.py")
             if p.name != "test_reference_oracles.py"]
    called = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name)
                           else getattr(func, "attr", None))
    assert sorted(set(reference.__all__) - called) == []
    assert sorted(set(oracle.__all__) - called) == []


def test_only_the_sha256_fallback_imports_hashlib():
    found = []
    for name, tree in _src_trees():
        handlers = [h for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)]
        for node, names in _imports(tree):
            if "hashlib" in names:
                in_handler = any(h.lineno <= node.lineno <= h.end_lineno
                                 for h in handlers)
                found.append((name, in_handler))
    assert found == [("records.py", True)]


def test_the_chain_fits_its_own_slope():
    # README red line: the chain shares no code with the continuum solver
    trees = dict(_src_trees())
    names = {a.name for node in ast.walk(trees["discrete.py"])
             if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "line_fit" not in names


def test_the_chain_steps_without_the_continuum():
    # README red line: the chain takes the continuum's stages from its own
    # code, so no name from a continuum module (the monomer weights, the
    # generator) reaches its stepper; only the cross-check runs the
    # continuum
    tree = dict(_src_trees())["discrete.py"]
    continuum = {"dynamics", "operator", "eigen", "steady"}
    names = set(continuum)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in continuum:
            names |= {a.asname or a.name for a in node.names}
    assert {"integrate", "growth_rate"} <= names
    users = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and any(isinstance(n, ast.Name) and n.id in names
                     or isinstance(n, ast.Attribute) and n.attr in continuum
                     for n in ast.walk(node))}
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"_rhs", "_ssp_step", "integrate_discrete"} <= defined
    assert "compare_continuum" in users
    assert users <= {"compare_continuum", "matched_continuum_setup"}


@pytest.mark.parametrize("module", ["priondyn", "priondyn.cli"])
def test_module_entry_points_run_cleanly(module):
    proc = _fresh_python("-m", module, "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert all(name in proc.stdout for name in config.EXPERIMENTS)


def test_console_script_runs():
    import shutil
    exe = shutil.which("priondyn")
    if exe:
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    else:
        proc = _fresh_python("-m", "priondyn", "--help")
    # argparse prints usage and exits 0 on --help
    assert proc.returncode == 0
    assert all(name in proc.stdout for name in config.EXPERIMENTS)


@pytest.mark.parametrize("demo", sorted(
    p.name for p in (CONFIG_DIR.parent / "demos").glob("*.py")))
def test_demo_runs(demo):
    # warnings are errors, and a clean run writes nothing to stderr
    proc = _fresh_python("-W", "error", str(CONFIG_DIR.parent / "demos" / demo))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip()
