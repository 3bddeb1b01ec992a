"""Tests of the benchmark's own checks.

Each check must accept what the program produces today and reject a value
pushed just past its tolerance.  Program outputs come from small runs
(n=400 grids, n=800 for the control profile, whose L1 tolerance n=400
misses), never from a full workload.

Run from the repository root:  python3 -m pytest bench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from priondyn import cli  # noqa: E402
from priondyn.coefficients import Bell, CoefficientSet  # noqa: E402
from priondyn.discrete import compare_continuum, default_calibration  # noqa: E402
from priondyn.eigen import principal_eigenpair  # noqa: E402
from priondyn.grid import SizeGrid  # noqa: E402

EPS = 1e-6   # how far past a tolerance a pushed value lands, relative


def run_cli(tmp_path, name, command, text):
    cfg = tmp_path / ("%s.cfg" % name)
    cfg.write_text(text)
    out = tmp_path / name
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def shipped(name, **overrides):
    return workloads.derive(workloads.read_shipped(ROOT, name), **overrides)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    levels = "8.0, 64.0, 600.0, 2000.0"
    o = {}
    for n in (200, 400):
        o["flat%d" % n] = checks.read_json(
            run_cli(tmp, "flat%d" % n, "eigen",
                    shipped("fig2", grid__n=str(n), eigen__v_values=levels)),
            "eigen-*.json")["results"]
    o["control"] = run_cli(tmp, "control", "steady", shipped("fig3-control"))
    o["fig3"] = run_cli(tmp, "fig3", "steady", shipped("fig3", grid__n="400"))
    o["fig7"] = checks.read_json(run_cli(tmp, "fig7", "sweep", shipped("fig7", grid__n="400")),
                                 "sweep-??????????.json")["results"]
    o["fig6"] = checks.read_items(run_cli(tmp, "fig6", "sweep",
                                          shipped("fig6", grid__n="400", sweep__values="0.0314")))
    o["fig5"] = checks.read_items(run_cli(tmp, "fig5", "sweep",
                                          shipped("fig5", grid__n="400",
                                                  sweep__values="0.001, 0.01")))
    return o


def steady(out):
    r = checks.read_json(out, "steady-*.json")["results"]
    x, u = checks.read_profile(out)
    return r, x, np.full_like(x, 2.0 * x[0]), u


def test_decreasing(outputs):
    r = outputs["flat400"]
    assert checks.check_decreasing(r["v_values"], r["loss_rates"], "flat") == []
    loss = list(r["loss_rates"])
    loss[2] = loss[1]
    assert checks.check_decreasing(r["v_values"], loss, "flat")


def test_flat_closed_form(outputs):
    r = outputs["flat400"]
    v = np.asarray(r["v_values"])
    assert checks.check_flat_closed_form(v, r["loss_rates"], "flat") == []
    ref = checks.flat_loss_rate(v)
    scale = np.maximum(np.abs(ref), checks.DECAY0)
    inside = ref + (1 - EPS) * checks.FLAT_REL_TOL * scale
    assert checks.check_flat_closed_form(v, inside, "flat") == []
    for i in range(len(v)):
        pushed = np.array(r["loss_rates"])
        pushed[i] = ref[i] + (1 + EPS) * checks.FLAT_REL_TOL * scale[i]
        assert checks.check_flat_closed_form(v, pushed, "flat")


def test_error_shrinks(outputs):
    errs = {}
    for n in (200, 400):
        r = outputs["flat%d" % n]
        v = np.asarray(r["v_values"])
        errs[n] = (v, np.abs(np.asarray(r["loss_rates"]) - checks.flat_loss_rate(v)))
    assert checks.check_error_shrinks(errs) == []
    v, e = errs[400]
    assert checks.check_error_shrinks({200: errs[200], 400: (v, np.maximum(e, errs[200][1]))})


def test_narrowing(outputs):
    s = outputs["fig7"]
    assert checks.check_narrowing(s["values"], s["growth_rate"], s["n_modes"]) == []
    growth = list(s["growth_rate"])
    growth[-1] = max(growth) * (1 + EPS)
    assert checks.check_narrowing(s["values"], growth, s["n_modes"])
    best = int(np.argmax(s["growth_rate"]))
    modes = list(s["n_modes"])
    modes[best] = 2
    assert checks.check_narrowing(s["values"], s["growth_rate"], modes)


def test_control(outputs):
    r, x, h, u = steady(outputs["control"])
    assert checks.check_control(r["v_inf"], r["rho_inf"], x, h, u, 2400.0) == []
    tol = checks.CONTROL_REL_TOL
    v_ref, c_ref = checks.control_root(), checks.control_count(2400.0)
    assert checks.check_control(v_ref * (1 + (1 + EPS) * tol), r["rho_inf"], x, h, u, 2400.0)
    assert checks.check_control(r["v_inf"], c_ref * (1 - (1 + EPS) * tol), x, h, u, 2400.0)
    # g = f + s*(u - f) keeps unit count and sits s*d from the shape in L1
    f = checks.control_profile(x)
    f = f / np.sum(f * h)
    u_unit = u / np.sum(u * h)
    d = np.sum(np.abs(u_unit - f) * h)
    for s, fails in ((1 - EPS, False), (1 + EPS, True)):
        g = f + s * checks.PROFILE_L1_TOL / d * (u_unit - f)
        assert bool(checks.check_control(r["v_inf"], r["rho_inf"], x, h, g, 2400.0)) == fails


def test_humps_centre_and_balance(outputs):
    r3, x, h, u3 = steady(outputs["fig3"])
    rc, _, _, uc = steady(outputs["control"])
    assert checks.count_humps(u3) == 2 and checks.count_humps(uc) == 1
    target = checks.DECAY0 / checks.SLOPE
    for r in (r3, rc):
        assert checks.check_centre_of_mass(r["center_of_mass"], "com") == []
    assert checks.check_centre_of_mass(target * (1 + (1 + EPS) * checks.COM_REL_TOL), "com")
    conv = checks.bell(x, 0.001, 0.1, 2.0, 0.1)
    assert checks.check_monomer_balance(r3["v_inf"], x, h, u3, conv, 2400.0, 4.0, "fig3") == []
    v_off = r3["v_inf"] * (1 + (1 + 1e-3) * checks.BALANCE_REL_TOL)
    assert checks.check_monomer_balance(v_off, x, h, u3, conv, 2400.0, 4.0, "fig3")


def test_translation():
    target = checks.DECAY0 / checks.SLOPE
    centres = [0.833, 1.667, 2.5, 3.333]
    fractions = [0.0, 0.47, 0.27, 0.12]
    assert checks.check_translation(centres, fractions, [target] * 4) == []
    assert checks.check_translation(centres, [0.0, 0.27, 0.47, 0.12], [target] * 4)
    off = [target] * 3 + [target * (1 - (1 + EPS) * checks.COM_REL_TOL)]
    assert checks.check_translation(centres, fractions, off)


def test_flat_outbreak(outputs):
    r = outputs["fig6"][0]["results"]
    slope, rho0, threshold = 0.0314, r["rho0"], r["threshold"]
    assert checks.check_flat_outbreak(slope, r["measured_growth_rate"], r["t_incubation"],
                                      rho0, threshold, "fig6") == []
    ref = -float(checks.flat_loss_rate(600.0, slope=slope))
    law = math.log(threshold / rho0) / ref
    gt, it = checks.GROWTH_REL_TOL, checks.INCUBATION_REL_TOL
    assert checks.check_flat_outbreak(slope, ref * (1 - (1 + EPS) * gt), law, rho0, threshold, "x")
    assert checks.check_flat_outbreak(slope, ref, law * (1 + (1 + EPS) * it), rho0, threshold, "x")
    assert checks.check_flat_outbreak(slope, ref, None, rho0, threshold, "x")


def test_incubation_order_and_books(outputs):
    items = outputs["fig5"] + outputs["fig6"]
    t_inc = [it["results"]["t_incubation"] for it in outputs["fig5"]]
    assert checks.check_incubation_order([0.001, 0.01], t_inc) == []
    assert checks.check_incubation_order([0.001, 0.01], [t_inc[0], t_inc[0]])
    assert checks.check_incubation_order([0.001, 0.01], [t_inc[0], None])
    for it in items:
        assert checks.check_books(it["diagnostics"]["max_conservation_residual"], "b") == []
    assert checks.check_books(checks.BOOKS_TOL * (1 + EPS), "b")


def test_chain_twin():
    calib = default_calibration()
    report = compare_continuum(calib)
    assert checks.check_twin(report, calib) == []
    closed = math.sqrt(calib.conversion * calib.fragmentation * 600.0) - calib.decay
    pushed = dict(report, growth_rate_discrete=report["growth_rate_continuum"]
                  + (1 + EPS) * checks.TWIN_GROWTH_TOL * closed)
    assert checks.check_twin(pushed, calib)
    assert checks.check_twin(dict(report, uninfected_max_rel_diff_v=1.01e-12), calib)
    assert checks.check_twin(dict(report, mass_residual_max=1.01e-8), calib)


def test_converged_bump_solve():
    bump = CoefficientSet(production=2400.0, clearance=4.0,
                          conversion=Bell(0.001, 0.1, 2.0, 0.1))
    grid = SizeGrid.uniform(60.0, 400)
    sol = principal_eigenpair(bump, grid, 8.0)
    next_level = principal_eigenpair(bump, grid, 64.0).lambda_eig
    assert checks.check_failed_solve(sol, next_level, "v8") == []
    assert checks.check_failed_solve(sol, sol.lambda_eig * (1 + EPS), "v8")


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == tracing.UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
