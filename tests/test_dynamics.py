"""Time integration: conservation books, growth fits, stability probes."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priondyn import (Bell, CoefficientSet, PolymerState, SizeGrid,
                      Trajectory, adjoint_eigenpair, growth_rate,
                      hypothesis_constants,
                      incubation_time, integrate, seed_state,
                      stability_experiment, sweep)
from priondyn.config import parse_config
from priondyn.reference import loss_rate_constant

CONST = CoefficientSet(production=2400.0, clearance=4.0)
BELL = CoefficientSet(production=2400.0, clearance=4.0,
                      conversion=Bell(0.001, 0.01, 2.0, width_sq=0.1))


def _grid(n=300, xmax=60.0):
    return SizeGrid.uniform(xmax, n)


# --- uninfected relaxation -------------------------------------------------

def test_monomer_relaxation_matches_exponential():
    # with u = 0 the monomer pool decouples: dv/dt = production - clearance*v
    grid = _grid(100)
    initial = PolymerState(v=100.0, u=np.zeros(grid.n), grid=grid, t=0.0)
    traj = integrate(CONST, grid, initial, t_end=2.0, dt_max=0.001)
    vbar = 600.0
    expected = vbar + (100.0 - vbar) * np.exp(-4.0 * np.asarray(traj.times))
    np.testing.assert_allclose(traj.v_series, expected, rtol=1e-5)
    assert traj.rho_series[-1] == 0.0


def test_record_every_below_one_is_refused():
    grid = _grid(50)
    with pytest.raises(ValueError, match="record_every"):
        integrate(CONST, grid, seed_state(CONST, grid), t_end=1.0, record_every=0)


# --- books -----------------------------------------------------------------

def test_conservation_residuals_stay_tiny():
    grid = _grid(300)
    traj = integrate(BELL, grid, seed_state(BELL, grid), t_end=10.0)
    resid = np.asarray(traj.conservation_residuals)
    assert resid.size == traj.steps
    assert resid.max() < 1e-10


def test_truncation_flux_accumulates_and_stays_small():
    # the seed tail reaches the outflow edge, so the lost mass is real
    # but must stay a sub-percent correction to the final mass
    grid = _grid(300)
    traj = integrate(CONST, grid, seed_state(CONST, grid), t_end=5.0)
    assert traj.truncation_flux_total > 0.0
    assert traj.truncation_flux_total < 5e-3 * traj.p_series[-1]


def test_snapshots_land_exactly():
    grid = _grid(150)
    wanted = (1.0, 2.5, 4.0)
    traj = integrate(CONST, grid, seed_state(CONST, grid), t_end=5.0,
                     snapshot_times=wanted)
    got = [t for t, _ in traj.snapshots]
    assert got == list(wanted)
    for _, snap in traj.snapshots:
        assert snap.shape == (grid.n,)
        assert snap.min() >= 0.0


def test_snapshot_outside_span_is_ignored():
    grid = _grid(100)
    traj = integrate(CONST, grid, seed_state(CONST, grid), t_end=2.0,
                     snapshot_times=(5.0, -1.0))
    assert traj.snapshots == []


def test_snapshot_just_past_a_full_step_is_reached():
    # on this grid a full step ends 2 ulp short of t=5; the step must
    # land on the snapshot rather than leave a sliver below the step floor
    grid = SizeGrid.uniform(50.0 / 3.0, 200)
    traj = integrate(CONST, grid, seed_state(CONST, grid), t_end=20.0,
                     snapshot_times=(5.0, 10.0))
    assert [t for t, _ in traj.snapshots] == [5.0, 10.0]
    assert traj.steps == 160


def test_rounding_sized_last_step_is_absorbed():
    # 2000 steps of dt_max = 0.05 add up to 3.5e-12 short of t_end; a step
    # that short would divide rounding by 3.5e-12 in the mass books
    grid = SizeGrid.uniform(30.0, 50)
    initial = seed_state(CONST, grid, scale=1e-3, v_init=600.0)
    traj = integrate(CONST, grid, initial, t_end=100.0, dt_max=0.05)
    assert traj.steps == 2000
    assert traj.times[-1] == 100.0
    assert np.diff(traj.times).min() > 0.049
    assert traj.max_residual < 1e-8
    assert traj.steps_by_limit == {"cfl": 0, "loss_cap": 0, "dt_max": 1999,
                                   "event": 1}


def test_rejects_empty_span():
    grid = _grid(100)
    initial = seed_state(CONST, grid, t=3.0)
    with pytest.raises(ValueError):
        integrate(CONST, grid, initial, t_end=3.0)


# --- growth fit ------------------------------------------------------------

@pytest.fixture(scope="module")
def growth_run():
    grid = SizeGrid.uniform(60.0, 400)
    initial = seed_state(CONST, grid, scale=1e-6, v_init=600.0)
    return integrate(CONST, grid, initial, t_end=40.0)


def test_growth_fit_matches_eigen_rate(growth_run):
    fit = growth_rate(growth_run, window=(15.0, 35.0))
    expected = -loss_rate_constant(0.001, 0.03, 0.05, 600.0)
    assert fit.rate == pytest.approx(expected, rel=1e-2)
    assert fit.r_squared > 0.999
    assert fit.v_drift < 0.05
    assert fit.n_points >= 3
    assert fit.window == (15.0, 35.0)


def test_growth_fit_window_validation(growth_run):
    with pytest.raises(ValueError):
        growth_rate(growth_run, window=(35.0, 15.0))
    with pytest.raises(ValueError):
        growth_rate(growth_run, window=(39.99, 40.0))  # <3 samples


# --- incubation ------------------------------------------------------------

def _toy_traj(times, rho, v=600.0):
    times = np.asarray(times, dtype=float)
    rho = np.asarray(rho, dtype=float)
    return Trajectory(times=times, v_series=np.full_like(times, v),
                      rho_series=rho, p_series=rho.copy(),
                      snapshots=[], conservation_residuals=[],
                      truncation_flux_total=0.0, grid=None, coeffs=CONST,
                      final_state=None, steps=len(times) - 1, rejections=0)


def test_incubation_interpolates_crossing():
    traj = _toy_traj([0.0, 1.0, 2.0], [1.0, 2.0, 8.0])
    res = incubation_time(traj, threshold=4.0, inoculation=1.0)
    assert res.reached
    # linear interpolation between (1, 2) and (2, 8)
    assert res.t_incubation == pytest.approx(1.0 + 2.0 / 6.0)
    assert res.threshold == 4.0


def test_incubation_not_reached():
    traj = _toy_traj([0.0, 1.0], [1.0, 2.0])
    res = incubation_time(traj, threshold=10.0, inoculation=1.0)
    assert not res.reached
    assert res.t_incubation is None
    assert res.final_rho == 2.0


def test_incubation_log_law_prediction():
    traj = _toy_traj([0.0, 1.0, 2.0], [1.0, 2.0, 8.0])
    res = incubation_time(traj, threshold=4.0, inoculation=1.0,
                          loss_rate_at_vbar=-0.05)
    assert res.predicted == pytest.approx(np.log(4.0) / 0.05)
    # a nonnegative loss rate admits no outbreak prediction
    res2 = incubation_time(traj, threshold=4.0, inoculation=1.0,
                           loss_rate_at_vbar=0.02)
    assert res2.predicted is None


# --- positivity ------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=10.0),
       t_end=st.floats(min_value=1.0, max_value=5.0))
def test_state_stays_nonnegative(scale, t_end):
    grid = SizeGrid.uniform(60.0, 120)
    traj = integrate(CONST, grid, seed_state(CONST, grid, scale=scale),
                     t_end=t_end)
    assert traj.final_state.u.min() >= 0.0
    assert traj.final_state.v > 0.0
    assert np.all(np.asarray(traj.rho_series) >= 0.0)


# --- sweep plumbing --------------------------------------------------------

def _sweep_cfg(tmp_path, body):
    path = tmp_path / "sweep.cfg"
    path.write_text(body)
    return parse_config(path.read_text())


def test_sweep_isolates_failures(tmp_path):
    cfg = _sweep_cfg(tmp_path, "\n".join([
        "experiment = sweep",
        "sweep.axis = bell_amplitude",
        "sweep.values = 0.01",
        "sweep.t_end = 2.0",
        "model.conversion.shape = bell",
        "model.conversion.base = 0.001",
        "model.conversion.amplitude = 0.01",
        "model.conversion.center = 2.0",
        "model.conversion.width_sq = 0.1",
        "grid.n = 80",
        "grid.xmax = 30.0",
        "",
    ]))
    good, bad = sweep(cfg, axis="bell_amplitude", values=[0.01, -5.0])
    assert "error" not in good.diagnostics
    assert good.results
    assert bad.diagnostics["error"]
    assert bad.diagnostics["error_type"]
    assert bad.config_echo["sweep_value"] == -5.0


def test_sweep_refuses_an_axis_the_shape_cannot_take(tmp_path):
    cfg = _sweep_cfg(tmp_path, "\n".join([
        "experiment = sweep",
        "sweep.axis = dose",
        "sweep.values = 1",
        "grid.n = 80",
        "grid.xmax = 30.0",
        "",
    ]))
    with pytest.raises(ValueError, match="requires a scaled_bell conversion"):
        sweep(cfg, axis="tightness", values=[0.1, 0.2])
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(cfg, axis="width", values=[0.1])


# --- stability -------------------------------------------------------------

def test_stability_low_production_damps():
    coeffs = CoefficientSet(production=240.0, clearance=4.0)
    grid = SizeGrid.uniform(30.0, 200)
    res = stability_experiment(coeffs, grid, epsilon=1e-3, t_end=400.0)
    assert res.regime == "damping"
    assert res.verdict == "stable"
    assert res.loss_rate_at_vbar > 0.0
    assert res.fitted_rate > 0.0
    assert res.alpha_weight > 0.0
    assert res.v_inf is None or res.v_inf > res.vbar


def test_stability_solves_the_adjoint_once(monkeypatch):
    eigen_module = importlib.import_module("priondyn.eigen")
    solve = eigen_module._principal_on_matrix
    adjoint_levels = []

    def counting(gen, v, **kw):
        if kw.get("adjoint"):
            adjoint_levels.append(v)
        return solve(gen, v, **kw)

    coeffs = CoefficientSet(production=240.0, clearance=4.0)
    grid = SizeGrid.uniform(30.0, 200)
    monkeypatch.setattr(eigen_module, "_principal_on_matrix", counting)
    res = stability_experiment(coeffs, grid, epsilon=1e-3, t_end=400.0)
    assert adjoint_levels == [res.vbar]
    monkeypatch.undo()
    # the constants are those of a standalone solve; the verdict as before
    adj = adjoint_eigenpair(coeffs, grid, res.vbar)
    assert res.constants == hypothesis_constants(coeffs, adj)
    assert res.alpha_weight == 2.0 * res.constants.k2 * res.vbar / res.loss_rate_at_vbar
    assert res.verdict == "stable"


def test_stability_high_production_amplifies():
    grid = SizeGrid.uniform(60.0, 200)
    res = stability_experiment(CONST, grid, epsilon=1e-6, t_end=120.0)
    assert res.regime == "amplifying"
    assert res.verdict == "unstable"
    assert res.loss_rate_at_vbar < 0.0
    # escape rate tracks the linearized growth rate loosely
    assert res.fitted_rate == pytest.approx(-res.loss_rate_at_vbar, rel=0.25)


def test_stability_zero_perturbation_is_fixed_point():
    coeffs = CoefficientSet(production=240.0, clearance=4.0)
    grid = SizeGrid.uniform(30.0, 120)
    res = stability_experiment(coeffs, grid, epsilon=0.0, t_end=50.0)
    assert res.verdict == "stable"
    assert all(v == 0.0 for v in res.norm_values)
