"""Time integration: conservation books, growth fits, stability probes."""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eig

from priondyn import (Affine, Bell, CoefficientSet, EigenConvergenceError, Generator,
                      IntegratorFailure, PolymerState, PositivityViolationError, SizeGrid,
                      Trajectory, adjoint_eigenpair, assemble, compare_continuum,
                      default_calibration, find_v_inf, growth_rate,
                      hypothesis_constants,
                      incubation_time, integrate, principal_eigenpair,
                      seed_state, stability_experiment, transport_reaction_parts)
from priondyn import discrete
from priondyn.cli import sweep
from priondyn.config import parse_config
from priondyn.dynamics import _stiff_runs, line_fit
from priondyn.eigen import DEFAULT_TOL
from priondyn.reference import incubation_time_log_law, loss_rate_constant

from oracle import MomentClosure

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
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


def test_monomer_relaxation_converges_at_second_order():
    # u = 0 decouples V: V(t) = vbar + (V0 - vbar)*exp(-clearance*t).
    # Halving the step must cut the largest V error about fourfold; a
    # clearance of 1 keeps clearance*dt in the asymptotic range
    coeffs = CoefficientSet(production=600.0, clearance=1.0)
    grid = _grid(100)
    initial = PolymerState(v=100.0, u=np.zeros(grid.n), grid=grid, t=0.0)
    errors = []
    for dt in (0.2, 0.1, 0.05):
        traj = integrate(coeffs, grid, initial, t_end=2.0, dt_max=dt)
        assert traj.steps_by_limit["dt_max"] == traj.steps - 1
        exact = 600.0 + (100.0 - 600.0) * np.exp(-1.0 * traj.times)
        errors.append(np.abs(traj.v_series - exact).max())
    ratios = np.asarray(errors[:-1]) / np.asarray(errors[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


# --- seeding ----------------------------------------------------------------

def _seed_count_closed(upper):
    # integral of 0.5*x**2/(1 + x**4) over [0, upper], from its elementary
    # antiderivative (pi/(4*sqrt(2)) as upper -> infinity)
    r = np.sqrt(2.0)

    def antiderivative(x):
        return 0.5 * (np.log((x * x - r * x + 1.0) / (x * x + r * x + 1.0)) / (4.0 * r)
                      + (np.arctan(r * x + 1.0) + np.arctan(r * x - 1.0)) / (2.0 * r))

    return float(antiderivative(upper) - antiderivative(0.0))


def test_seed_count_converges_to_the_profile_integral():
    # seed_state samples the profile at cell centres, so its count is the
    # midpoint rule: halving the cell width must cut the error fourfold
    exact = _seed_count_closed(50.0)
    errors = []
    for n in (250, 500, 1000):
        state = seed_state(CONST, _grid(n, 50.0), scale=3.0)
        assert state.v == CONST.vbar and state.t == 0.0
        errors.append(abs(state.moment0() / 3.0 - exact))
    ratios = np.asarray(errors[:-1]) / np.asarray(errors[1:])
    assert np.all((3.9 <= ratios) & (ratios <= 4.1)), ratios
    assert errors[-1] < 1e-8 * exact


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
    # dt_max = 1/12 sets every step, below the polymer bound of 0.27: the
    # uptake of a seed of 5e-14 polymers is below the rounding of the
    # clearance, and V stays at 600 exactly.  The sixtieth full step ends
    # 1 ulp short of t=5.  The step must land on the snapshot rather than
    # leave a sliver below the step floor
    grid = SizeGrid.uniform(10.0, 180)
    initial = seed_state(CONST, grid, scale=1e-13)
    plain = integrate(CONST, grid, initial, t_end=20.0, dt_max=1 / 12)
    assert plain.times[60] == np.nextafter(5.0, 0.0)
    traj = integrate(CONST, grid, initial, t_end=20.0,
                     snapshot_times=(5.0, 10.0), dt_max=1 / 12)
    assert [t for t, _ in traj.snapshots] == [5.0, 10.0]
    assert traj.steps == plain.steps == 240


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
    assert traj.steps_by_limit == {"polymer": 0, "dt_max": 1999, "event": 1}


def test_negative_stage_is_retried_at_half_the_step():
    # from v_init = 0 the first step is set by the loss rates alone, and
    # the monomer level growing inside it drives a transport stage negative
    grid = SizeGrid.uniform(60.0, 800)
    traj = integrate(CONST, grid, seed_state(CONST, grid, v_init=0.0), t_end=2.0)
    assert traj.rejections >= 1
    assert traj.max_residual <= 1e-8
    assert traj.final_state.u.min() >= 0.0
    assert traj.rho_series.min() >= 0.0 and traj.v_series.min() >= 0.0
    # four evaluations per accepted step and at least one per rejection
    assert 4 * traj.steps + traj.rejections <= traj.rhs_evaluations


# --- stiff monomer --------------------------------------------------------

# a clearance of 540 puts dt/3 * clearance at 1.8 or more for dt >= 0.01,
# past the explicit Euler stage's stability limit
STIFF = CoefficientSet(production=540.0 * 600.0, clearance=540.0)


def test_implicit_monomer_stages_converge_at_second_order():
    # a seed of 1e6 takes up half the monomer, so V falls from 600 to about
    # 290 through a fast layer and then follows the polymers.  Halving the
    # step must cut the largest V error about fourfold against Radau on the
    # dense generator parts and the monomer equation, with the books at
    # rounding
    grid = SizeGrid.uniform(30.0, 60)
    initial = seed_state(STIFF, grid, scale=1e6)
    instants = (0.4, 0.8, 1.2, 1.6, 2.0)
    T, B, samples = transport_reaction_parts(STIFF, grid)
    take = samples["conversion"] * grid.widths  # x0 = 0: nothing returns

    def rhs(t, y):
        u, v = y[:-1], y[-1]
        return np.append(v * (T @ u) + B @ u,
                         STIFF.production - v * (STIFF.clearance + take @ u))

    ref = solve_ivp(rhs, (0.0, 2.0), np.append(initial.u, initial.v), method="Radau",
                    t_eval=instants, rtol=1e-12, atol=1e-12)
    assert ref.success
    v_ref = ref.y[-1]

    def v_at(traj):
        v_by_time = dict(zip(traj.times.tolist(), traj.v_series.tolist()))
        return np.array([v_by_time[t] for t in instants])

    errors = []
    for dt in (0.04, 0.02, 0.01):
        traj = integrate(STIFF, grid, initial, 2.0, snapshot_times=instants[:-1],
                         dt_max=dt)
        assert traj.rejections == 0
        assert traj.max_residual <= 1e-12
        assert traj.v_series.min() > 0.0 and traj.rho_series.min() > 0.0
        assert min(snap.min() for _, snap in traj.snapshots) >= 0.0
        assert traj.final_state.u.min() >= 0.0
        errors.append(np.abs(v_at(traj) - v_ref).max() / v_ref.max())
    orders = np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))
    assert np.all(orders >= 1.8), orders


def test_negative_implicit_stage_is_retried_at_half_the_step():
    # from ten times its balance the monomer overshoots below 0 in an
    # implicit stage of a 0.04-day step; halving until every stage keeps
    # its sign recovers, and the books and signs hold throughout
    grid = SizeGrid.uniform(30.0, 60)
    traj = integrate(STIFF, grid, seed_state(STIFF, grid, scale=1e4, v_init=6000.0),
                     1.0, dt_max=0.04)
    assert traj.rejections >= 1 and traj.times[1] < 0.04
    assert traj.max_residual <= 1e-12
    assert traj.v_series.min() > 0.0 and traj.final_state.u.min() >= 0.0


# --- the partitioned step ---------------------------------------------------

# fig5's amplitude-0.1 bump: at V = 600 on 200 cells, 5 cells under it lose
# mass at up to 197/day, while every other rate is below 3.9/day
BUMP = CoefficientSet(production=2400.0, clearance=4.0,
                      conversion=Bell(0.001, 0.1, 2.0, width_sq=0.1))


def two_bumps(x):
    """That bump at 2 and at 6, over its base: the stiff cells form two runs."""
    return (Bell(0.0005, 0.1, 2.0, width_sq=0.1)(x)
            + Bell(0.0005, 0.1, 6.0, width_sq=0.1)(x))


def _bump_t_inc(dt_max):
    grid = _grid(200)
    initial = seed_state(BUMP, grid)
    traj = integrate(BUMP, grid, initial, t_end=75.0, snapshot_times=(20.0, 50.0),
                     dt_max=dt_max)
    count = initial.moment0()
    return traj, incubation_time(traj, 1e3 * count, count).t_incubation


@pytest.mark.parametrize("x0,clearance,conversion,cells",
                         [(0.0, 4.0, BUMP.conversion, 5), (0.5, 4.0, BUMP.conversion, 4),
                          (0.0, 20.0, BUMP.conversion, 5),
                          (0.0, 4.0, Bell(0.001, 1.0, 2.0, width_sq=0.1), 5),
                          (0.0, 4.0, Bell(0.001, 0.1, 2.0, width_sq=0.01), 1),
                          (0.0, 4.0, two_bumps, 9)],
                         ids=["fig5", "x0", "clearance", "amplitude", "width", "two-bumps"])
def test_partitioned_steps_keep_books_and_signs(x0, clearance, conversion, cells):
    coeffs = CoefficientSet(production=600.0 * clearance, clearance=clearance, x0=x0,
                            conversion=conversion)
    grid = SizeGrid.uniform(60.0, 200, x0=x0)
    traj = integrate(coeffs, grid, seed_state(coeffs, grid), t_end=75.0,
                     snapshot_times=(20.0, 50.0))
    assert traj.partitioned_steps == traj.steps and traj.max_partition_cells == cells
    # a partitioned step counts under the loss rate that bounds it, or
    # under the event it lands on.  3/197 days, fig5's explicit step, would
    # take about 4900 steps
    assert traj.steps_by_limit == {"polymer": traj.steps - 3, "dt_max": 0, "event": 3}
    assert traj.steps < 150
    assert traj.max_residual <= 1e-13
    # no stage went negative, and no level went below 0
    assert traj.rejections == 0 and traj.rhs_evaluations == 4 * traj.steps
    assert min(snap.min() for _, snap in traj.snapshots) >= 0.0
    assert traj.final_state.u.min() >= 0.0 and traj.v_series.min() > 0.0


def test_partitioned_step_is_first_order():
    # halving the cap halves the t_inc error against a fine explicit run.
    # From the uncapped step (0.78 days, up to 1.14 as V falls) to half
    # of it the error falls 2.48-fold, still short of the asymptotic range
    gen = Generator(BUMP, _grid(200))
    rates = -gen.diagonal(600.0)
    natural = 3.0 / _stiff_runs(rates, rates.max(), gen.loss)[1]
    assert 0.75 < natural < 0.8
    ref_traj, ref = _bump_t_inc(0.002)  # 1.6e-9 relative from dt_max = 0.001
    assert ref_traj.partitioned_steps == 0
    errors = []
    for cap in (natural / 2, natural / 4, natural / 8):
        traj, t_inc = _bump_t_inc(cap)
        # an event that lies closer than 3/r_max takes an explicit step
        assert traj.partitioned_steps >= traj.steps - 3
        errors.append((t_inc - ref) / ref)
    ratios = np.asarray(errors[:-1]) / np.asarray(errors[1:])
    assert np.all((1.6 <= ratios) & (ratios <= 2.4)), (errors, ratios)


def test_negative_monomer_level_rejects_until_the_step_is_explicit(monkeypatch):
    # with 1e6 added to the runs' new values, which then take up far more
    # monomer, every partitioned step's level goes below 0: the step is
    # rejected and halved until it is no longer than 3/r_max, and taken
    # explicitly at that length, 3/r_out/64 = 0.012 days (164 steps to
    # t = 2, not the 8348 of 3/r_max/64)
    stage = Generator.stage

    def greedy(self, v, tau, u, runs=None):
        out = stage(self, v, tau, u, runs)
        for lo, hi in runs or ():
            out[lo:hi + 1] += 1e6
        return out

    monkeypatch.setattr(Generator, "stage", greedy)
    grid = _grid(200)
    traj = integrate(BUMP, grid, seed_state(BUMP, grid), t_end=2.0)
    assert traj.partitioned_steps == traj.max_partition_cells == 0
    assert traj.rejections >= 1 and 100 < traj.steps < 200
    assert traj.final_state.u.min() >= 0.0 and traj.v_series.min() > 0.0
    assert traj.max_residual <= 1e-13


@pytest.mark.parametrize("center,n,t_end", [(60.0, 200, 2.0)],
                         ids=["run-at-the-last-cell"])
def test_partition_falls_back_to_the_explicit_step(center, n, t_end):
    # fig5's amplitude-0.01 bump centred at xmax: the run would take the
    # last cell
    coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                            conversion=Bell(0.001, 0.01, center, width_sq=0.1))
    grid = _grid(n)
    gen = Generator(coeffs, grid)
    rates = -gen.diagonal(600.0)
    assert 0 < np.count_nonzero(rates > rates.max() / 4) <= 64
    assert _stiff_runs(rates, rates.max(), gen.loss) is None
    traj = integrate(coeffs, grid, seed_state(coeffs, grid), t_end)
    assert traj.partitioned_steps == traj.max_partition_cells == 0
    assert traj.steps_by_limit["polymer"] == traj.steps - 1


def test_a_run_of_any_length_is_partitioned(monkeypatch):
    # fig5's amplitude-0.01 bump on 3200 cells: the cells above the last
    # cell's rate form one run of 77 cells, and every step longer than
    # 3/r_max takes them implicitly
    coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                            conversion=Bell(0.001, 0.01, 2.0, width_sq=0.1))
    grid = _grid(3200)
    gen = Generator(coeffs, grid)
    rates = -gen.diagonal(600.0)
    assert _stiff_runs(rates, rates.max(), gen.loss)[0] == [(68, 144)]
    r_max, partitioned = [], []
    diagonal, stage = Generator.diagonal, Generator.stage

    def recording_diagonal(self, v):
        out = diagonal(self, v)
        r_max.append(-float(out.min()))
        return out

    def recording_stage(self, v, tau, u, runs=None):
        partitioned.append((3.0 * tau, runs is not None))
        return stage(self, v, tau, u, runs)

    monkeypatch.setattr(Generator, "diagonal", recording_diagonal)
    monkeypatch.setattr(Generator, "stage", recording_stage)
    traj = integrate(coeffs, grid, seed_state(coeffs, grid), 1.0)
    assert traj.rejections == 0 and len(r_max) == traj.steps == 12
    assert partitioned[::4] == partitioned[3::4]  # one kind of step throughout
    assert [taken for _, taken in partitioned[::4]] == [
        dt > 3.0 / rate for (dt, _), rate in zip(partitioned[::4], r_max)]
    assert traj.partitioned_steps == traj.steps
    assert traj.max_partition_cells == 77
    assert traj.max_residual <= 1e-13
    assert traj.final_state.u.min() >= 0.0


def test_flat_outbreaks_and_the_chain_twin_take_no_partitioned_step(monkeypatch):
    text = (CONFIG_DIR / "fig6.cfg").read_text().replace("grid.n = 800", "grid.n = 100")
    for item in sweep(parse_config(text)):
        assert item.diagnostics["partitioned_steps"] == 0
        assert item.diagnostics["max_partition_cells"] == 0
    runs = []

    def recording(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(discrete, "integrate", recording)
    compare_continuum(default_calibration())
    assert [traj.partitioned_steps for traj in runs] == [0, 0]


@pytest.mark.parametrize("other", [SizeGrid.uniform(30.0, 60),
                                   SizeGrid.uniform(40.0, 50),
                                   SizeGrid.uniform(30.0, 50, x0=0.5)],
                         ids=["n", "xmax", "x0"])
def test_state_on_another_grid_is_refused(other):
    grid = SizeGrid.uniform(30.0, 50)
    with pytest.raises(ValueError, match="different grid"):
        integrate(CONST, other, seed_state(CONST, grid), t_end=1.0)


def test_step_underflow_raises_with_the_last_valid_state():
    grid = _grid(100)
    initial = seed_state(CONST, grid)
    with pytest.raises(IntegratorFailure, match="step size underflow") as info:
        integrate(CONST, grid, initial, t_end=1.0, dt_max=1e-20)
    state = info.value.state
    assert state.t == 0.0 and state.v == CONST.vbar
    np.testing.assert_array_equal(state.u, initial.u)


def test_rejects_empty_span():
    grid = _grid(100)
    initial = dataclasses.replace(seed_state(CONST, grid), t=3.0)
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


FIT_VALUES = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.lists(FIT_VALUES, min_size=2, max_size=40, unique=True),
       data=st.data())
def test_line_fit_matches_polyfit(x, data):
    x = np.asarray(x)
    assume(np.ptp(x) >= 1e-3 * max(1.0, np.abs(x).max()))
    y = np.asarray(data.draw(st.lists(FIT_VALUES, min_size=x.size,
                                      max_size=x.size)))
    slope, intercept = line_fit(x, y)
    ref_slope, ref_intercept = np.polyfit(x, y, 1)
    # relative to the scale each coefficient takes on this data
    y_size = np.abs(y).max()
    assert abs(slope - ref_slope) <= 1e-12 * (abs(ref_slope) + y_size / np.ptp(x))
    assert abs(intercept - ref_intercept) <= 1e-12 * (
        abs(ref_intercept) + y_size + abs(ref_slope) * np.abs(x).max())


def test_line_fit_recovers_an_exact_line():
    x = np.linspace(3.0, 40.0, 17)
    slope, intercept = line_fit(x, 0.0871 * x - 2.5)
    assert slope == pytest.approx(0.0871, rel=1e-14)
    assert intercept == pytest.approx(-2.5, rel=1e-14)


@pytest.mark.parametrize("x, y, cause", [
    ([], [], "at least two"),
    ([1.0], [2.0], "at least two"),
    ([1.0, 2.0], [2.0], "at least two"),
    ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], "spread"),
])
def test_line_fit_refuses_degenerate_input(x, y, cause):
    with pytest.raises(ValueError, match=cause):
        line_fit(x, y)


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
    # log-count interpolation between (1, 2) and (2, 8): 4 is halfway
    assert res.t_incubation == pytest.approx(1.5)
    assert res.threshold == 4.0


def test_incubation_not_reached():
    traj = _toy_traj([0.0, 1.0], [1.0, 2.0])
    res = incubation_time(traj, threshold=10.0, inoculation=1.0)
    assert res.t_incubation is None
    assert res.measured_growth_rate is None


def test_incubation_log_law_prediction():
    # a count growing at exactly 0.05 per day crosses where the log law
    # at loss rate -0.05 says: log-count interpolation is exact here
    times = np.arange(41.0)
    traj = _toy_traj(times, np.exp(0.05 * times))
    res = incubation_time(traj, threshold=4.0, inoculation=1.0)
    assert res.t_incubation == pytest.approx(incubation_time_log_law(-0.05, 4.0))
    assert res.t_incubation == pytest.approx(np.log(4.0) / 0.05)
    assert res.measured_growth_rate == pytest.approx(0.05)
    # a nonnegative loss rate admits no outbreak prediction
    with pytest.raises(ValueError, match="healthy state is unstable"):
        incubation_time_log_law(0.02, 4.0)


# measured relative t_inc errors against the moment closure at n = 400 and
# 800, dt_max = 0.02; the n = 800 error may grow at most twofold
CLOSURE_OUTBREAK_ERRORS = {0.0: (-3.82e-4, -4.90e-5), 0.5: (-6.30e-4, -1.60e-4)}


@pytest.mark.parametrize("x0", sorted(CLOSURE_OUTBREAK_ERRORS))
def test_light_seed_outbreak_matches_the_moment_closure(x0):
    # a seed with an exponential tail loses no mass through xmax, so the
    # count of the run follows the closed moment ODE (tests/oracle.py)
    # started from the discrete count and mass of the seed
    closure = MomentClosure(tau=0.001, beta=0.0628, mu=0.05, production=2400.0,
                            clearance=4.0, x0=x0)
    coeffs = CoefficientSet(production=2400.0, clearance=4.0, x0=x0,
                            fragmentation=Affine(0.0, 0.0628))
    errors = []
    for n in (400, 800):
        grid = SizeGrid.uniform(60.0, n, x0)
        x, h = grid.centers, grid.widths
        u0 = 1e-3 * (x - x0) ** 2 * np.exp(-2.0 * (x - x0))
        count = float(u0 @ h)
        threshold = 1e3 * count

        def crossing(t, y):
            return y[0] - threshold

        crossing.terminal = True
        ode = solve_ivp(closure.rhs, (0.0, 200.0), [count, float((x * u0) @ h), 600.0],
                        method="DOP853", rtol=1e-13, atol=1e-30, events=crossing)
        t_ode = float(ode.t_events[0][0])
        traj = integrate(coeffs, grid, PolymerState(v=600.0, u=u0, grid=grid),
                         t_end=1.05 * t_ode, dt_max=0.02)
        t_inc = incubation_time(traj, threshold, count).t_incubation
        errors.append((t_inc - t_ode) / t_ode)
    assert abs(errors[1]) <= 2.0 * abs(CLOSURE_OUTBREAK_ERRORS[x0][1]), errors
    assert np.log2(errors[0] / errors[1]) >= 1.8, errors


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


def _log_uniform(lo, hi):
    return st.floats(min_value=np.log10(lo), max_value=np.log10(hi)).map(
        lambda e: 10.0 ** e)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(amplitude=st.floats(min_value=1e-3, max_value=1e-1),
       center=st.floats(min_value=1.0, max_value=5.0),
       width_sq=_log_uniform(1e-4, 1e-1),
       n=st.integers(min_value=100, max_value=1600),
       v=_log_uniform(1e-3, 1e5))
def test_refining_or_sharpening_never_breaks_a_run(amplitude, center, width_sq, n, v):
    # the envelope of grids and bumps a config accepts: each solve returns
    # a nonnegative vector or raises a named error, and a short run from
    # the uninfected level keeps its books and its sign
    coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                            conversion=Bell(0.001, amplitude, center, width_sq))
    grid = SizeGrid.uniform(30.0, n)
    for solve, vector in ((principal_eigenpair, "u_vec"),
                          (adjoint_eigenpair, "phi_vec")):
        try:
            sol = solve(coeffs, grid, v)
        except (EigenConvergenceError, PositivityViolationError):
            continue
        assert getattr(sol, vector).min() >= 0.0
    traj = integrate(coeffs, grid, seed_state(coeffs, grid), t_end=2.0)
    assert traj.max_residual <= 1e-8
    assert traj.final_state.u.min() >= 0.0
    assert traj.final_state.v >= 0.0


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
        "simulate.t_end = 2.0",
        "model.conversion.shape = bell",
        "model.conversion.base = 0.001",
        "model.conversion.amplitude = 0.01",
        "model.conversion.center = 2.0",
        "model.conversion.width_sq = 0.1",
        "grid.n = 80",
        "grid.xmax = 30.0",
        "",
    ]))
    good, bad = sweep(dataclasses.replace(cfg, sweep_values=(0.01, -5.0)))
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
        sweep(dataclasses.replace(cfg, sweep_axis="tightness",
                                  sweep_values=(0.1, 0.2)))
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(dataclasses.replace(cfg, sweep_axis="width", sweep_values=(0.1,)))


# --- stability -------------------------------------------------------------

def test_stability_low_production_damps():
    coeffs = CoefficientSet(production=240.0, clearance=4.0)
    grid = SizeGrid.uniform(30.0, 200)
    res = stability_experiment(coeffs, grid, epsilon=1e-3, t_end=400.0)
    assert res.regime == "damping"
    assert res.verdict == "stable"
    assert res.loss_rate_at_vbar > 0.0
    assert res.fitted_rate > 0.0
    # the functional decays at least at min(loss_rate(vbar)/2, clearance),
    # the rate the duality argument gives
    assert res.fitted_rate >= res.comparator
    assert res.alpha_weight > 0.0


def test_stability_solves_the_adjoint_once(monkeypatch):
    eigen_module = importlib.import_module("priondyn.eigen")
    solve = eigen_module._principal_on_matrix
    solves = []

    def counting(gen, v, **kw):
        solves.append((v, bool(kw.get("adjoint"))))
        return solve(gen, v, **kw)

    coeffs = CoefficientSet(production=240.0, clearance=4.0)
    grid = SizeGrid.uniform(30.0, 200)
    monkeypatch.setattr(eigen_module, "_principal_on_matrix", counting)
    res = stability_experiment(coeffs, grid, epsilon=1e-3, t_end=400.0)
    # at vbar one primal solve for the loss rate and one adjoint solve for
    # the weight, and no other adjoint solve
    assert sorted(s for s in solves if s[0] == res.vbar) == [(res.vbar, False),
                                                             (res.vbar, True)]
    assert [v for v, adjoint in solves if adjoint] == [res.vbar]
    monkeypatch.undo()
    # the loss rate and the constants are those of standalone solves; the
    # verdict as before
    assert res.loss_rate_at_vbar == principal_eigenpair(coeffs, grid, res.vbar).lambda_eig
    adj = adjoint_eigenpair(coeffs, grid, res.vbar)
    assert res.constants == hypothesis_constants(adj)
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


def test_stability_norms_read_v_at_each_sample():
    # an every-step run gives the functional at the 40 instants exactly;
    # V may not be interpolated between steps
    grid = SizeGrid.uniform(60.0, 200)
    res = stability_experiment(CONST, grid, epsilon=1e-6, t_end=120.0)
    phi = adjoint_eigenpair(CONST, grid, res.vbar).phi_vec
    times = np.linspace(0.0, 120.0, 41)[1:]
    traj = integrate(CONST, grid, seed_state(CONST, grid, scale=1e-6),
                     120.0, snapshot_times=times)
    v_by_time = dict(zip(traj.times.tolist(), traj.v_series.tolist()))
    expected = [res.alpha_weight * float(u @ (phi * grid.widths))
                + abs(v_by_time[t] - res.vbar) for t, u in traj.snapshots]
    assert len(expected) == 40
    np.testing.assert_allclose(res.norm_values, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [100, 200])
def test_stability_loss_rate_lies_within_tol_of_the_dense_eigenvalue(n):
    # fig2-bell's shape at vbar = 10: the adjoint eigenvalue's condition
    # number is large there, and its loss rate lies 13*DEFAULT_TOL*scale
    # from the dense eigenvalue at n = 200; the primal's is small
    coeffs = CoefficientSet(production=40.0, clearance=4.0,
                            conversion=Bell(0.001, 0.1, 2.0, width_sq=0.1))
    grid = SizeGrid.uniform(60.0, n)
    gen = Generator(coeffs, grid)
    scale = float((gen.apply(10.0, np.ones(n)) - 2.0 * gen.diagonal(10.0)).max())
    nu = eig(assemble(coeffs, grid, 10.0).matrix, right=False).real.max()
    res = stability_experiment(coeffs, grid, epsilon=1e-3, t_end=5.0)
    assert res.vbar == 10.0
    assert abs(res.loss_rate_at_vbar + nu) <= DEFAULT_TOL * scale


# relative offset of vbar from v_inf that puts the dense eigenvalue at
# vbar about 3*DEFAULT_TOL*scale from 0 on fig2-bell's shape
NEAR_ROOT = {100: 1.5e-7, 200: 3e-7}


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
@pytest.mark.parametrize("n", sorted(NEAR_ROOT))
def test_stability_regime_near_a_zero_loss_rate(n, side):
    # near lambda(vbar) = 0 a solve's error could flip the regime; it
    # must still match the sign of the dense eigenvalue
    grid = SizeGrid.uniform(60.0, n)
    bell = Bell(0.001, 0.1, 2.0, width_sq=0.1)
    v_inf = find_v_inf(CoefficientSet(production=2400.0, clearance=4.0,
                                      conversion=bell), grid).v_inf
    coeffs = CoefficientSet(production=4.0 * v_inf * (1.0 + side * NEAR_ROOT[n]),
                            clearance=4.0, conversion=bell)
    vbar, gen = coeffs.vbar, Generator(coeffs, grid)
    scale = float((gen.apply(vbar, np.ones(n)) - 2.0 * gen.diagonal(vbar)).max())
    nu = eig(assemble(coeffs, grid, vbar).matrix, right=False).real.max()
    assert 1.0 <= abs(nu) / (DEFAULT_TOL * scale) <= 10.0
    res = stability_experiment(coeffs, grid, epsilon=1e-6, t_end=1.0)
    assert res.regime == ("damping" if nu < 0.0 else "amplifying")


def test_stability_zero_perturbation_is_fixed_point():
    coeffs = CoefficientSet(production=240.0, clearance=4.0)
    grid = SizeGrid.uniform(30.0, 120)
    res = stability_experiment(coeffs, grid, epsilon=0.0, t_end=50.0)
    assert res.verdict == "stable"
    assert all(v == 0.0 for v in res.norm_values)
