"""Discrete-size chain oracle and its continuum cross-check."""

import dataclasses

import numpy as np
import pytest

from priondyn import (DiscreteParams, DiscreteState, compare_continuum,
                      default_calibration, integrate_discrete,
                      matched_continuum_setup)


def _params(**kw):
    base = dict(production=2400.0, clearance=4.0, conversion=0.01,
                fragmentation=5e-4, decay=0.01, n0=2, n_max=200)
    base.update(kw)
    return DiscreteParams(**base)


# --- basic mechanics -------------------------------------------------------

def test_sizes_ladder():
    p = _params(n0=2, n_max=6)
    np.testing.assert_array_equal(p.sizes, [2, 3, 4, 5, 6])


def test_param_validation():
    with pytest.raises(ValueError):
        _params(n0=0)
    with pytest.raises(ValueError):
        _params(n_max=2, n0=2)
    with pytest.raises(ValueError):
        _params(conversion=-0.01)


def test_state_moments():
    p = _params(n0=2, n_max=4)
    s = DiscreteState(v=10.0, u=np.array([1.0, 2.0, 0.5]))
    assert s.count() == 3.5
    assert s.mass(p) == 1.0 * 2 + 2.0 * 3 + 0.5 * 4


def test_uninfected_relaxation_analytic():
    # second-order scheme: global error O(dt^2), so dt=1e-3 buys ~1e-6
    p = _params()
    s = DiscreteState(v=100.0, u=np.zeros(p.sizes.size))
    traj = integrate_discrete(p, s, t_end=1.0, dt=0.001)
    vbar = 600.0
    expected = vbar + (100.0 - vbar) * np.exp(-4.0 * np.asarray(traj.times))
    np.testing.assert_allclose(traj.v_series, expected, rtol=5e-6)
    assert traj.mass_residual_max < 1e-12


def test_uninfected_relaxation_converges_at_second_order():
    # with no polymer, v(t) = vbar + (v0 - vbar)*exp(-clearance*t), and
    # halving dt must cut the largest error about fourfold
    p = _params(production=600.0, clearance=1.0)
    s = DiscreteState(v=100.0, u=np.zeros(p.sizes.size))
    errors = []
    for dt in (0.2, 0.1, 0.05):
        traj = integrate_discrete(p, s, t_end=2.0, dt=dt)
        exact = 600.0 + (100.0 - 600.0) * np.exp(-1.0 * traj.times)
        errors.append(np.abs(traj.v_series - exact).max())
    ratios = np.asarray(errors[:-1]) / np.asarray(errors[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_mass_book_is_exact_in_growth():
    p = _params()
    u0 = np.exp(-0.05 * p.sizes.astype(float))
    u0 *= 1e-3 / u0.sum()
    s = DiscreteState(v=600.0, u=u0)
    traj = integrate_discrete(p, s, t_end=30.0, dt=0.02)
    # dissolved-mass identity holds termwise, so the book closes to
    # rounding even while the count climbs through the mode transient
    assert traj.mass_residual_max < 1e-10
    assert traj.count_series[-1] > 1.5 * traj.count_series[0]


def test_records_land_on_grid():
    p = _params(n_max=50)
    s = DiscreteState(v=60.0, u=np.zeros(p.sizes.size))
    traj = integrate_discrete(p, s, t_end=0.55, dt=0.1, record_every=2)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.55)
    assert traj.steps == 6  # five full steps plus the shortened last one


def test_a_halved_step_is_counted_and_equals_two_half_steps():
    # the largest loss rate is 6.1095, so a third of a 1-day step drives
    # an entry negative and the step is split once into two 0.5-day steps
    p = _params()
    u0 = np.exp(-0.05 * p.sizes)
    u0 *= 1e-3 / u0.sum()
    whole = integrate_discrete(p, DiscreteState(v=600.0, u=u0), 1.0, 1.0)
    halves = integrate_discrete(p, DiscreteState(v=600.0, u=u0), 1.0, 0.5)
    assert (whole.steps, whole.halvings) == (1, 1)
    assert (halves.steps, halves.halvings) == (2, 0)
    np.testing.assert_array_equal(whole.final_state.u, halves.final_state.u)
    assert whole.final_state.v == halves.final_state.v


def test_record_every_below_one_is_refused():
    p = _params(n_max=50)
    s = DiscreteState(v=60.0, u=np.zeros(p.sizes.size))
    with pytest.raises(ValueError, match="record_every"):
        integrate_discrete(p, s, t_end=0.5, dt=0.1, record_every=0)


# --- continuum twin --------------------------------------------------------

def test_continuum_twin_carries_the_chain_rates_and_size():
    p = default_calibration()
    coeffs, grid = matched_continuum_setup(p)
    x = grid.centers
    assert (coeffs.production, coeffs.clearance, coeffs.x0) == \
        (p.production, p.clearance, 0.0)
    np.testing.assert_allclose(coeffs.conversion(x), p.conversion, rtol=1e-15)
    np.testing.assert_allclose(coeffs.fragmentation(x), p.fragmentation * x,
                               rtol=1e-15)
    np.testing.assert_allclose(coeffs.decay(x), p.decay, rtol=1e-15)
    # one unit-width cell per integer size of the chain
    assert grid.n == p.n_max
    np.testing.assert_array_equal(grid.widths, 1.0)


def test_compare_rejects_empty_fit_window():
    with pytest.raises(ValueError, match="window"):
        compare_continuum(default_calibration(), t_end=1.0, dt=0.1,
                          fit_window=(20.0, 50.0))


def test_step_above_the_shared_bound_is_named():
    # at vbar the continuum's own polymer bound is 0.483 days; a longer dt
    # makes it take shorter steps than the chain, so the twins part ways
    with pytest.raises(ValueError,
                       match=r"dt=0\.6 .*continuum uninfected run took \d+ polymer-limited"):
        compare_continuum(default_calibration(), dt=0.6)


def test_twins_agree_through_stiff_monomer_steps():
    # a clearance of 20 puts dt/3 * clearance at 2 at dt = 0.3, past the
    # explicit Euler stage's stability limit, while the polymer bound stays
    # at 0.483: both twins take the same ESDIRK monomer stages
    calib = dataclasses.replace(default_calibration(), production=12000.0,
                                clearance=20.0)
    report = compare_continuum(calib, dt=0.3)
    assert report["uninfected_max_rel_diff_v"] == 0.0
    assert report["growth_rel_diff"] <= 0.05


def test_twins_agree_over_the_outbreak():
    # over 400 days the outbreak raises the monomer uptake until the
    # monomer is stiff; both twins still take every step alike
    report = compare_continuum(default_calibration(), t_end=400.0)
    assert report["uninfected_max_rel_diff_v"] == 0.0
    assert report["growth_rel_diff"] <= 0.05
    assert report["steps"] == dict.fromkeys(
        ("chain_uninfected", "continuum_uninfected", "chain_seeded",
         "continuum_seeded"), 1334)


# --- the cross-check itself ------------------------------------------------

@pytest.fixture(scope="module")
def crosscheck():
    return compare_continuum(default_calibration())


def test_uninfected_paths_are_identical(crosscheck):
    # same four-stage arithmetic, same fixed dt: bitwise agreement
    assert crosscheck["uninfected_max_rel_diff_v"] == 0.0


def test_growth_rates_agree(crosscheck):
    assert crosscheck["growth_rel_diff"] <= 0.05
    closed = crosscheck["growth_rate_closed_form"]
    assert closed == pytest.approx(0.04477, abs=1e-4)
    assert crosscheck["growth_rate_discrete"] > 0.0
    assert crosscheck["growth_rate_continuum"] > 0.0


def test_discrete_books_and_truncation(crosscheck):
    assert crosscheck["mass_residual_max"] < 1e-8
    assert crosscheck["top_bin_share"] < 0.01


def test_mean_sizes_agree(crosscheck):
    d = crosscheck["mean_size_discrete"]
    e = crosscheck["mean_size_eigenmode"]
    assert e == pytest.approx(np.sqrt(0.01 * 600.0 / 5e-4), rel=1e-12)
    assert d == pytest.approx(e, rel=0.05)


def test_cross_check_counts_its_steps(crosscheck):
    # 70 days at 0.3: 233 full steps and a shortened last one in each run
    assert crosscheck["dt"] == 0.3
    assert crosscheck["steps"] == dict.fromkeys(
        ("chain_uninfected", "continuum_uninfected", "chain_seeded",
         "continuum_seeded"), 234)


def test_refining_the_step_moves_nothing(crosscheck):
    # rows stay 0.3 days apart at dt = 0.06, so only the step changes
    fine = compare_continuum(default_calibration(), dt=0.06)
    assert fine["steps"]["chain_seeded"] == 1167
    for key in ("growth_rate_discrete", "growth_rate_continuum"):
        assert crosscheck[key] == pytest.approx(fine[key], rel=1e-4)
    assert crosscheck["growth_rel_diff"] == pytest.approx(
        fine["growth_rel_diff"], abs=1e-5)
    assert crosscheck["uninfected_max_rel_diff_v"] == 0.0
    assert fine["uninfected_max_rel_diff_v"] == 0.0
    # at dt = 0.06 the row rule gives every 5th step, the rows the
    # cross-check read before its default step became 0.3
    assert fine["growth_rate_discrete"] == pytest.approx(0.041405137002628524,
                                                         rel=1e-12)
    assert fine["growth_rate_continuum"] == pytest.approx(0.04207241555099092,
                                                          rel=1e-12)
