"""Discrete-size chain oracle and its continuum cross-check."""

import numpy as np
import pytest

from priondyn import (Affine, Bell, CoefficientSet, Constant, DiscreteParams,
                      DiscreteState, calibration_mismatches, compare_continuum,
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
    # two-stage scheme: global error O(dt^2), so dt=1e-3 buys ~1e-6
    p = _params()
    s = DiscreteState(v=100.0, u=np.zeros(p.sizes.size))
    traj = integrate_discrete(p, s, t_end=1.0, dt=0.001)
    vbar = 600.0
    expected = vbar + (100.0 - vbar) * np.exp(-4.0 * np.asarray(traj.times))
    np.testing.assert_allclose(traj.v_series, expected, rtol=5e-6)
    assert traj.mass_residual_max < 1e-12


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


def test_record_every_below_one_is_refused():
    p = _params(n_max=50)
    s = DiscreteState(v=60.0, u=np.zeros(p.sizes.size))
    with pytest.raises(ValueError, match="record_every"):
        integrate_discrete(p, s, t_end=0.5, dt=0.1, record_every=0)


# --- calibration guard -----------------------------------------------------

def test_calibration_accepts_matched_shapes():
    p = default_calibration()
    coeffs, _ = matched_continuum_setup(p)
    assert calibration_mismatches(coeffs, p) == []


def test_calibration_flags_each_mismatch():
    p = default_calibration()
    good, _ = matched_continuum_setup(p)

    import dataclasses
    bad_conv = dataclasses.replace(good, conversion=Bell(0.01, 0.1, 2.0, width_sq=0.1))
    assert any("conversion" in m for m in calibration_mismatches(bad_conv, p))

    bad_frag = dataclasses.replace(good, fragmentation=Affine(0.01, 5e-4))
    assert any("fragmentation" in m for m in calibration_mismatches(bad_frag, p))

    bad_decay = dataclasses.replace(good, decay=Constant(0.5))
    assert any("decay" in m for m in calibration_mismatches(bad_decay, p))

    bad_prod = dataclasses.replace(good, production=100.0)
    assert any("production" in m for m in calibration_mismatches(bad_prod, p))


def test_compare_rejects_empty_fit_window():
    with pytest.raises(ValueError, match="window"):
        compare_continuum(default_calibration(), t_end=1.0, dt=0.1,
                          fit_window=(20.0, 50.0))


# --- the cross-check itself ------------------------------------------------

@pytest.fixture(scope="module")
def crosscheck():
    return compare_continuum(default_calibration())


def test_uninfected_paths_are_identical(crosscheck):
    # same Heun stage arithmetic, same fixed dt: bitwise agreement
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
