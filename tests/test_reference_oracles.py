"""Frozen expected values for the closed-form reference module.

Every literal below was fixed before the numerical machinery existed and
must never be edited to make a solver pass: the solvers are tested
against these, not the other way round.
"""

import numpy as np
import pytest

from priondyn import reference as ref

import oracle

# frozen values (rates: conv0=0.001, frag_slope=0.03, decay0=0.05)
LOSS_AT_10 = 0.03267949192431123
LOSS_AT_100 = -0.00477225575051661
LOSS_AT_600 = -0.08416407864998739
ADJ_LENGTH_600 = 4.47213595499958
V_EQ = 83.33333333333334
MEAN_EQ = 1.6666666666666667
AFFINE_LOSS_100 = -0.03830951894845301
LOG_LAW_1000 = 82.07486364473108


# --- loss rate, constant-coefficient family --------------------------------

def test_loss_rate_anchors():
    assert ref.loss_rate_constant(0.001, 0.03, 0.05, 10.0) == pytest.approx(LOSS_AT_10, abs=1e-15)
    assert ref.loss_rate_constant(0.001, 0.03, 0.05, 100.0) == pytest.approx(LOSS_AT_100, abs=1e-15)
    assert ref.loss_rate_constant(0.001, 0.03, 0.05, 600.0) == pytest.approx(LOSS_AT_600, abs=1e-15)


def test_loss_rate_sign_structure():
    # positive (all polymers die out) at low level, negative past the root
    assert ref.loss_rate_constant(0.001, 0.03, 0.05, 1.0) > 0.0
    assert ref.loss_rate_constant(0.001, 0.03, 0.05, V_EQ) == pytest.approx(0.0, abs=1e-15)
    assert ref.loss_rate_constant(0.001, 0.03, 0.05, 1000.0) < 0.0


# --- adjoint weight --------------------------------------------------------

def test_adjoint_length_and_profile():
    L = oracle.adjoint_slope_length(0.001, 0.03, 600.0)
    assert L == pytest.approx(ADJ_LENGTH_600, abs=1e-13)
    phi = oracle.adjoint_profile(np.array([0.0, L, 2 * L]), 0.001, 0.03, 600.0)
    np.testing.assert_allclose(phi, [1.0, 2.0, 3.0], atol=1e-14)


# --- unimodal equilibrium shape -------------------------------------------

def test_unimodal_profile_pointwise():
    assert ref.unimodal_profile(0.0) == 0.0
    r = np.array([0.5, 1.0, 3.0])
    expected = (r + 0.5 * r * r) * np.exp(-r - 0.5 * r * r)
    np.testing.assert_allclose(ref.unimodal_profile(r), expected, rtol=1e-15)


def test_dilated_profile_mass_and_center():
    # fine trapezoid on a wide window; both books within discretization noise
    x = np.linspace(0.0, 40.0, 200001)
    u = ref.dilated_equilibrium_profile(x, 0.03, 0.05)
    mass = np.trapezoid(u, x)
    com = np.trapezoid(x * u, x) / mass
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert com == pytest.approx(MEAN_EQ, rel=1e-8)


# --- affine extension ------------------------------------------------------

def test_affine_family_anchor():
    got = oracle.affine_family_loss_rate(0.001, 0.0005, 0.01, 0.03, 0.05, 100.0)
    assert got == pytest.approx(AFFINE_LOSS_100, abs=1e-14)


def test_affine_family_reduces_to_constant():
    for v in (10.0, 100.0, 600.0):
        assert oracle.affine_family_loss_rate(0.001, 0.0, 0.0, 0.03, 0.05, v) == \
            pytest.approx(ref.loss_rate_constant(0.001, 0.03, 0.05, v), abs=1e-15)


def test_affine_branch_is_the_smaller_root():
    # z must sit below -v*conv_slope so the implied profile is integrable
    v, conv_slope = 100.0, 0.0005
    z = oracle.affine_family_loss_rate(0.001, conv_slope, 0.01, 0.03, 0.05, v) - 0.05
    assert z < -v * conv_slope


# --- incubation log law ----------------------------------------------------

def test_log_law_point():
    assert ref.incubation_time_log_law(LOSS_AT_600, 1000.0) == \
        pytest.approx(LOG_LAW_1000, rel=1e-13)


def test_log_law_rejects_decaying_regime():
    with pytest.raises(ValueError):
        ref.incubation_time_log_law(0.01, 1000.0)
    with pytest.raises(ValueError):
        ref.incubation_time_log_law(0.0, 1000.0)


# --- seeding profile -------------------------------------------------------

def test_seed_profile_values():
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(ref.initial_seed_profile(x),
                               [0.0, 0.25, 2.0 / 17.0], rtol=1e-15)
