"""Rate shapes, parameter bundle validation, grids and state moments."""

import numpy as np
import pytest

from priondyn import (Affine, Bell, CoefficientSet, Constant, PolymerState,
                      ScaledBell, SizeGrid, eval_coefficients)


# --- shapes ----------------------------------------------------------------

def test_constant_shape():
    c = Constant(0.05)
    np.testing.assert_array_equal(c(np.array([0.0, 3.0, 60.0])), [0.05, 0.05, 0.05])


def test_affine_shape():
    a = Affine(0.01, 0.03)
    np.testing.assert_allclose(a(np.array([0.0, 2.0])), [0.01, 0.07], rtol=1e-15)


def test_bell_shape_peak_and_curvature():
    b = Bell(base=0.001, amplitude=0.01, center=2.0, width_sq=0.1)
    assert b(np.array([2.0]))[0] == pytest.approx(0.011, abs=1e-15)
    # two widths away the bump is essentially gone
    assert b(np.array([4.0]))[0] == pytest.approx(0.001, abs=1e-12)
    assert b.curvature(2.0) == pytest.approx(-0.2, rel=1e-14)
    # curvature matches a finite-difference probe at the peak
    eps = 1e-4
    fd = (b(np.array([2.0 + eps]))[0] - 2 * b(np.array([2.0]))[0]
          + b(np.array([2.0 - eps]))[0]) / eps ** 2
    assert fd == pytest.approx(b.curvature(2.0), rel=1e-4)


def test_scaled_bell_area_invariant():
    # bump integrates to 1 at every tightness; peak grows, width shrinks
    for a in (0.01, 0.1, 1.0):
        s = ScaledBell(base=0.0, tightness=a, center=8.0)
        x = np.linspace(8.0 - 8.0 / a, 8.0 + 8.0 / a, 400001)
        area = np.trapezoid(s(x), x)
        assert area == pytest.approx(1.0, abs=1e-6), "tightness %g" % a
        assert s(np.array([8.0]))[0] == pytest.approx(a / np.sqrt(2 * np.pi), rel=1e-14)


# --- parameter bundle ------------------------------------------------------

def test_coefficient_set_defaults():
    c = CoefficientSet(production=2400.0, clearance=4.0)
    assert c.conversion == Constant(0.001)
    assert c.fragmentation == Affine(0.0, 0.03)
    assert c.decay == Constant(0.05)
    assert c.x0 == 0.0


@pytest.mark.parametrize("kwargs", [
    {"production": -1.0, "clearance": 4.0},
    {"production": 2400.0, "clearance": -0.1},
    {"production": 2400.0, "clearance": 4.0, "x0": -0.5},
])
def test_coefficient_set_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        CoefficientSet(**kwargs)


def test_eval_coefficients_samples_centers():
    c = CoefficientSet(production=2400.0, clearance=4.0)
    grid = SizeGrid.uniform(10.0, 50)
    conv, frag, decay = eval_coefficients(c, grid)
    np.testing.assert_allclose(conv, 0.001)
    np.testing.assert_allclose(frag, 0.03 * grid.centers, rtol=1e-15)
    np.testing.assert_allclose(decay, 0.05)


def test_eval_coefficients_names_negative_rate():
    c = CoefficientSet(production=2400.0, clearance=4.0,
                       decay=Affine(0.01, -0.01))
    grid = SizeGrid.uniform(10.0, 50)
    with pytest.raises(ValueError, match="decay"):
        eval_coefficients(c, grid)


# --- grids -----------------------------------------------------------------

def test_uniform_grid_geometry():
    g = SizeGrid.uniform(30.0, 300)
    assert g.n == 300
    assert g.x0 == 0.0
    np.testing.assert_allclose(g.widths, 0.1, rtol=1e-12)
    assert g.widths.sum() == pytest.approx(30.0, rel=1e-14)
    # centers sit mid-cell
    np.testing.assert_allclose(g.centers, 0.05 + 0.1 * np.arange(300), rtol=1e-12)
    edges = g.edges
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(30.0, rel=1e-15)


def test_uniform_grid_with_cutoff():
    g = SizeGrid.uniform(10.0, 100, x0=0.5)
    assert g.edges[0] == pytest.approx(0.5)
    assert g.widths.sum() == pytest.approx(9.5, rel=1e-13)
    assert g.centers[0] > 0.5


def test_grid_rejects_degenerate_domains():
    with pytest.raises(ValueError):
        SizeGrid.uniform(0.0, 100)
    with pytest.raises(ValueError):
        SizeGrid.uniform(10.0, 1)
    with pytest.raises(ValueError):
        SizeGrid.uniform(0.5, 100, x0=0.5)


# --- state moments ---------------------------------------------------------

def test_state_moments_count_and_mass():
    g = SizeGrid.uniform(10.0, 1000)
    u = np.exp(-g.centers)
    st = PolymerState(v=600.0, u=u, grid=g)
    # integral of exp(-x) on [0,10] and of x exp(-x)
    assert st.moment0() == pytest.approx(1.0 - np.exp(-10.0), rel=1e-4)
    assert st.moment1() == pytest.approx(1.0 - 11.0 * np.exp(-10.0), rel=1e-4)
    # both moments are linear in the density
    w = np.sin(g.centers) ** 2
    both = PolymerState(v=600.0, u=u + 2.0 * w, grid=g)
    other = PolymerState(v=600.0, u=w, grid=g)
    assert both.moment0() == pytest.approx(st.moment0() + 2.0 * other.moment0(), rel=1e-13)
    assert both.moment1() == pytest.approx(st.moment1() + 2.0 * other.moment1(), rel=1e-13)
