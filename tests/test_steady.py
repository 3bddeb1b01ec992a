"""Steady-state construction, existence logic, and mode counting."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig

from priondyn import (Affine, Bell, CoefficientSet, Constant, EigenConvergenceError,
                      EigenSolution, Generator, SizeGrid, assemble, bimodality_report,
                      build_steady_state, detect_modes, find_v_inf,
                      stationary_profile_check)
from priondyn.eigen import DEFAULT_TOL
from priondyn.steady import ROOT_TOL, _prominent_peaks

steady_module = importlib.import_module("priondyn.steady")

CONST = CoefficientSet(production=2400.0, clearance=4.0)

V_EQ = 83.33333333333334
COUNT_EQ = 24800.0
MEAN_EQ = 1.6666666666666667


@pytest.fixture(scope="module")
def baseline():
    return build_steady_state(CONST, SizeGrid.uniform(30.0, 800))


# --- constant-coefficient anchors ------------------------------------------

def test_steady_anchors(baseline):
    assert baseline.exists
    assert baseline.v_inf == pytest.approx(V_EQ, rel=1e-3)
    assert baseline.rho_inf == pytest.approx(COUNT_EQ, rel=1e-3)
    assert baseline.center_of_mass() == pytest.approx(MEAN_EQ, rel=1e-3)
    assert baseline.vbar == 600.0
    # physical density is the unit profile scaled by the count
    np.testing.assert_allclose(baseline.u_inf,
                               baseline.rho_inf * baseline.u_profile)


def test_root_diagnostics(baseline):
    root = baseline.root
    assert root.found
    assert root.bracket_lo < root.v_inf < root.bracket_hi
    # bracket tolerance in v maps through the loss-rate slope (~3e-4)
    assert abs(root.lambda_at_root) < 1e-7
    # the closed-form root (test_steady_anchors) within a fixed count of
    # evaluations: deterministic, not a timing
    assert 0 < root.evaluations <= 16
    assert root.iterations >= root.evaluations - 1  # v=0 takes no iteration
    assert not root.monotone_warning


@pytest.mark.parametrize("coeffs,xmax", [
    (CoefficientSet(production=2400.0, clearance=4.0,
                    conversion=Bell(0.001, 0.1, 2.0, width_sq=0.1)), 60.0),
    (CONST, 30.0),
    (CoefficientSet(production=2400.0, clearance=4.0,
                    conversion=Bell(0.001, 0.1, 4.167, width_sq=0.1)), 60.0),
], ids=["fig3", "fig3-control", "fig4-center-4.167"])
def test_root_against_dense_oracle(coeffs, xmax):
    grid = SizeGrid.uniform(xmax, 400)
    root = find_v_inf(coeffs, grid)
    assert root.found
    gen = Generator(coeffs, grid)
    scale = float((gen.apply(root.v_inf, np.ones(grid.n))
                   - 2.0 * gen.diagonal(root.v_inf)).max())
    nu = eig(assemble(coeffs, grid, root.v_inf).matrix, right=False).real.max()
    assert abs(nu) <= ROOT_TOL + DEFAULT_TOL * scale


def _fake_loss_rate(monkeypatch, f):
    """Replace the eigen solve inside the root search by a scalar f(v)."""
    levels, warm = [], []

    def fake(gen, v, u0=None):
        levels.append(v)
        warm.append(u0 is not None)
        u = None if v == 0.0 else np.full(gen.grid.n, 1.0 / gen.grid.xmax)
        return EigenSolution(v=v, lambda_eig=f(v), u_vec=u, phi_vec=None,
                             residual=0.0, iterations=1, grid=gen.grid)

    monkeypatch.setattr(steady_module, "generator_eigenpair", fake)
    return levels, warm


def test_exact_zero_at_bracket_end_is_returned(monkeypatch):
    levels, warm = _fake_loss_rate(monkeypatch, lambda v: 4.0 - v)
    root = find_v_inf(CONST, SizeGrid.uniform(30.0, 50))
    assert levels == [0.0, 1.0, 2.0, 4.0]
    # each solve starts from the previous profile; v=0 has none
    assert warm == [False, False, True, True]
    assert root.found and root.v_inf == 4.0 and root.lambda_at_root == 0.0
    assert root.solution.v == 4.0


def test_bracket_search_does_not_stall_on_a_convex_loss_rate(monkeypatch):
    # plain regula falsi keeps the far end fixed here and creeps (23
    # evaluations); the halved end weight moves it (13)
    levels, _ = _fake_loss_rate(monkeypatch, lambda v: np.exp(-v) - np.exp(-5.0))
    root = find_v_inf(CONST, SizeGrid.uniform(30.0, 50))
    assert root.found
    assert root.v_inf == pytest.approx(5.0, rel=1e-6)
    assert abs(root.lambda_at_root) <= ROOT_TOL
    assert len(levels) <= 15


def test_bracket_search_needs_only_a_sign_change(monkeypatch):
    # a jump, no slope anywhere: the bracket still closes on it
    levels, _ = _fake_loss_rate(monkeypatch, lambda v: 1.0 if v < np.pi else -1.0)
    root = find_v_inf(CONST, SizeGrid.uniform(30.0, 50))
    assert root.found
    assert root.bracket_lo < np.pi <= root.bracket_hi
    assert root.bracket_hi - root.bracket_lo <= 1e-13 * root.bracket_hi
    # the halved end weights pull the secant point inward, so a jump
    # costs about what bisection pays (45 steps here), far below the cap
    assert len(levels) < 60
    assert all(0.0 <= v <= 4.0 for v in levels)


def test_bracket_search_ending_on_its_cap_says_so(monkeypatch):
    levels, _ = _fake_loss_rate(monkeypatch, lambda v: np.exp(-v) - np.exp(-5.0))
    monkeypatch.setattr(steady_module, "ROOT_MAX_STEPS", 3)
    root = find_v_inf(CONST, SizeGrid.uniform(30.0, 50))
    # ladder 0, 1, ..., 8, then the three capped steps
    assert len(levels) == 5 + 3
    assert root.found and abs(root.lambda_at_root) > ROOT_TOL
    assert "stopped after 3 steps" in root.monotone_warning
    assert root.bracket_lo <= root.v_inf <= root.bracket_hi


def test_profile_integrates_to_one(baseline):
    total = float(baseline.u_profile @ baseline.grid.widths)
    assert total == pytest.approx(1.0, rel=1e-12)


# --- existence boundary ----------------------------------------------------

def test_low_production_has_no_infected_state():
    coeffs = CoefficientSet(production=240.0, clearance=4.0)
    ss = build_steady_state(coeffs, SizeGrid.uniform(30.0, 400))
    # the loss-rate root sits above the uninfected level, so the count
    # formula would go nonpositive: flagged, not fabricated
    assert not ss.exists
    assert ss.v_inf == pytest.approx(V_EQ, rel=2e-3)
    assert ss.vbar == 60.0
    assert ss.rho_inf is None
    assert ss.u_inf is None


def test_no_conversion_means_no_root():
    coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                            conversion=Constant(0.0))
    grid = SizeGrid.uniform(30.0, 200)
    root = find_v_inf(coeffs, grid)
    assert not root.found
    with pytest.raises(ValueError, match="root"):
        build_steady_state(coeffs, grid)


# --- stationary second-order form ------------------------------------------

def test_stationary_residual_refines():
    norms, fluxes = [], []
    for n in (200, 400, 800):
        ss = build_steady_state(CONST, SizeGrid.uniform(30.0, n))
        chk = stationary_profile_check(ss)
        norms.append(chk.ode_residual_norm)
        fluxes.append(chk.flux_residual)
    # both books tighten first order with the grid
    assert norms[2] < norms[1] < norms[0]
    assert fluxes[2] < fluxes[1] < fluxes[0]
    assert fluxes[2] < 0.03
    assert norms[2] < 0.03


def test_stationary_check_guards_its_class():
    # splitting with a nonzero intercept leaves the derived form; the
    # transport shape is unrestricted and must NOT trip the guard
    offs = CoefficientSet(production=2400.0, clearance=4.0,
                          fragmentation=Affine(0.005, 0.03))
    ss = build_steady_state(offs, SizeGrid.uniform(30.0, 300))
    with pytest.raises(ValueError):
        stationary_profile_check(ss)

    bell = CoefficientSet(production=2400.0, clearance=4.0,
                          conversion=Bell(0.001, 0.01, 2.0, width_sq=0.1))
    bss = build_steady_state(bell, SizeGrid.uniform(60.0, 300))
    stationary_profile_check(bss)  # any transport shape is in class

    sub = CoefficientSet(production=240.0, clearance=4.0)
    missing = build_steady_state(sub, SizeGrid.uniform(30.0, 300))
    with pytest.raises(ValueError):
        stationary_profile_check(missing)



def test_root_search_failure_names_the_level(monkeypatch):
    # a shifted solve that makes no headway exhausts the iteration budget
    # at the first ladder level; the error must say which level that was
    monkeypatch.setattr(Generator, "solve_shifted",
                        lambda self, v, s, b, adjoint=False: b.copy())
    with pytest.raises(EigenConvergenceError, match="level v=1 "):
        find_v_inf(CONST, SizeGrid.uniform(30.0, 50))

# --- mode structure --------------------------------------------------------

@pytest.fixture(scope="module")
def bumpy():
    coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                            conversion=Bell(0.001, 0.1, 2.0, width_sq=0.1))
    return coeffs, build_steady_state(coeffs, SizeGrid.uniform(60.0, 800))


def test_localized_speedup_splits_the_profile(bumpy):
    _, ss = bumpy
    assert ss.exists
    # a fast-transport pocket drains density locally and parks a second
    # hump past it
    report = bimodality_report(ss)
    assert report.n_modes == 2
    assert report.necessary_condition_met is True
    assert report.secondary_mass_fraction > 0.0
    assert len(report.mode_locations) == 2
    assert report.mode_locations[0] < 2.0 < report.mode_locations[1]
    assert report.center_of_mass == pytest.approx(ss.center_of_mass())


def test_flat_transport_control_is_unimodal(baseline):
    report = bimodality_report(baseline)
    assert report.n_modes == 1
    assert report.necessary_condition_met is False
    assert report.secondary_mass_fraction == 0.0


def test_curvature_condition_tracks_amplitude():
    # amplitude at threshold scale: condition needs v_inf*min(curv) < -3*slope
    weak = CoefficientSet(production=2400.0, clearance=4.0,
                          conversion=Bell(0.001, 1e-5, 2.0, width_sq=0.1))
    ss = build_steady_state(weak, SizeGrid.uniform(60.0, 400))
    report = bimodality_report(ss)
    assert report.necessary_condition_met is False
    assert report.n_modes == 1


def test_detect_modes_discards_boundary_ripple():
    grid = SizeGrid.uniform(10.0, 200)
    x = grid.centers
    u = np.exp(-((x - 5.0) ** 2))
    u[0] = 10.0  # spike in the first cell must not count as a mode
    idx, prominences = detect_modes(u, grid)
    assert len(idx) == 1
    assert abs(x[idx[0]] - 5.0) < 0.2
    assert prominences[0] > 0.0


def test_detect_modes_two_humps_synthetic():
    grid = SizeGrid.uniform(20.0, 400)
    x = grid.centers
    u = np.exp(-((x - 4.0) ** 2)) + 0.5 * np.exp(-((x - 12.0) ** 2))
    idx, _ = detect_modes(u, grid)
    assert len(idx) == 2
    np.testing.assert_allclose(x[idx], [4.0, 12.0], atol=0.2)


PROFILES = st.one_of(
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=40),
    # small integers make plateaus, including ones that touch an end
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40))


@settings(max_examples=400, deadline=None)
@given(x=PROFILES,
       threshold=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=5.0)))
@example(x=[0.0], threshold=0.0)
@example(x=[1.0, 2.0], threshold=0.0)
@example(x=[1.0, 3.0, 1.0], threshold=0.0)
@example(x=[1.0, 3.0, 1.0], threshold=2.0)
@example(x=[1.0, 3.0, 1.0], threshold=2.5)
@example(x=[2.5] * 7, threshold=0.0)
@example(x=[0.0] * 9, threshold=0.5)
@example(x=[0, 2, 2, 1, 2, 2, 2, 0, 3, 3], threshold=1.0)
def test_prominent_peaks_match_find_peaks(x, threshold):
    # scipy.signal is the oracle here only; the package never imports it
    from scipy.signal import find_peaks

    x = np.asarray(x, dtype=float)
    want_idx, props = find_peaks(x, prominence=threshold)
    idx, prom = _prominent_peaks(x, threshold)
    np.testing.assert_array_equal(idx, want_idx)
    # bitwise: same values, same order, no tolerance
    assert prom.tobytes() == props["prominences"].tobytes()
