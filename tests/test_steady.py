"""Steady-state construction, existence logic, and mode counting."""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig

from priondyn import (Affine, Bell, CoefficientSet, Constant, EigenConvergenceError,
                      EigenSolution, Generator, PolymerState, PositivityViolationError,
                      SizeGrid, assemble, bimodality_report, build_steady_state,
                      detect_modes, find_v_inf, integrate, principal_eigenpair,
                      stationary_profile_check)
from priondyn.config import parse_config
from priondyn.eigen import DEFAULT_TOL
from priondyn.steady import _prominent_peaks

from oracle import MomentClosure

steady_module = importlib.import_module("priondyn.steady")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
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
    assert root.v_inf < root.bracket_hi
    assert root.bracket_hi - root.v_inf <= 1e-13 * root.bracket_hi
    # a bracket of 1e-13 relative maps through the loss-rate slope (~3e-4)
    assert root.solution.v == root.v_inf
    assert abs(root.solution.lambda_eig) <= 1e-12
    # one eigen solve, at v_inf; the ladder 0.5, 1, ..., 128 (v_lb is 0.94
    # on this grid) and the steered search take signs only: deterministic
    # counts, not a timing (plain bisection takes 51)
    assert root.evaluations == 1
    assert root.sign_tests == 28


ORACLE_CASES = [
    (CoefficientSet(production=2400.0, clearance=4.0,
                    conversion=Bell(0.001, 0.1, 2.0, width_sq=0.1)), 60.0),
    (CONST, 30.0),
    (CoefficientSet(production=2400.0, clearance=4.0,
                    conversion=Bell(0.001, 0.1, 4.167, width_sq=0.1)), 60.0),
]
ORACLE_IDS = ["fig3", "fig3-control", "fig4-center-4.167"]


@pytest.mark.parametrize("coeffs,xmax", ORACLE_CASES, ids=ORACLE_IDS)
def test_root_against_dense_oracle(coeffs, xmax):
    grid = SizeGrid.uniform(xmax, 400)
    root = find_v_inf(coeffs, grid)
    gen = Generator(coeffs, grid)
    scale = float((gen.apply(root.v_inf, np.ones(grid.n))
                   - 2.0 * gen.diagonal(root.v_inf)).max())
    nu = eig(assemble(coeffs, grid, root.v_inf).matrix, right=False).real.max()
    assert abs(nu) <= DEFAULT_TOL * scale


@pytest.mark.parametrize("coeffs,xmax", ORACLE_CASES, ids=ORACLE_IDS)
@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0])
def test_sign_test_against_dense_oracle(coeffs, xmax, factor):
    # the ladder's certificate reads "positive loss rate" exactly when the
    # dense principal eigenvalue is negative, on either side of the root,
    # and so does the sign of the value 1/<h, x> that steers the search
    grid = SizeGrid.uniform(xmax, 300)
    gen = Generator(coeffs, grid)
    v = factor * find_v_inf(coeffs, grid).v_inf
    x, certified = gen.certify(v, 0.0, np.ones(grid.n))
    nu = eig(assemble(coeffs, grid, v).matrix, right=False).real.max()
    assert certified == (nu < 0.0), (nu, factor)
    assert (float(grid.widths @ x) > 0.0) == (nu < 0.0), (nu, factor)
    if certified:
        # -L(v) is then an M-matrix: x >= 1/max(-diag L(v)) entrywise
        assert x.min() >= 1.0 / float((-gen.diagonal(v)).max())


def _bisection(coeffs, grid):
    """(lo, hi, sign tests) of plain bisection on ``Generator.certify``'s
    verdicts at shift 0: find_v_inf's ladder, then the midpoint of [lo, hi]
    until hi - lo <= 1e-13*hi."""
    gen = Generator(coeffs, grid)
    ones = np.ones(grid.n)
    v_max = min(1e150 / float(-gen.t_diag.min()), 1e300)
    lo, hi, tests = 0.0, min(1.0, v_max), 1
    while gen.certify(hi, 0.0, ones)[1]:
        lo, hi, tests = hi, min(2.0 * hi, v_max), tests + 1
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        tests += 1
        if gen.certify(mid, 0.0, ones)[1]:
            lo = mid
        else:
            hi = mid
    return lo, hi, tests


def _shipped_roots():
    """(name, coeffs, xmax) of the nine roots the shipped configs solve:
    fig3, fig3-control and the seven peak_center items of fig4."""
    roots = []
    for name in ("fig3", "fig3-control", "fig4"):
        cfg = parse_config((CONFIG_DIR / (name + ".cfg")).read_text())
        if cfg.sweep_axis is None:
            roots.append((name, cfg.coeffs, cfg.xmax))
            continue
        assert cfg.sweep_axis == "peak_center"
        for center in cfg.sweep_values:
            bell = dataclasses.replace(cfg.coeffs.conversion, center=center)
            roots.append(("%s-%g" % (name, center),
                          dataclasses.replace(cfg.coeffs, conversion=bell), cfg.xmax))
    return roots


BISECTION_CASES = [
    *[pytest.param(coeffs, SizeGrid.uniform(xmax, n), id="%s-n%d" % (name, n))
      for name, coeffs, xmax in _shipped_roots() for n in (100, 200)],
    # v_inf = 0.0831, below the first ladder level
    pytest.param(CoefficientSet(production=2400.0, clearance=4.0,
                                conversion=Constant(1.0)),
                 SizeGrid.uniform(30.0, 200), id="below-1"),
    *[pytest.param(CoefficientSet(production=2400.0, clearance=4.0, x0=x0),
                   SizeGrid.uniform(30.0 + x0, 300, x0), id="x0-%g" % x0)
      for x0 in (0.5, 2.0)],
    pytest.param(CoefficientSet(production=40000.0, clearance=0.0,
                                conversion=Constant(1e-5)),
                 SizeGrid.uniform(30.0, 100), id="zero-clearance"),
]


def _assert_ends_like_bisection(coeffs, grid):
    root = find_v_inf(coeffs, grid)
    lo, hi, tests = _bisection(coeffs, grid)
    assert (root.v_inf, root.bracket_hi) == (lo, hi)
    assert root.sign_tests <= tests


@pytest.mark.parametrize("coeffs,grid", BISECTION_CASES)
def test_root_search_ends_where_bisection_ends(coeffs, grid):
    # the steered search tests only points of bisection's midpoint tree,
    # so it stops on the bracket bisection stops on, bit for bit
    _assert_ends_like_bisection(coeffs, grid)


def test_shipped_roots_take_half_of_bisections_sign_tests():
    # plain bisection takes 456 sign tests on these nine roots
    tests = [find_v_inf(coeffs, SizeGrid.uniform(xmax, 800)).sign_tests
             for _, coeffs, xmax in _shipped_roots()]
    assert sum(tests) <= 260, tests


def _fake_sign(monkeypatch, f=None):
    """Record the levels of the root search's sign test, the certificate at
    shift 0, and unless f is None replace it by a scalar f(v): the solve
    1/f(v) in every cell, certified where f(v) > 0, and singular (None)
    where f(v) = 0.  The eigen solve's shifts stay real."""
    levels = []
    certify = Generator.certify

    def fake(gen, v, s, b, adjoint=False):
        if s == 0.0:
            levels.append(v)
            if f is not None:
                fv = f(v)
                return (np.full(gen.grid.n, 1.0 / fv) if fv else None), fv > 0.0
        return certify(gen, v, s, b, adjoint=adjoint)

    monkeypatch.setattr(Generator, "certify", fake)
    return levels


def _fake_loss_rate(monkeypatch, f):
    """Replace the eigen solve inside the root search by a scalar f(v), and
    the sign certificate by the sign of f."""
    levels, warm = [], []

    def fake(gen, v, u0=None):
        levels.append(v)
        warm.append(u0 is not None)
        u = np.full(gen.grid.n, 1.0 / gen.grid.xmax)
        return EigenSolution(v=v, lambda_eig=f(v), u_vec=u, phi_vec=None,
                             residual=0.0, iterations=1, generator=gen)

    monkeypatch.setattr(steady_module, "generator_eigenpair", fake)
    return levels, warm, _fake_sign(monkeypatch, f)


def test_exact_zero_at_bracket_end_is_returned(monkeypatch):
    # the root sits on ladder level 4: the bisection closes below it
    levels, warm, signs = _fake_loss_rate(monkeypatch, lambda v: 4.0 - v)
    root = find_v_inf(CONST, SizeGrid.uniform(30.0, 50))
    assert signs[:3] == [1.0, 2.0, 4.0]
    assert 4.0 - 1e-13 * 4.0 <= root.v_inf < 4.0
    # one eigen solve, at lo, started from its certificate
    assert levels == [root.v_inf] and warm == [True]
    assert root.solution.v == root.v_inf
    assert (root.evaluations, root.sign_tests) == (1, len(signs))


def test_bracket_search_needs_only_a_sign_change(monkeypatch):
    # a jump, no slope anywhere: the bracket still closes on it
    levels, warm, signs = _fake_loss_rate(monkeypatch,
                                          lambda v: 1.0 if v < np.pi else -1.0)
    root = find_v_inf(CONST, SizeGrid.uniform(30.0, 50))
    assert root.v_inf < np.pi <= root.bracket_hi
    assert root.bracket_hi - root.v_inf <= 1e-13 * root.bracket_hi
    assert len(signs) <= 60
    assert all(0.0 < v <= 4.0 for v in signs)
    assert levels == [root.v_inf] and warm == [True]


def test_root_below_the_first_ladder_level(monkeypatch):
    # the ladder's first level already reads nonpositive; the bisection
    # stop is relative to hi, so it still ends on a certified lo > 0
    levels, warm, signs = _fake_loss_rate(monkeypatch, lambda v: 1e-6 - v)
    root = find_v_inf(CONST, SizeGrid.uniform(30.0, 50))
    assert 0.0 < root.v_inf < 1e-6 <= root.bracket_hi
    assert root.bracket_hi - root.v_inf <= 1e-13 * root.bracket_hi
    assert levels == [root.v_inf] and warm == [True]
    assert len(signs) <= 80


def test_root_below_a_turn_of_the_loss_rate(monkeypatch):
    # the loss rate crosses zero near v = 8.3e-4 and turns positive again
    # below v = 1 through outflow at xmax, so a ladder from 1 never sees
    # the root; v_lb = 3.75e-5 starts it at 2**-15
    coeffs = CoefficientSet(production=2400.0, clearance=4.0, conversion=Constant(100.0))
    grid = SizeGrid.uniform(30.0, 200)
    signs = _fake_sign(monkeypatch)
    root = find_v_inf(coeffs, grid)
    assert signs[0] == 2.0 ** -15 and root.sign_tests <= 32
    assert root.v_inf == pytest.approx(8.3075e-4, rel=1e-4)
    assert root.bracket_hi - root.v_inf <= 1e-13 * root.bracket_hi
    gen = Generator(coeffs, grid)
    scale = float((gen.apply(root.v_inf, np.ones(grid.n))
                   - 2.0 * gen.diagonal(root.v_inf)).max())
    nu = eig(assemble(coeffs, grid, root.v_inf).matrix, right=False).real.max()
    assert abs(nu) <= DEFAULT_TOL * scale


def test_profile_integrates_to_one(baseline):
    total = float(baseline.u_profile @ baseline.grid.widths)
    assert total == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("x0", [0.5, 2.0])
def test_steady_state_is_a_fixed_point_with_a_minimal_size(x0):
    # fragments below x0 hand their mass back to the monomer pool, so the
    # steady count must close a monomer balance that includes that return
    coeffs = CoefficientSet(production=2400.0, clearance=4.0, x0=x0)
    grid = SizeGrid.uniform(30.0, 400, x0=x0)
    ss = build_steady_state(coeffs, grid)
    assert ss.exists
    traj = integrate(coeffs, grid, PolymerState(v=ss.v_inf, u=ss.u_inf, grid=grid),
                     t_end=50.0)
    assert traj.rho_series[0] == pytest.approx(ss.rho_inf, rel=1e-12)
    assert np.abs(traj.v_series / ss.v_inf - 1.0).max() <= 1e-6
    assert np.abs(traj.rho_series / ss.rho_inf - 1.0).max() <= 1e-6


# measured n = 800 relative errors against the moment closure, as
# (loss rate at v = 600, v_inf, rho_inf); each may grow at most twofold
MOMENT_CLOSURE_ERRORS = {0.0: (2.3e-6, 5.5e-5, 6.4e-5),
                         0.5: (1.5e-5, 1.3e-4, 1.5e-4),
                         2.0: (1.7e-4, 1.1e-4, 3.1e-4)}


@pytest.mark.parametrize("x0", sorted(MOMENT_CLOSURE_ERRORS))
def test_minimal_size_matches_the_moment_closure(x0):
    # constant conversion tau, splitting beta*x and decay mu close the
    # moment equations (tests/oracle.py), which give the loss rate, its
    # root and the steady count, returned mass included
    closure = MomentClosure(tau=0.001, beta=0.03, mu=0.05, production=2400.0,
                            clearance=4.0, x0=x0)
    want = (closure.loss_rate(600.0), closure.v_inf(), closure.rho_inf())
    coeffs = CoefficientSet(production=2400.0, clearance=4.0, x0=x0)
    errors = []
    for n in (400, 800):
        grid = SizeGrid.uniform(30.0 + x0, n, x0)
        ss = build_steady_state(coeffs, grid)
        got = (principal_eigenpair(coeffs, grid, 600.0).lambda_eig, ss.v_inf, ss.rho_inf)
        errors.append(np.abs(np.subtract(got, want) / np.abs(want)))
    assert np.all(errors[1] <= 2.0 * np.asarray(MOMENT_CLOSURE_ERRORS[x0])), errors[1]
    assert np.all(np.log2(errors[0] / errors[1]) >= 1.8), errors


def test_oracle_imports_nothing_from_the_package():
    # the closed forms are the arbiter only while they share no code with
    # the solver they check
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and not [m for m in imported
                             if m.startswith((".", "priondyn"))], imported


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


@pytest.mark.parametrize("production", [0.0, 2400.0])
def test_zero_clearance_exists_only_with_production(production):
    # vbar is infinite at zero clearance, so v_inf < vbar always holds;
    # without production the count formula gives 0, the trivial state
    grid = SizeGrid.uniform(30.0, 100)
    ss = build_steady_state(CoefficientSet(production=production, clearance=0.0), grid)
    assert ss.v_inf == find_v_inf(CONST, grid).v_inf
    assert ss.exists is (production > 0.0)
    if ss.exists:
        assert ss.rho_inf > 0.0 and ss.u_inf.min() >= 0.0
    else:
        assert ss.rho_inf is None and ss.u_inf is None


NO_CONVERSION = "no loss-rate root: no cell converts"


def test_no_conversion_means_no_root():
    coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                            conversion=Constant(0.0))
    grid = SizeGrid.uniform(30.0, 200)
    with pytest.raises(ValueError, match=NO_CONVERSION):
        find_v_inf(coeffs, grid)
    with pytest.raises(ValueError, match=NO_CONVERSION):
        build_steady_state(coeffs, grid)


def test_zero_clearance_root_is_the_clearance_four_root():
    # the clearance does not enter L(v): both ladders cross zero at 8192
    # and then bisect the same bracket
    grid = SizeGrid.uniform(30.0, 100)
    capped = find_v_inf(CoefficientSet(production=40000.0, clearance=4.0,
                                       conversion=Constant(1e-5)), grid)
    free = find_v_inf(CoefficientSet(production=40000.0, clearance=0.0,
                                     conversion=Constant(1e-5)), grid)
    assert free.v_inf == capped.v_inf == 8163.1579828020185
    assert free.sign_tests == capped.sign_tests
    assert free.bracket_hi == capped.bracket_hi


def test_zero_conversion_at_zero_clearance_has_no_root(monkeypatch):
    # L(v) does not depend on v, so no level is tested
    coeffs = CoefficientSet(production=2400.0, clearance=0.0,
                            conversion=Constant(0.0))
    signs = _fake_sign(monkeypatch)
    with pytest.raises(ValueError, match=NO_CONVERSION):
        find_v_inf(coeffs, SizeGrid.uniform(30.0, 200))
    assert signs == []


def test_root_ladder_stays_in_the_float_range(monkeypatch):
    # the loss rate never turns: with no splitting and every polymer
    # decaying, transport only moves mass.  The ladder runs from 2**-6, the
    # power of two below v_lb = 0.025, until v*max(conv/h) reaches 1e150,
    # at any clearance
    coeffs = CoefficientSet(production=1.0, clearance=0.0,
                            conversion=Constant(0.5),
                            fragmentation=Constant(0.0))
    grid = SizeGrid.uniform(30.0, 60)
    signs = _fake_sign(monkeypatch)
    for clearance in (0.0, 4.0):
        signs.clear()
        with pytest.raises(ValueError, match=r"^no loss-rate root in \(0, 1e\+150\): "
                           "the loss rate stays positive"):
            find_v_inf(dataclasses.replace(coeffs, clearance=clearance), grid)
        assert len(signs) == 506 and signs[0] == 2.0 ** -6
        assert signs[-1] == 1e150 / (0.5 / 0.5)
    # a level past 1e300, from so slow a conversion, is cut to 1e300, so
    # the doubling stays finite
    signs.clear()
    with pytest.raises(ValueError, match=r"^no loss-rate root in \(0, 1e\+300\)"):
        find_v_inf(dataclasses.replace(coeffs, conversion=Constant(1e-300)), grid)
    assert signs[-1] == 1e300


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
    # at the one eigen solve, the level just below 4 that the bisection
    # ends on; the error must say which level that was.  _fake_sign wraps
    # this solve, which then serves every shift but 0
    monkeypatch.setattr(Generator, "certify",
                        lambda self, v, s, b, adjoint=False: (b.copy(), True))
    _fake_sign(monkeypatch, lambda v: 4.0 - v)
    with pytest.raises(EigenConvergenceError, match="level v=4 "):
        find_v_inf(CONST, SizeGrid.uniform(30.0, 50))


def _log_uniform(lo, hi):
    return st.floats(min_value=np.log10(lo), max_value=np.log10(hi)).map(
        lambda e: 10.0 ** e)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(amplitude=st.floats(min_value=1e-3, max_value=1e-1),
       center=st.floats(min_value=1.0, max_value=5.0),
       width_sq=_log_uniform(1e-4, 1e-1),
       n=st.integers(min_value=100, max_value=1600),
       production=st.one_of(st.just(2400.0), _log_uniform(1.0, 1e4)))
def test_steady_runs_across_the_envelope(amplitude, center, width_sq, n, production):
    # the bumps and grids of the dynamics envelope test, at the paper's
    # production or at one from far below the coexistence threshold to far
    # above it: a steady run returns a nonnegative profile at a finite
    # root, or a named error
    coeffs = CoefficientSet(production=production, clearance=4.0,
                            conversion=Bell(0.001, amplitude, center, width_sq))
    try:
        ss = build_steady_state(coeffs, SizeGrid.uniform(30.0, n))
    except ValueError as exc:
        assert str(exc).startswith("no loss-rate root")
        return
    except (EigenConvergenceError, PositivityViolationError):
        return
    assert np.isfinite(ss.v_inf) and ss.v_inf > 0.0
    assert ss.u_profile.min() >= 0.0
    if ss.exists:
        assert ss.rho_inf > 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(amplitude=st.floats(min_value=1e-3, max_value=1e-1),
       center=st.floats(min_value=1.0, max_value=5.0),
       width_sq=_log_uniform(1e-4, 1e-1),
       n=st.integers(min_value=100, max_value=400))
def test_root_search_ends_where_bisection_ends_across_bumps(amplitude, center,
                                                            width_sq, n):
    # the bumps of the envelope test above, on grids up to n = 400
    coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                            conversion=Bell(0.001, amplitude, center, width_sq))
    _assert_ends_like_bisection(coeffs, SizeGrid.uniform(30.0, n))

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
    idx, prominences = detect_modes(u)
    assert len(idx) == 1
    assert abs(x[idx[0]] - 5.0) < 0.2
    assert prominences[0] > 0.0


def test_detect_modes_keeps_a_hump_next_to_the_inflow_cell():
    # a hump that rises from cell 0 to cell 1 and falls after is a mode,
    # as on the shipped grid of the fig4 centre 0.833, where it sits in cell 1
    grid = SizeGrid.uniform(10.0, 200)
    x = grid.centers
    u = np.exp(-((x - 5.0) ** 2))
    u[:4] += [1.0, 1.6, 1.0, 0.4]
    idx, _ = detect_modes(u)
    assert len(idx) == 2 and idx[0] == 1
    assert abs(x[idx[1]] - 5.0) < 0.2


def test_detect_modes_two_humps_synthetic():
    grid = SizeGrid.uniform(20.0, 400)
    x = grid.centers
    u = np.exp(-((x - 4.0) ** 2)) + 0.5 * np.exp(-((x - 12.0) ** 2))
    idx, _ = detect_modes(u)
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
