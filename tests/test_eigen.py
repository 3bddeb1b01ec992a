"""Principal eigenvalue solver against the closed forms.

Anchors use the constant-coefficient family where the loss rate,
adjoint weight, and profile are all known explicitly; the affine
extension pins the one-parameter generalization.  Frozen literals are
duplicated from the oracle tests on purpose: a drift in either place
should fail loudly.
"""

import numpy as np
import pytest
from scipy.linalg import eig

from priondyn import (Affine, Bell, CoefficientSet, Constant, EigenConvergenceError,
                      Generator, SizeGrid, adjoint_eigenpair, assemble,
                      eigenvalue_from_moments, generator_eigenpair,
                      hypothesis_constants, principal_eigenpair, scan_lambda)
from priondyn.eigen import DEFAULT_TOL
from priondyn.reference import (adjoint_profile, affine_family_loss_rate,
                                loss_rate_constant)

CONST = CoefficientSet(production=2400.0, clearance=4.0)
BUMP = CoefficientSet(production=2400.0, clearance=4.0,
                      conversion=Bell(0.001, 0.1, 2.0, 0.1))
LOSS_AT_10 = 0.03267949192431123
LOSS_AT_100 = -0.00477225575051661
LOSS_AT_600 = -0.08416407864998739


@pytest.fixture(scope="module")
def grid800():
    return SizeGrid.uniform(30.0, 800)


# --- closed-form anchors ---------------------------------------------------

@pytest.mark.parametrize("v,expected", [
    (10.0, LOSS_AT_10), (100.0, LOSS_AT_100), (600.0, LOSS_AT_600)])
def test_loss_rate_anchors(grid800, v, expected):
    sol = principal_eigenpair(CONST, grid800, v)
    assert sol.lambda_eig == pytest.approx(expected, rel=5e-3, abs=2e-5)
    assert sol.growth_rate == -sol.lambda_eig
    assert sol.residual < 1e-8
    assert sol.u_vec.min() >= 0.0
    assert float(sol.u_vec @ grid800.widths) == pytest.approx(1.0, rel=1e-12)


def test_zero_level_is_degenerate(grid800):
    sol = principal_eigenpair(CONST, grid800, 0.0)
    assert sol.degenerate
    assert sol.u_vec is None
    assert sol.lambda_eig == pytest.approx(0.05, abs=1e-15)


def test_negative_level_rejected(grid800):
    with pytest.raises(ValueError):
        principal_eigenpair(CONST, grid800, -5.0)


def test_dense_and_iterative_agree():
    grid = SizeGrid.uniform(30.0, 300)
    it = principal_eigenpair(CONST, grid, 600.0)
    # reference: full decomposition of the dense oracle matrix
    vals, vecs = eig(assemble(CONST, grid, 600.0).matrix)
    k = int(np.argmax(vals.real))
    ref = vecs[:, k].real
    ref = ref / (ref @ grid.widths)
    # iterative stopping residual 1e-10 bounds the eigenvalue gap
    assert it.lambda_eig == pytest.approx(-vals[k].real, abs=1e-8)
    np.testing.assert_allclose(it.u_vec, ref, atol=1e-8 * it.u_vec.max())


@pytest.mark.parametrize("n", [1600, 3200])
@pytest.mark.parametrize("v", [1.0, 8.0, 64.0, 600.0, 4000.0])
def test_sharp_bump_converges_on_fine_grids(n, v):
    grid = SizeGrid.uniform(60.0, n)
    sol = principal_eigenpair(BUMP, grid, v)
    assert sol.iterations < 50
    assert sol.u_vec.min() >= 0.0
    assert float(sol.u_vec @ grid.widths) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("v", [40.0, 600.0])
def test_warm_start_matches_cold_solve(v):
    # a root search starts each solve from the profile at a nearby level;
    # 40 sits next to this bump's loss-rate root
    gen = Generator(BUMP, SizeGrid.uniform(60.0, 800))
    h = gen.grid.widths
    n = gen.grid.n
    scale = float((gen.apply(v, np.ones(n)) - 2.0 * gen.diagonal(v)).max())
    near = generator_eigenpair(gen, 1.01 * v)
    warm = generator_eigenpair(gen, v, u0=near.u_vec)
    cold = generator_eigenpair(gen, v)
    assert abs(warm.lambda_eig - cold.lambda_eig) <= DEFAULT_TOL * scale
    assert float(np.abs(warm.u_vec - cold.u_vec) @ h) <= 1e-6
    assert warm.iterations < cold.iterations


def test_convergence_order_at_least_first():
    errs = []
    for n in (100, 200, 400):
        grid = SizeGrid.uniform(30.0, n)
        lam = principal_eigenpair(CONST, grid, 100.0).lambda_eig
        errs.append(abs(lam - LOSS_AT_100))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.8, "orders %r from errors %r" % (orders, errs)


def test_residual_log_tail_decreases(grid800):
    sol = principal_eigenpair(CONST, grid800, 600.0)
    log = np.asarray(sol.residual_log)
    # inverse-iteration portion must make monotone headway at the tail
    tail = log[-3:]
    assert np.all(np.diff(tail) < 0.0) or tail[-1] < 1e-12


# --- moment-route cross-check ----------------------------------------------

@pytest.mark.parametrize("v", [100.0, 600.0])
def test_eigenvalue_from_both_moment_routes(grid800, v):
    sol = principal_eigenpair(CONST, grid800, v)
    est = eigenvalue_from_moments(sol, CONST)
    # truncation flux bound plus an allowance for eigenvector
    # contamination: the flat-weight quotients are first order in the
    # subdominant-mode residue, so they trail the solver eigenvalue
    count_tol = est.count_flux + 1e-5
    mass_tol = est.mass_flux + 1e-5
    assert abs(est.by_number - sol.lambda_eig) <= count_tol
    assert abs(est.by_mass - sol.lambda_eig) <= mass_tol
    assert abs(est.by_number - est.by_mass) <= count_tol + mass_tol
    assert est.mean_size > 0.0


def test_moment_routes_need_a_vector(grid800):
    sol = principal_eigenpair(CONST, grid800, 0.0)
    with pytest.raises(ValueError):
        eigenvalue_from_moments(sol, CONST)


# --- adjoint ---------------------------------------------------------------

def test_adjoint_matches_affine_closed_form(grid800):
    sol = adjoint_eigenpair(CONST, grid800, 600.0)
    x = grid800.centers
    window = x <= 0.8 * 30.0
    expected = adjoint_profile(x, 0.001, 0.03, 600.0)
    rel = np.abs(sol.phi_vec - expected) / expected
    assert rel[window].max() < 2e-3
    assert sol.lambda_eig == pytest.approx(LOSS_AT_600, rel=5e-3)


def test_adjoint_rejects_zero_level(grid800):
    with pytest.raises(ValueError):
        adjoint_eigenpair(CONST, grid800, 0.0)


def test_primal_adjoint_eigenvalues_agree(grid800):
    a = principal_eigenpair(CONST, grid800, 300.0).lambda_eig
    b = adjoint_eigenpair(CONST, grid800, 300.0).lambda_eig
    assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


# --- affine extension ------------------------------------------------------

def test_affine_family_anchor():
    coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                            conversion=Affine(0.001, 0.0005),
                            fragmentation=Affine(0.01, 0.03))
    grid = SizeGrid.uniform(45.0, 1200)
    sol = principal_eigenpair(coeffs, grid, 100.0)
    expected = affine_family_loss_rate(0.001, 0.0005, 0.01, 0.03, 0.05, 100.0)
    assert sol.lambda_eig == pytest.approx(expected, rel=2e-2)


# --- scans -----------------------------------------------------------------

def test_scan_certificate():
    grid = SizeGrid.uniform(30.0, 400)
    scan = scan_lambda(CONST, grid, [0.0, 10.0, 40.0, 83.33, 100.0, 300.0, 600.0])
    assert scan.decreasing
    assert scan.sign_at_largest == -1
    assert scan.lambda0_minus_decay0 == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_array_equal(scan.growth_rates, -scan.lambda_values)
    closed = [loss_rate_constant(0.001, 0.03, 0.05, v) for v in scan.v_values]
    np.testing.assert_allclose(scan.lambda_values, closed, rtol=0, atol=2e-3)


def test_scan_keeps_solutions_on_request():
    grid = SizeGrid.uniform(30.0, 200)
    scan = scan_lambda(CONST, grid, [0.0, 100.0])
    assert len(scan.solutions) == 2
    assert scan.solutions[0].degenerate
    assert scan.solutions[1].u_vec is not None


def test_scan_rejects_unordered_levels():
    grid = SizeGrid.uniform(30.0, 100)
    with pytest.raises(ValueError):
        scan_lambda(CONST, grid, [10.0, 5.0])
    with pytest.raises(ValueError):
        scan_lambda(CONST, grid, [])


# --- comparison constants --------------------------------------------------

def test_hypothesis_constants_match_affine_weight(grid800):
    # with phi = 1 + x/L: sup |conv*phi'|/phi = conv0/L at x=0, and
    # sup conv/phi = conv0 at x=0, inf conv/phi at the window edge
    adj = adjoint_eigenpair(CONST, grid800, 600.0)
    consts = hypothesis_constants(CONST, adj)
    L = np.sqrt(0.001 * 600.0 / 0.03)
    assert consts.k1 == pytest.approx(0.001 / L, rel=5e-3)
    assert consts.k2 == pytest.approx(0.001, rel=5e-3)
    edge = 0.001 / (1.0 + 0.8 * 30.0 / L)
    assert consts.k_lower == pytest.approx(edge, rel=2e-2)
    # full-grid k1 picks up the outflow boundary layer, never smaller
    assert consts.k1_full_grid >= consts.k1
    # level and grid come from the adjoint solution
    assert consts.v == 600.0


def test_solver_failure_carries_context():
    grid = SizeGrid.uniform(30.0, 500)
    with pytest.raises(EigenConvergenceError, match="level v=600 ") as exc_info:
        principal_eigenpair(CONST, grid, 600.0, tol=1e-30, max_iter=1)
    assert exc_info.value.last_residual > 0.0
