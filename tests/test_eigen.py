"""Principal eigenvalue solver against the closed forms.

Anchors use the constant-coefficient family where the loss rate,
adjoint weight, and profile are all known explicitly; the affine
extension pins the one-parameter generalization.  Frozen literals are
duplicated from the oracle tests on purpose: a drift in either place
should fail loudly.
"""

import re

import numpy as np
import pytest
from scipy.linalg import eig

from priondyn import (Affine, Bell, CoefficientSet, Constant, EigenConvergenceError,
                      Generator, PositivityViolationError, SizeGrid,
                      adjoint_eigenpair, assemble,
                      eval_coefficients, generator_eigenpair,
                      hypothesis_constants, principal_eigenpair, scan_lambda)
from priondyn.eigen import DEFAULT_TOL
from priondyn.reference import loss_rate_constant

from oracle import adjoint_profile, affine_family_loss_rate, eigenvalue_from_moments

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


# --- trial shifts ----------------------------------------------------------

def test_rejected_trial_shift_falls_back_to_the_safe_shift(monkeypatch):
    # the first trial returns a negative entry: that step solves again at
    # the safe shift, and the solve counts both
    gen = Generator(BUMP, SizeGrid.uniform(60.0, 800))
    v, n = 600.0, gen.grid.n
    scale = float((gen.apply(v, np.ones(n)) - 2.0 * gen.diagonal(v)).max())
    clean = generator_eigenpair(gen, v)
    certify, shifts = Generator.certify, []

    def spoiled(self, v, s, b, adjoint=False):
        shifts.append(s)
        x, certified = certify(self, v, s, b, adjoint=adjoint)
        if len(shifts) == 1:
            x[n // 2] = -1.0
            certified = False
        return x, certified

    monkeypatch.setattr(Generator, "certify", spoiled)
    sol = generator_eigenpair(gen, v)
    assert shifts[1] > shifts[0]
    assert abs(sol.lambda_eig - clean.lambda_eig) <= DEFAULT_TOL * scale
    assert sol.shifted_solves == len(shifts) >= sol.iterations + 1
    assert clean.shifted_solves >= clean.iterations


def test_singular_safe_shift_names_the_level(monkeypatch):
    # a safe-shift solve that fails its certificate, here by a singular
    # factorisation, is a positivity failure at a named level and shift
    monkeypatch.setattr(Generator, "certify",
                        lambda self, v, s, b, adjoint=False: (None, False))
    with pytest.raises(PositivityViolationError, match="level v=600 .*shift "):
        generator_eigenpair(Generator(BUMP, SizeGrid.uniform(60.0, 200)), 600.0)


def test_certificate_rejects_a_singular_shift():
    # no decay and no splitting in the smallest cell: at v = 0 and shift 0
    # the shifted generator has a zero pivot
    gen = Generator(CoefficientSet(production=2400.0, clearance=4.0,
                                   decay=Constant(0.0)), SizeGrid.uniform(30.0, 50))
    assert gen.loss[0] == 0.0
    x, certified = gen.certify(0.0, 0.0, np.ones(50))
    assert x is None and certified is False
    x, certified = gen.certify(0.0, 1.0, np.ones(50))
    assert certified is True and x.min() > 0.0


def test_certify_reuses_its_buffers_without_leaking_state():
    # one generator keeps its LAPACK buffers across solves; interleaving
    # primal and adjoint, levels, shifts and a singular shift, each result
    # is a fresh generator's, bit for bit
    coeffs = CoefficientSet(production=2400.0, clearance=4.0, decay=Constant(0.0))
    grid = SizeGrid.uniform(30.0, 50)
    b = np.linspace(1.0, 2.0, 50)
    calls = [(600.0, 5.0, False), (0.0, 0.0, False), (8.0, -0.01, True),
             (0.0, 0.0, True), (600.0, 5.0, True), (8.0, 0.0, False),
             (0.0, 1.0, True), (600.0, 5.0, False)]
    gen = Generator(coeffs, grid)
    for v, s, adjoint in calls:
        x, certified = gen.certify(v, s, b, adjoint=adjoint)
        x_fresh, certified_fresh = Generator(coeffs, grid).certify(v, s, b, adjoint=adjoint)
        assert certified is certified_fresh
        assert (x is None) == (x_fresh is None) == (v == s == 0.0)
        if x is not None:
            assert x.tobytes() == x_fresh.tobytes()
    assert b.tobytes() == np.linspace(1.0, 2.0, 50).tobytes()


@pytest.mark.parametrize("shape", [(51,), (49,), (50, 1), ()],
                         ids=["longer", "shorter", "column", "scalar"])
def test_certify_rejects_a_right_hand_side_of_another_shape(shape):
    gen = Generator(CONST, SizeGrid.uniform(30.0, 50))
    with pytest.raises(ValueError, match=r"shape %s, not \(50,\)" % re.escape(str(shape))):
        gen.certify(100.0, 5.0, np.ones(shape))


def test_trial_shifts_keep_the_bump_ladder_short():
    # with the safe shift alone the fig3 bump's ladder takes 58 iterations
    gen = Generator(BUMP, SizeGrid.uniform(60.0, 800))
    sols = [generator_eigenpair(gen, v) for v in (8.0, 64.0, 600.0, 4000.0)]
    assert sum(sol.iterations for sol in sols) <= 35


@pytest.mark.parametrize("coeffs,xmax", [(CONST, 30.0), (BUMP, 60.0)],
                         ids=["fig2", "fig2-bell"])
def test_loss_rates_match_the_dense_eigenvalue(coeffs, xmax):
    # The stop bounds the residual r of the l1-normed iterate by
    # DEFAULT_TOL*scale.  With y the dense eigenvector on the other side,
    # y.r = (nu - estimate)*(y.vec), so the loss rate lies within
    # kappa*DEFAULT_TOL*scale, kappa = max|y|*sum|vec|/|y.vec|.  The primal
    # holds DEFAULT_TOL*scale itself; the adjoint weight grows with size
    # while the Perron vector sits at small sizes, so its kappa reaches 1.8e3
    grid = SizeGrid.uniform(xmax, 200)
    gen = Generator(coeffs, grid)
    for v in (10.0, 40.0, 83.33, 100.0, 300.0, 600.0):
        A = assemble(coeffs, grid, v).matrix
        vals, left, right = eig(A, left=True)
        k = int(np.argmax(vals.real))
        nu = float(vals[k].real)
        for adjoint, y in ((False, left[:, k].real), (True, right[:, k].real)):
            sol = generator_eigenpair(gen, v, adjoint=adjoint)
            vec = sol.phi_vec if adjoint else sol.u_vec
            scale = float(np.abs(A).sum(axis=0 if adjoint else 1).max())
            kappa = float(np.abs(y).max() * np.abs(vec).sum() / abs(y @ vec))
            err = abs(sol.growth_rate - nu)
            assert err <= kappa * DEFAULT_TOL * scale, (v, adjoint)
            if not adjoint:
                assert err <= DEFAULT_TOL * scale, v


# --- moment-route cross-check ----------------------------------------------

@pytest.mark.parametrize("v", [100.0, 600.0])
def test_eigenvalue_from_both_moment_routes(grid800, v):
    sol = principal_eigenpair(CONST, grid800, v)
    est = eigenvalue_from_moments(sol.u_vec, v, grid800.centers, grid800.widths,
                                  *eval_coefficients(CONST, grid800))
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
        eigenvalue_from_moments(sol.u_vec, 0.0, grid800.centers, grid800.widths,
                                *eval_coefficients(CONST, grid800))


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


def test_one_entry_serves_primal_and_adjoint(grid800):
    gen = Generator(CONST, grid800)
    via_entry = generator_eigenpair(gen, 300.0, adjoint=True)
    standalone = adjoint_eigenpair(CONST, grid800, 300.0)
    assert np.array_equal(via_entry.phi_vec, standalone.phi_vec)
    assert via_entry.lambda_eig == standalone.lambda_eig
    assert via_entry.iterations == standalone.iterations
    assert via_entry.u_vec is None and via_entry.generator is gen


@pytest.mark.parametrize("adjoint", [False, True], ids=["primal", "adjoint"])
@pytest.mark.parametrize("v", [float("inf"), float("nan"), -1.0])
def test_level_must_be_finite_and_nonnegative(grid800, v, adjoint):
    gen = Generator(CONST, grid800)
    with pytest.raises(ValueError, match="^monomer level must be finite and "
                                         "nonnegative, got %g$" % v):
        generator_eigenpair(gen, v, adjoint=adjoint)
    solve = adjoint_eigenpair if adjoint else principal_eigenpair
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve(CONST, grid800, v)


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
    consts = hypothesis_constants(adj)
    L = np.sqrt(0.001 * 600.0 / 0.03)
    assert consts.k1 == pytest.approx(0.001 / L, rel=5e-3)
    assert consts.k2 == pytest.approx(0.001, rel=5e-3)
    edge = 0.001 / (1.0 + 0.8 * 30.0 / L)
    assert consts.k_lower == pytest.approx(edge, rel=2e-2)
    # level and grid come from the adjoint solution
    assert consts.v == 600.0


def test_solver_failure_carries_context(monkeypatch):
    grid = SizeGrid.uniform(30.0, 500)
    monkeypatch.setattr("priondyn.eigen.DEFAULT_MAX_ITER", 1)
    with pytest.raises(EigenConvergenceError, match="level v=600 ") as exc_info:
        principal_eigenpair(CONST, grid, 600.0)
    assert exc_info.value.last_residual > 0.0
