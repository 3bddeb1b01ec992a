"""Assembled generator: sign structure, adjoint duality, mass books.

The matrix L(v) generates du/dt = L u.  Its off-diagonal entries must be
nonnegative (gains only), the h-weighted transpose must be its exact
adjoint, and <x, L u> must decompose into conversion uptake, decay, and
the outflow flux with nothing left over on uniform grids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priondyn import (Affine, Bell, CoefficientSet, Constant, Generator, SizeGrid,
                      assemble, assemble_adjoint, transport_reaction_parts)
from priondyn.reference import dilated_equilibrium_profile

from oracle import macroscopic_balance

CONST = CoefficientSet(production=2400.0, clearance=4.0)
BELLY = CoefficientSet(production=2400.0, clearance=4.0,
                       conversion=Bell(0.001, 0.01, 2.0, 0.1))


# --- sign structure --------------------------------------------------------

@pytest.mark.parametrize("coeffs", [CONST, BELLY], ids=["constant", "bell"])
@pytest.mark.parametrize("v", [10.0, 600.0])
def test_offdiagonal_gains_nonnegative(coeffs, v):
    grid = SizeGrid.uniform(30.0, 120)
    op = assemble(coeffs, grid, v)
    off = op.matrix - np.diag(np.diag(op.matrix))
    assert off.min() >= -1e-15


def test_assemble_rejects_negative_level():
    grid = SizeGrid.uniform(30.0, 50)
    with pytest.raises(ValueError):
        assemble(CONST, grid, -1.0)


def test_level_splits_linearly():
    # L(v) = v*T + B exactly
    grid = SizeGrid.uniform(30.0, 80)
    T, B, _ = transport_reaction_parts(CONST, grid)
    for v in (10.0, 250.0):
        np.testing.assert_allclose(assemble(CONST, grid, v).matrix,
                                   v * T + B, rtol=0, atol=1e-18)



# --- structured generator against the dense oracle -------------------------

@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=120),
    xmax=st.floats(min_value=2.0, max_value=500.0),
    x0_frac=st.floats(min_value=1e-3, max_value=0.4),
    bell=st.booleans(),
    amplitude=st.floats(min_value=0.0, max_value=0.5),
    center_frac=st.floats(min_value=0.0, max_value=1.0),
    width_sq=st.floats(min_value=0.01, max_value=10.0),
    v=st.floats(min_value=0.0, max_value=4000.0),
    tau=st.floats(min_value=0.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_structured_generator_matches_dense(n, xmax, x0_frac, bell, amplitude,
                                            center_frac, width_sq, v, tau, seed):
    x0 = x0_frac * xmax
    conversion = (Bell(0.001, amplitude, x0 + center_frac * (xmax - x0), width_sq)
                  if bell else Affine(0.001, amplitude * 1e-3))
    coeffs = CoefficientSet(production=2400.0, clearance=4.0, x0=x0,
                            conversion=conversion,
                            fragmentation=Affine(0.01, 0.03))
    grid = SizeGrid.uniform(xmax, n, x0=x0)
    A = assemble(coeffs, grid, v).matrix
    As = assemble_adjoint(coeffs, grid, v).matrix
    gen = Generator(coeffs, grid)
    u = np.random.default_rng(seed).random(n)
    np.testing.assert_allclose(gen.apply(v, u), A @ u, rtol=0,
                               atol=1e-12 * float((np.abs(A) @ u).max()))
    np.testing.assert_allclose(gen.stage(v, tau, u), u + tau * (A @ u), rtol=0,
                               atol=1e-12 * float((u + tau * (np.abs(A) @ u)).max()))
    np.testing.assert_allclose(gen.apply_adjoint(v, u), As @ u, rtol=0,
                               atol=1e-12 * float((np.abs(As) @ u).max()))
    # a shift above every absolute row sum keeps both systems well posed
    s = 1.5 * max(np.abs(A).sum(axis=1).max(), np.abs(As).sum(axis=1).max())
    x = np.linalg.solve(s * np.eye(n) - A, u)
    y = np.linalg.solve(s * np.eye(n) - As, u)
    np.testing.assert_allclose(gen.certify(v, s, u)[0], x, rtol=0,
                               atol=1e-12 * np.abs(x).max())
    np.testing.assert_allclose(gen.certify(v, s, u, adjoint=True)[0], y,
                               rtol=0, atol=1e-12 * np.abs(y).max())


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.sampled_from([2, 3, 4]), st.integers(min_value=2, max_value=64)),
    bell=st.booleans(),
    v=st.floats(min_value=0.0, max_value=4000.0),
    tau=st.floats(min_value=0.0, max_value=10.0),
    data=st.data(),
)
def test_generator_apply_is_the_band_by_band_sum(n, bell, v, tau, data):
    # apply and stage are each one product of the term rows, so they add
    # the terms in BLAS's order: within a few rounding units of the sum
    # band by band, of the terms' magnitudes, plus a few units of underflow
    # (a product of small factors is subnormal) per unit of weight and of
    # unweighted term; a cell whose terms are all zero is exactly 0
    coeffs = BELLY if bell else CONST
    gen = Generator(coeffs, SizeGrid.uniform(30.0, n))
    entries = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6))
    u, w = (np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
            for _ in range(2))
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal

    def band_by_band(u, v=v, c=lambda a: a, f=lambda a: a):
        # f = np.abs sums the terms' magnitudes; c maps each coefficient
        out = f(v * (c(gen.t_diag) * u)) + f(-c(gen.loss) * u)
        out[1:] += f(v * (c(gen.t_sub) * u[:-1]))
        out[:-1] += f(c(gen.gain1) * u[1:])
        out[:-2] += f(c(gen.gain2) * u[2:])
        out[:-3] += np.cumsum((c(gen.far_gain) * u)[:2:-1])[::-1]
        return out

    first = gen.apply(v, u)
    second = gen.apply(v, w)
    for x, got in ((u, first), (w, second)):
        size = band_by_band(x, f=np.abs)
        unweighted = band_by_band(x, 1.0, f=np.abs)
        under = 8 * tiny * (1.0 + v) * (1.0 + tau) * (1.0 + unweighted)
        # the cells where every term has a zero factor
        zero = band_by_band((x != 0.0) * 1.0, (v != 0.0) * 1.0,
                            c=lambda a: (a != 0.0) * 1.0, f=np.abs) == 0.0
        assert np.all(np.abs(got - band_by_band(x)) <= 8 * eps * size + under)
        assert np.all(got[zero] == 0.0)
        stage = gen.stage(v, tau, x)
        assert np.all(np.abs(stage - (x + tau * got))
                      <= 8 * eps * (x + tau * size) + under)
        assert np.all(stage[zero & (x == 0.0)] == 0.0)
    assert not np.shares_memory(first, second)


def _two_bumps(x):
    # fig5's amplitude-0.1 bump at 2 and at 6, over its base of 0.001
    return Bell(0.0005, 0.1, 2.0, 0.1)(x) + Bell(0.0005, 0.1, 6.0, 0.1)(x)


@pytest.mark.parametrize("n,conversion,runs",
                         [(200, Bell(0.001, 0.1, 2.0, 0.1), 1),
                          (800, Bell(0.001, 0.1, 2.0, 0.1), 1), (200, _two_bumps, 2)],
                         ids=["200", "800", "two-bumps"])
def test_stage_takes_its_runs_transport_implicitly(n, conversion, runs):
    # at tau*v*max(conv/h) = 50, the cells whose loss rate exceeds 1/tau
    # form one run under each bump (5 cells of 200, 18 of 800).  Each
    # run's cells solve the flux-form implicit transport of the dense
    # oracle, the cell after each run takes its inflow from the run's last
    # new value, every other cell is the explicit stage's, and the stage
    # keeps the explicit stage's count
    coeffs = CoefficientSet(production=2400.0, clearance=4.0, conversion=conversion)
    grid = SizeGrid.uniform(60.0, n)
    h = grid.widths
    T, B, samples = transport_reaction_parts(coeffs, grid)
    v = 600.0
    tau = 50.0 / (v * float((samples["conversion"] / h).max()))
    stiff = np.flatnonzero(tau * -np.diag(v * T + B) > 1.0)
    gaps = np.flatnonzero(np.diff(stiff) > 1)
    pairs = list(zip(stiff[np.r_[0, gaps + 1]].tolist(), stiff[np.r_[gaps, -1]].tolist()))
    assert len(pairs) == runs and 0 < pairs[0][0] and pairs[-1][1] + 2 < n
    u = np.random.default_rng(1).random(grid.n)
    gen = Generator(coeffs, grid)
    got = gen.stage(v, tau, u, pairs)
    explicit = gen.stage(v, tau, u)

    rhs = u + tau * (B @ u)
    scale = u + tau * (np.abs(v * T + B) @ np.maximum(u, np.abs(got)))
    rest = np.ones(n, dtype=bool)
    for lo, hi in pairs:
        run = slice(lo, hi + 1)
        inflow = np.zeros(hi - lo + 1)
        inflow[0] = tau * v * T[lo, lo - 1] * u[lo - 1]
        new = np.linalg.solve(np.eye(hi - lo + 1) - tau * v * T[run, run],
                              rhs[run] + inflow)
        np.testing.assert_allclose(got[run], new, rtol=1e-12, atol=0)
        after = rhs[hi + 1] + tau * v * (T[hi + 1, hi + 1] * u[hi + 1]
                                         + T[hi + 1, hi] * new[-1])
        assert abs(got[hi + 1] - after) <= 1e-12 * scale[hi + 1]
        assert explicit[run].min() < 0.0
        rest[lo:hi + 2] = False
    np.testing.assert_array_equal(got[rest], explicit[rest])
    assert got.min() >= 0.0
    assert abs(h @ got - h @ explicit) <= 1e-13 * float(h @ scale)


# --- duality ---------------------------------------------------------------

def test_adjoint_duality_random_pairs():
    grid = SizeGrid.uniform(30.0, 200)
    h = grid.widths
    op = assemble(BELLY, grid, 150.0)
    adj = assemble_adjoint(BELLY, grid, 150.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.random(grid.n)
        phi = rng.random(grid.n)
        lhs = float(((op.matrix @ u) * phi) @ h)
        rhs = float((u * (adj.matrix @ phi)) @ h)
        scale = np.abs(phi).max() * float(np.abs(u) @ h)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_adjoint_is_the_primal_with_the_weighted_transpose():
    # only the matrix differs: v, grid and the sampled rates are the primal's
    grid = SizeGrid.uniform(30.0, 80, x0=0.5)
    op = assemble(BELLY, grid, 150.0)
    adj = assemble_adjoint(BELLY, grid, 150.0)
    assert type(adj) is type(op)
    assert adj.v == op.v and adj.grid is grid
    for name in ("conversion", "frag_eff", "decay"):
        assert np.array_equal(getattr(adj, name), getattr(op, name)), name
    # uniform cells: H^{-1} L^T H is L^T up to the rounding of the widths
    np.testing.assert_allclose(adj.matrix, op.matrix.T, rtol=1e-12, atol=0)
    np.testing.assert_allclose(adj.apply(np.ones(grid.n)), op.matrix.sum(axis=0),
                               rtol=1e-12, atol=1e-14)


def test_adjoint_on_constants_reads_column_sums():
    # with constant splitting and x0=0 the interior action on 1 is
    # exactly (splitting - decay): count doubles on split, dies on decay
    coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                            fragmentation=Constant(0.02))
    grid = SizeGrid.uniform(30.0, 150)
    adj = assemble_adjoint(coeffs, grid, 100.0)
    ones = np.ones(grid.n)
    action = adj.matrix @ ones
    np.testing.assert_allclose(action[2:-1], 0.02 - 0.05, atol=1e-13)
    # cell 0 has splitting disabled; cell 1 carries the mass-exact single
    # weight (3/2), so its count gain is 2*(3/2)*split instead of 2*split;
    # the last row loses the outflow
    assert action[0] == pytest.approx(-0.05, abs=1e-13)
    assert action[1] == pytest.approx(-0.05 - 0.02 + 3.0 * 0.02, abs=1e-13)
    assert action[-1] < 0.02 - 0.05


# --- mass books ------------------------------------------------------------

def _balance(op, u):
    """The oracle's mass books for one application of a dense operator."""
    grid = op.grid
    return macroscopic_balance(op.matrix, op.v, u, grid.centers, grid.widths,
                               grid.x0, op.conversion, op.frag_eff, op.decay)


def test_balance_interior_support_closes():
    # profile vanishing near xmax: no flux, books must close to rounding
    grid = SizeGrid.uniform(30.0, 300)
    x = grid.centers
    u = np.exp(-((x - 5.0) / 2.0) ** 2)
    u[x > 15.0] = 0.0
    op = assemble(CONST, grid, 200.0)
    bal = _balance(op, u)
    scale = float((x * u) @ grid.widths)
    assert bal.truncation_flux == 0.0
    assert abs(bal.residual) < 1e-12 * scale


def test_balance_flux_identity_at_edge():
    # mass parked in the last cell: the raw defect IS the outflow flux
    grid = SizeGrid.uniform(30.0, 100)
    u = np.zeros(grid.n)
    u[-1] = 3.0
    op = assemble(CONST, grid, 50.0)
    bal = _balance(op, u)
    assert bal.truncation_flux > 0.0
    assert bal.raw_defect == pytest.approx(-bal.truncation_flux, rel=1e-12)
    assert abs(bal.residual) < 1e-12 * bal.truncation_flux


def test_balance_with_cutoff_routes_mass_to_monomer():
    grid = SizeGrid.uniform(30.0, 200, x0=0.5)
    x = grid.centers
    u = np.exp(-x)
    u[x > 15.0] = 0.0
    op = assemble(CoefficientSet(production=2400.0, clearance=4.0, x0=0.5),
                  grid, 200.0)
    bal = _balance(op, u)
    assert bal.monomer_return > 0.0
    scale = float((x * u) @ grid.widths)
    assert abs(bal.residual) < 1e-11 * scale


@settings(max_examples=40, deadline=None)
@given(
    v=st.floats(min_value=1.0, max_value=900.0),
    width=st.floats(min_value=0.5, max_value=4.0),
    center=st.floats(min_value=2.0, max_value=10.0),
)
def test_balance_property_interior_profiles(v, width, center):
    grid = SizeGrid.uniform(30.0, 150)
    x = grid.centers
    u = np.exp(-((x - center) / width) ** 2)
    u[x > 0.6 * 30.0] = 0.0
    bal = _balance(assemble(CONST, grid, v), u)
    scale = float((x * u) @ grid.widths) + 1e-300
    assert abs(bal.residual) < 5e-12 * scale


# --- the stationary profile is a near-null vector --------------------------

def test_equilibrium_profile_near_null_refines():
    # at the balancing level the dilated closed-form profile should be
    # annihilated; the discrete defect must shrink as the grid refines
    v_eq = 0.05 * 0.05 / (0.001 * 0.03)
    defects = []
    for n in (200, 400, 800):
        grid = SizeGrid.uniform(30.0, n)
        u = dilated_equilibrium_profile(grid.centers, 0.03, 0.05)
        op = assemble(CONST, grid, v_eq)
        r = op.matrix @ u
        defects.append(float(np.abs(r) @ grid.widths))
    assert defects[1] < 0.7 * defects[0]
    assert defects[2] < 0.7 * defects[1]
