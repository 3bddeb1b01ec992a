"""Splitting-weight matrix: the two moment laws, shape, and edge columns.

For a parent cell at y the daughters land uniformly on (x0, y), so the
column weights must reproduce
    count law:  sum_i W[i,j]        = (y - x0)/y
    mass law:   sum_i x_i * W[i,j]  = (y**2 - x0**2)/(2y)
Column j=1 has a single admissible destination and can only carry the
mass law; column j=0 has none and stays empty.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priondyn import SizeGrid, kernel_weights

from oracle import below_cutoff_mass_share


def _law_errors(W, grid):
    """Max absolute error of both laws over fully-determined columns."""
    x = grid.centers
    x0 = grid.x0
    count_err = 0.0
    mass_err = 0.0
    for j in range(2, grid.n):
        y = x[j]
        count_err = max(count_err, abs(W[:j, j].sum() - (y - x0) / y))
        mass_err = max(mass_err, abs(x[:j] @ W[:j, j] - (y * y - x0 * x0) / (2 * y)))
    return count_err, mass_err


# --- moment laws -----------------------------------------------------------

@pytest.mark.parametrize("n", [50, 200, 800])
def test_uniform_grid_laws_exact(n):
    grid = SizeGrid.uniform(30.0, n)
    W = kernel_weights("uniform", grid)
    count_err, mass_err = _law_errors(W, grid)
    assert count_err < 5e-14
    assert mass_err < 5e-13


def test_cutoff_grid_laws_exact():
    grid = SizeGrid.uniform(30.0, 300, x0=0.5)
    W = kernel_weights("uniform", grid)
    count_err, mass_err = _law_errors(W, grid)
    assert count_err < 5e-14
    assert mass_err < 5e-13


def test_first_splittable_column_carries_the_mass_law():
    # one destination cell, one constraint: mass is the one that is kept
    grid = SizeGrid.uniform(30.0, 100)
    W = kernel_weights("uniform", grid)
    x = grid.centers
    y = x[1]
    assert x[0] * W[0, 1] == pytest.approx((y * y - grid.x0 ** 2) / (2 * y), rel=1e-14)
    assert np.count_nonzero(W[:, 1]) == 1


def test_column_zero_empty():
    grid = SizeGrid.uniform(30.0, 100)
    W = kernel_weights("uniform", grid)
    assert not W[:, 0].any()


# --- structure -------------------------------------------------------------

def test_strictly_lower_triangular_and_nonnegative():
    for grid in (SizeGrid.uniform(30.0, 150),
                 SizeGrid.uniform(30.0, 150, x0=0.4)):
        W = kernel_weights("uniform", grid)
        assert W.min() >= 0.0
        # destination rows sit strictly above the parent column's diagonal
        assert not np.tril(W).any(), "daughters must be strictly smaller"


def test_unknown_rule_rejected():
    grid = SizeGrid.uniform(10.0, 20)
    with pytest.raises(ValueError):
        kernel_weights("equal_halves", grid)


# --- dissolved share -------------------------------------------------------

def test_below_cutoff_share_zero_without_cutoff():
    grid = SizeGrid.uniform(30.0, 100)
    np.testing.assert_array_equal(below_cutoff_mass_share(grid.centers, grid.x0), 0.0)


def test_below_cutoff_share_closes_mass_books():
    # per unit split rate: 2*(daughter mass) + dissolved mass = parent mass
    grid = SizeGrid.uniform(30.0, 200, x0=0.5)
    W = kernel_weights("uniform", grid)
    below = below_cutoff_mass_share(grid.centers, grid.x0)
    x = grid.centers
    for j in range(1, grid.n):
        daughters = 2.0 * float(x[:j] @ W[:j, j])
        assert daughters + below[j] == pytest.approx(x[j], rel=1e-13)


# --- property: laws hold on arbitrary admissible grids ---------------------

@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=180),
    xmax=st.floats(min_value=2.0, max_value=500.0),
    x0_frac=st.floats(min_value=0.0, max_value=0.4),
)
def test_moment_laws_property(n, xmax, x0_frac):
    x0 = x0_frac * xmax
    grid = SizeGrid.uniform(xmax, n, x0=x0)
    W = kernel_weights("uniform", grid)
    count_err, mass_err = _law_errors(W, grid)
    scale = max(1.0, xmax)
    assert count_err < 1e-12
    assert mass_err < 1e-12 * scale
    assert W.min() >= 0.0
