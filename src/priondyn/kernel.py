"""Discrete fragment-placement weights for the uniform splitting rule."""

from __future__ import annotations

import numpy as np

from .grid import SizeGrid

__all__ = ["kernel_weights"]


def kernel_weights(kappa: str, grid: SizeGrid) -> np.ndarray:
    """Strictly upper-triangular table W[i, j] of fragment placement weights.

    W[i, j] is the probability that a fragment of a parent in cell j lands in
    cell i (i < j, so every entry sits above the diagonal).  Starting point
    is the midpoint rule width[i]/y_j for the
    uniform rule; a per-column two-constraint correction on the two largest
    admissible cells then makes BOTH discrete laws exact:

        sum_i W[i, j]        = (y_j - x0)/y_j
        sum_i x_i * W[i, j]  = (y_j**2 - x0**2)/(2*y_j)

    (with x0 = 0 these read 1 and y_j/2).  Exactness of the second law is
    what makes the assembled splitting term conserve polymer mass to
    rounding, so it cannot be traded for smoothness.

    Column j=1 has a single admissible cell; its one weight is set from the
    first-moment law (mass-exact) since mass is the conserved book.  Column
    j=0 has no admissible cell and stays zero; splitting in the smallest
    cell is disabled at assembly instead.

    Parameters
    ----------
    kappa : str
        Placement rule name; only "uniform" is supported.
    grid : SizeGrid

    Returns
    -------
    np.ndarray
        Shape (n, n), strictly upper triangular, entries >= 0.
    """
    if kappa != "uniform":
        raise ValueError("unsupported placement rule %r; only 'uniform' is implemented" % (kappa,))
    x = grid.centers
    h = grid.widths
    x0 = grid.x0
    n = grid.n
    W = np.zeros((n, n))
    for j in range(1, n):
        yj = x[j]
        m0 = (yj - x0) / yj
        m1 = (yj * yj - x0 * x0) / (2.0 * yj)
        if j == 1:
            W[0, 1] = m1 / x[0]
            continue
        w = h[:j] / yj
        # correction on the two largest admissible cells: solve
        #   a + b = m0 - sum(w),  x[j-2]*a + x[j-1]*b = m1 - x@w
        d0 = m0 - w.sum()
        d1 = m1 - x[:j] @ w
        det = x[j - 1] - x[j - 2]
        b = (d1 - x[j - 2] * d0) / det
        w[j - 2] += d0 - b
        w[j - 1] += b
        W[:j, j] = w
    return W
