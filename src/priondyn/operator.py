"""Linear operator for the polymer equation at frozen monomer level.

The generator form is du/dt = L(v) u with

    L(v) = v * (upwind transport of conversion flux)
         - diag(decay + splitting loss)
         + splitting gain (strictly upper triangular)

so off-diagonal entries are nonnegative and explicit stepping preserves
positivity.  Fragments land in smaller cells, so the gain sits above the
diagonal.  The loss-rate eigenvalue reported elsewhere is the negative of
the principal eigenvalue of L(v).

Two forms live here.  ``Generator`` is the structured form every solver
uses: bidiagonal transport, the loss diagonal, two mass-corrected gain
superdiagonals, and above them a gain that depends on the column only,
so apply, adjoint apply and shifted solves all cost O(n).  The dense chain
``transport_reaction_parts`` -> ``assemble``/``assemble_adjoint`` builds
the same matrix entry by entry from the kernel table; it is the
independent oracle the structured form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet, eval_coefficients
from .grid import SizeGrid
from .kernel import below_cutoff_mass_share, kernel_weights

__all__ = [
    "Generator",
    "FragOperator",
    "AdjointOperator",
    "BalanceResult",
    "transport_reaction_parts",
    "assemble",
    "assemble_adjoint",
    "macroscopic_balance",
]


class Generator:
    """Structured generator L(v) = v*T + B for one coefficient set and grid.

    Holds O(n) arrays only:

    - ``t_diag``, ``t_sub``: diagonal and subdiagonal of the upwind
      transport T;
    - ``loss``: decay plus effective splitting, the loss diagonal of B;
    - ``gain1``, ``gain2``: the mass-corrected splitting gain on the first
      and second superdiagonals (entry k sits in column k+1, resp. k+2);
    - ``far_gain``: c_j = 2*frag_eff_j*h_j/y_j, the value of every gain
      entry G[i, j] with j >= i+3 (the plain midpoint weight h_i/y_j).

    So L(v)u is a suffix sum plus bands, its adjoint a prefix sum plus
    bands, and subtracting from each row of s*I - L(v) the row below it
    leaves a band matrix with one lower and three upper diagonals, which
    LAPACK factors in O(n).  Splitting in the smallest cell is disabled
    (no admissible destination cell), as in ``transport_reaction_parts``.
    """

    def __init__(self, coeffs: CoefficientSet, grid: SizeGrid):
        x, h = grid.centers, grid.widths
        conv, frag, decay = eval_coefficients(coeffs, grid)
        frag_eff = frag.copy()
        frag_eff[0] = 0.0
        self.coeffs, self.grid = coeffs, grid
        self.conversion, self.fragmentation, self.decay = conv, frag, decay
        self.frag_eff = frag_eff
        self.t_diag = -conv / h
        self.t_sub = conv[:-1] / h[1:]
        self.loss = decay + frag_eff
        # column j >= 2: the midpoint weights h_i/y_j miss the count law by
        # d0 = h_j/(2*y_j) and the mass law by d1 = h_j/2 - h_j**2/(8*y_j)
        # (x cell-centred); cells j-2 and j-1 take up both residuals
        y, hy = x[2:], h[2:]
        d0 = hy / (2.0 * y)
        d1 = 0.5 * hy - hy * hy / (8.0 * y)
        b = (d1 - x[:-2] * d0) / (x[1:-1] - x[:-2])
        # column 1 has one destination cell, which carries the mass law
        w01 = (x[1] ** 2 - grid.x0 ** 2) / (2.0 * x[1] * x[0])
        out = 2.0 * frag_eff * h
        self.gain1 = out[1:] / h[:-1] * np.concatenate(([w01], h[1:-1] / y + b))
        self.gain2 = out[2:] / h[:-2] * (h[:-2] / y + d0 - b)
        self.far_gain = out / x

    def diagonal(self, v: float) -> np.ndarray:
        """Diagonal of L(v), shared with its adjoint."""
        return v * self.t_diag - self.loss

    def apply(self, v: float, u: np.ndarray) -> np.ndarray:
        """L(v) u in O(n)."""
        out = self.diagonal(v) * u
        out[1:] += v * self.t_sub * u[:-1]
        out[:-1] += self.gain1 * u[1:]
        out[:-2] += self.gain2 * u[2:]
        out[:-3] += np.cumsum((self.far_gain * u)[:2:-1])[::-1]
        return out

    def apply_adjoint(self, v: float, phi: np.ndarray) -> np.ndarray:
        """H^{-1} L(v)^T H phi in O(n), with H = diag(cell widths)."""
        h = self.grid.widths
        w = h * phi
        out = self.diagonal(v) * w
        out[:-1] += v * self.t_sub * w[1:]
        out[1:] += self.gain1 * w[:-1]
        out[2:] += self.gain2 * w[:-2]
        out[3:] += self.far_gain[3:] * np.cumsum(w[:-3])
        return out / h

    def solve_shifted(self, v: float, s: float, b: np.ndarray,
                      adjoint: bool = False) -> np.ndarray:
        """Solve (s*I - L(v)) x = b, or the same with the adjoint of L(v).

        With M = s*I - L(v) and P the unit upper bidiagonal matrix that
        subtracts from each row the row below it, P M is banded (1 lower,
        3 upper diagonals): the column-constant gain cancels except in its
        first entry.  The adjoint solve reuses the factors transposed:
        (s*I - H^{-1} L(v)^T H) y = b is (P M)^T z = H b with H y = P^T z.
        """
        from scipy.linalg.lapack import dgbtrf, dgbtrs  # costly import, needed only here
        n = self.grid.n
        m = s - self.diagonal(v)
        sub = -v * self.t_sub
        ab = np.zeros((6, n))  # LAPACK band storage, kl=1, ku=3, row 0 is fill-in
        ab[1, 3:] = self.gain2[1:] - self.far_gain[3:]
        ab[2, 2:] = self.gain1[1:] - self.gain2
        ab[3, 1:] = -self.gain1 - m[1:]
        ab[4] = m
        ab[4, :-1] -= sub
        ab[5, :-1] = sub
        lu, piv, info = dgbtrf(ab, 1, 3, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                "shifted generator is singular at level v=%g, shift %g" % (v, s))
        if not adjoint:
            rhs = b.copy()
            rhs[:-1] -= b[1:]
            x, _ = dgbtrs(lu, 1, 3, rhs, piv, overwrite_b=1)
            return x
        h = self.grid.widths
        z, _ = dgbtrs(lu, 1, 3, h * b, piv, trans=1, overwrite_b=1)
        z[1:] -= z[:-1].copy()
        return z / h


def transport_reaction_parts(coeffs: CoefficientSet, grid: SizeGrid):
    """Split the generator into monomer-level-proportional and fixed parts.

    Returns (T, B, samples) with L(v) = v*T + B.  T is the first-order
    upwind transport of the conversion flux (flow is rightward, inflow
    boundary value zero, outflow at xmax free).  B collects decay, splitting
    loss and splitting gain.  ``samples`` is a dict of the sampled rate
    arrays plus the effective splitting rate actually used.

    Splitting in the smallest cell is disabled (no admissible destination
    cell): its rate enters neither the loss diagonal nor the gain table, so
    the books stay closed.
    """
    x = grid.centers
    h = grid.widths
    n = grid.n
    conv, frag, decay = eval_coefficients(coeffs, grid)

    W = kernel_weights("uniform", grid)
    active = W.any(axis=0)
    frag_eff = np.where(active, frag, 0.0)

    # gain: du_i/dt += sum_j 2*W[i,j]*frag[j]*h[j]*u[j] / h[i]
    G = 2.0 * W * (frag_eff * h)[None, :] / h[:, None]

    T = np.zeros((n, n))
    for i in range(n):
        T[i, i] -= conv[i] / h[i]
        if i > 0:
            T[i, i - 1] += conv[i - 1] / h[i]

    B = -np.diag(decay + frag_eff) + G
    samples = {"conversion": conv, "fragmentation": frag, "decay": decay,
               "frag_eff": frag_eff, "active": active}
    return T, B, samples


@dataclass(frozen=True)
class FragOperator:
    """Generator matrix at one monomer level, with its ingredients."""

    v: float
    matrix: np.ndarray = field(repr=False)
    grid: SizeGrid
    coeffs: CoefficientSet
    conversion: np.ndarray = field(repr=False)
    frag_eff: np.ndarray = field(repr=False)
    decay: np.ndarray = field(repr=False)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u


@dataclass(frozen=True)
class AdjointOperator:
    """Weighted transpose of the generator: exact discrete duality partner.

    With H = diag(cell widths), the matrix is H^{-1} L^T H, so
    <phi, L u> = <L* phi, u> holds to rounding for the width-weighted inner
    product <a, b> = sum(a*b*h).
    """

    v: float
    matrix: np.ndarray = field(repr=False)
    grid: SizeGrid
    coeffs: CoefficientSet

    def apply(self, phi: np.ndarray) -> np.ndarray:
        return self.matrix @ phi


def assemble(coeffs: CoefficientSet, grid: SizeGrid, v: float) -> FragOperator:
    """Build the generator matrix L(v) = v*T + B."""
    if v < 0.0:
        raise ValueError("monomer level must be nonnegative, got %g" % v)
    T, B, samples = transport_reaction_parts(coeffs, grid)
    return FragOperator(v=float(v), matrix=v * T + B, grid=grid, coeffs=coeffs,
                        conversion=samples["conversion"],
                        frag_eff=samples["frag_eff"],
                        decay=samples["decay"])


def assemble_adjoint(coeffs: CoefficientSet, grid: SizeGrid, v: float) -> AdjointOperator:
    """Build the adjoint generator H^{-1} L^T H (equals L^T on uniform grids)."""
    primal = assemble(coeffs, grid, v)
    h = grid.widths
    adj = (primal.matrix.T * h[None, :]) / h[:, None]
    return AdjointOperator(v=float(v), matrix=adj, grid=grid, coeffs=coeffs)


@dataclass(frozen=True)
class BalanceResult:
    """Mass bookkeeping of one operator application.

    raw_defect is <x, L u> - v*<conv, u> + <x*decay, u>; with exact kernel
    moments it is carried entirely by the outflow flux and (for positive
    minimal size) the mass handed back to the monomer pool, so

        residual = raw_defect + truncation_flux + monomer_return

    vanishes to rounding.
    """

    residual: float
    truncation_flux: float
    monomer_return: float
    raw_defect: float


def macroscopic_balance(op: FragOperator, u: np.ndarray) -> BalanceResult:
    """Check that applying the operator moves mass only through the books.

    The truncation flux is the polymer mass leaving through xmax per unit
    time under the upwind scheme; the monomer return is the fragment mass
    landing below the minimal size (zero for x0 = 0).  The residual is
    exact to rounding.
    """
    u = np.asarray(u, dtype=float)
    grid = op.grid
    x = grid.centers
    h = grid.widths
    xh = x * h
    lhs = xh @ (op.matrix @ u)
    drain = op.v * ((op.conversion * h) @ u)
    decay_loss = (x * op.decay * h) @ u
    flux = op.v * (x[-1] + h[-1]) * op.conversion[-1] * u[-1]
    below = below_cutoff_mass_share(grid)
    monomer_return = (below * op.frag_eff * h) @ u
    raw = lhs - drain + decay_loss
    return BalanceResult(residual=float(raw + flux + monomer_return),
                         truncation_flux=float(flux),
                         monomer_return=float(monomer_return),
                         raw_defect=float(raw))
