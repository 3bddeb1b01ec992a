"""Linear operator for the polymer equation at frozen monomer level.

The generator form is du/dt = L(v) u with

    L(v) = v * (upwind transport of conversion flux)
         - diag(decay + splitting loss)
         + splitting gain (strictly upper triangular)

so off-diagonal entries are nonnegative and explicit stepping preserves
positivity.  Fragments land in smaller cells, so the gain sits above the
diagonal.  The loss-rate eigenvalue reported elsewhere is the negative of
the principal eigenvalue of L(v).

``Generator`` is the structured O(n) form every solver uses.  The dense
chain ``transport_reaction_parts`` -> ``assemble``/``assemble_adjoint``
builds the same matrix entry by entry from the kernel table; it is the
independent oracle of the structured form.

The shifted solves call LAPACK's band LU (``dgbsv``, ``dgbtrf``,
``dgbtrs``) in the OpenBLAS that numpy already loaded, through ``ctypes``,
so no run loads SciPy; where numpy's library lacks those routines they
come from ``scipy.linalg.lapack`` instead.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .coefficients import CoefficientSet, eval_coefficients
from .grid import SizeGrid
from .kernel import kernel_weights

__all__ = [
    "Generator",
    "FragOperator",
    "transport_reaction_parts",
    "assemble",
    "assemble_adjoint",
]


@cache
def _lapack_symbols():
    """numpy's own ``dgbsv``, ``dgbtrf`` and ``dgbtrs``, or None.

    numpy's wheel links its linear algebra against an OpenBLAS built with
    64-bit integers (ILP64) whose LAPACK symbols carry the ``scipy_`` prefix
    and ``_64_`` suffix.  ``dlsym`` on the library behind
    ``numpy.linalg._umath_linalg`` searches that library's dependencies
    too, so the routines come from the copy numpy has already loaded and
    set up.  None when a build exports no such symbols (another BLAS, or
    another platform's loader); ``_BandLU`` then calls SciPy's.
    """
    from numpy.linalg import _umath_linalg  # loaded with numpy already
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = [getattr(lib, "scipy_%s_64_" % name)
                    for name in ("dgbsv", "dgbtrf", "dgbtrs")]
    except (OSError, AttributeError):
        return None
    ptr = ctypes.c_void_p
    # dgbtrs takes TRANS first and, as gfortran's hidden argument, its length last
    argtypes = ([ptr] * 10, [ptr] * 8, [ctypes.c_char_p] + [ptr] * 10 + [ctypes.c_size_t])
    for routine, types in zip(routines, argtypes):
        routine.argtypes = types
        routine.restype = None
    return routines


class _BandLU:
    """LAPACK buffers for one generator's shifted solves.

    ``ab`` is the band in LAPACK storage (kl = 1, ku = 3, ldab = 6, row 0
    fill-in), in Fortran order so the routines factor it in place, and
    ``rhs`` the right-hand side they overwrite with the solution.  The
    pivots, the integer arguments and every address stay with them, so a
    solve allocates nothing, and a generator runs one solve at a time.
    """

    def __init__(self, n: int):
        self.routines = _lapack_symbols()
        self.ab = np.zeros((6, n), order="F")
        self.rhs = np.zeros(n)
        self._piv = np.zeros(n, dtype=np.int64)
        # n (also M and LDB), kl, ku, nrhs, ldab, info
        self._ints = np.array([n, 1, 3, 1, 6, 0], dtype=np.int64)
        n_, kl, ku, nrhs, ldab, info = (self._ints.ctypes.data + 8 * k for k in range(6))
        ab, piv, rhs = self.ab.ctypes.data, self._piv.ctypes.data, self.rhs.ctypes.data
        self._trf_args = (n_, n_, kl, ku, ab, ldab, piv, info)
        self._sv_args = (n_, kl, ku, nrhs, ab, ldab, piv, rhs, n_, info)  # and dgbtrs's

    def solve(self, adjoint: bool) -> bool:
        """Factor ``ab`` and overwrite ``rhs`` with the band's solution, or
        with its transpose's for ``adjoint``; False when the factorisation
        is singular."""
        if self.routines is None:
            from scipy.linalg.lapack import dgbtrf, dgbtrs
            lu, piv, info = dgbtrf(self.ab, 1, 3, overwrite_ab=1)
            if info == 0:
                self.rhs[:] = dgbtrs(lu, 1, 3, self.rhs, piv, trans=int(adjoint))[0]
            return info == 0
        gbsv, gbtrf, gbtrs = self.routines
        if not adjoint:
            gbsv(*self._sv_args)
        else:
            gbtrf(*self._trf_args)
            if self._ints[5] == 0:
                gbtrs(b"T", *self._sv_args, 1)
        return bool(self._ints[5] == 0)


class Generator:
    """Structured generator L(v) = v*T + B for one coefficient set and grid.

    Holds O(n) arrays only:

    - ``t_diag``, ``t_sub``: diagonal and subdiagonal of the upwind
      transport T;
    - ``loss``: decay plus effective splitting, the loss diagonal of B;
    - ``gain1``, ``gain2``: the mass-corrected splitting gain on the first
      and second superdiagonals (entry k sits in column k+1, resp. k+2);
    - ``far_gain``: c_j = 2*frag_eff_j*h_j/y_j, the value of every gain
      entry G[i, j] with j >= i+3 (the plain midpoint weight h_i/y_j);
    - ``uptake`` = conv_j*h_j and ``returned`` = (x0**2/y_j)*frag_eff_j*h_j,
      the fragment mass landing below x0: the weights of the monomer equation.

    So L(v)u is a suffix sum plus bands (``apply``), its adjoint a prefix
    sum plus bands, and a shifted solve a band LU (``certify``), all
    O(n).  Splitting in the smallest cell is disabled (no admissible
    destination cell), as in ``transport_reaction_parts``.  A rate whose
    entries overflow on the grid raises a ValueError that names it.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, coeffs: CoefficientSet, grid: SizeGrid):
        x, h = grid.centers, grid.widths
        conv, frag, decay = eval_coefficients(coeffs, grid)
        frag_eff = frag.copy()
        frag_eff[0] = 0.0
        self.grid = grid
        self.conversion, self.decay = conv, decay
        self.uptake = conv * h
        self.returned = grid.x0 ** 2 / x * frag_eff * h
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
        for rate, entries in (
                ("conversion", (self.t_diag, self.t_sub, self.uptake)),
                ("fragmentation", (self.gain1, self.gain2, self.far_gain, self.returned)),
                ("decay plus fragmentation", (self.loss,))):
            if not all(np.isfinite(e).all() for e in entries):
                raise ValueError("%s gives generator entries that are not finite "
                                 "on this grid" % rate)
        # apply's term rows, refilled from u on each call:
        #   0-3  the band table (t_sub, t_diag, gain1, gain2), aligned so
        #        that column i multiplies u[i-1], u[i], u[i+1], u[i+2],
        #        times a 4-row view of u padded with zeros;
        #   4    -loss*u;
        #   5    the far-gain suffix sum, sum over j >= i+3 of far_gain*u;
        #   6    u itself, for the Euler stage.
        # Rows 0 and 1 carry the weight v, so no row depends on v.
        n = grid.n
        self._table = np.zeros((4, n))
        self._table[0, 1:] = self.t_sub
        self._table[1] = self.t_diag
        self._table[2, :-1] = self.gain1
        self._table[3, :-2] = self.gain2
        self._neg_loss = -self.loss
        self._rows = np.zeros((7, n))
        self._upad = np.zeros(n + 3)
        self._ushift = np.lib.stride_tricks.sliding_window_view(self._upad, n)
        # the far gain of columns n-1 down to 3 (none when n <= 3), and the
        # cells 0..n-4 of row 5 read backwards, where the suffix sum lands
        self._far_rev = self.far_gain[:2:-1]
        self._far_terms = np.empty(max(n - 3, 0))
        self._suffix = self._rows[5, :max(n - 3, 0)][::-1]
        self._weights = np.ones(7)

    def diagonal(self, v: float) -> np.ndarray:
        """Diagonal of L(v), shared with its adjoint."""
        return v * self.t_diag - self.loss

    def apply(self, v: float, u: np.ndarray) -> np.ndarray:
        """L(v) u in O(n), as a fresh array.

        One product of a weight vector with the term rows that ``__init__``
        lays out, filled from u: L(v) u weights rows 0-5 by (v, v, 1, 1, 1,
        1); ``stage`` weights all seven for the Euler stage.  The product
        adds the terms in BLAS's order, so the bits may differ from a sum
        band by band, within a few rounding units of the sum of the terms'
        magnitudes; a cell whose terms are all zero is exactly 0.
        """
        rows = self._fill(u)
        weights = self._weights
        weights[:2] = v
        weights[2:6] = 1.0
        return weights[:6] @ rows[:6]

    def _fill(self, u: np.ndarray) -> np.ndarray:
        """Fill the term rows from u and return them (laid out in
        ``__init__``; the next fill overwrites them)."""
        rows = self._rows
        self._upad[1:-2] = u
        np.multiply(self._table, self._ushift, out=rows[:4])
        np.multiply(self._neg_loss, u, out=rows[4])
        np.multiply(self._far_rev, u[:2:-1], out=self._far_terms)
        np.add.accumulate(self._far_terms, out=self._suffix)
        rows[6] = u
        return rows

    @cached_property
    def _run_coefficients(self) -> tuple:
        """Each cell's conv/h and flow into the next cell, as lists for ``stage``."""
        return (-self.t_diag).tolist(), self.t_sub.tolist()

    def stage(self, v: float, tau: float, u: np.ndarray,
              runs: Optional[list] = None) -> np.ndarray:
        """The Euler stage u + tau*L(v) u, as a fresh array: the term rows
        weighted by (tau*v, tau*v, tau, tau, tau, tau, 1), with the rounding
        ``apply`` states.

        ``runs`` lists (lo, hi) pairs, each ending before the last cell and
        at least one cell before the next begins.  Transport out of each
        cell lo..hi uses its new value, in flux form: (1 +
        tau*v*conv_i/h_i)*new_i = u_i + tau*(gain_i - loss_i*u_i +
        v*inflow_i), the inflow taken from the new value of the cell before,
        or from the old value into cell lo: a lower bidiagonal recurrence,
        positive at v >= 0.  Cell hi+1, explicit, takes its inflow from
        new_hi and passes its old value on, so the runs are independent.
        Each flux leaves one cell and enters the next at one value, so the
        count sum(h*stage) is the explicit stage's (the explicit-implicit
        flux mixing of May and Berger, J. Sci. Comput. 71, 2017).
        """
        rows = self._fill(u)
        weights = self._weights
        weights[:2] = tau_v = tau * v
        weights[2:6] = tau
        out = weights @ rows
        for lo, hi in runs or ():
            rate, flow = self._run_coefficients
            # the run's cells and the one after it, without transport
            q = (u[lo:hi + 2] + tau * rows[2:6, lo:hi + 2].sum(axis=0)).tolist()
            inflow = float(rows[0, lo])
            for i, q_i in zip(range(lo, hi + 1), q):
                out[i] = value = (q_i + tau_v * inflow) / (1.0 + tau_v * rate[i])
                inflow = flow[i] * value
            out[hi + 1] = q[-1] + tau_v * (rows[1, hi + 1] + inflow)
        return out

    def apply_adjoint(self, v: float, phi: np.ndarray) -> np.ndarray:
        """L(v)^T phi in O(n): the adjoint on equal cells."""
        out = self.diagonal(v) * phi
        out[:-1] += v * self.t_sub * phi[1:]
        out[1:] += self.gain1 * phi[:-1]
        out[2:] += self.gain2 * phi[:-2]
        out[3:] += self.far_gain[3:] * np.cumsum(phi[:-3])
        return out

    @cached_property
    def _band(self) -> _BandLU:
        """``certify``'s LAPACK buffers, made at its first call: the
        integrators never solve."""
        return _BandLU(self.grid.n)

    def certify(self, v: float, s: float, b: np.ndarray,
                adjoint: bool = False) -> tuple[Optional[np.ndarray], bool]:
        """(x, certified): x solves (s*I - L(v)) x = b (L(v)^T: ``adjoint``).

        The one shifted solve, and the one positivity certificate every
        solver reads.  x is None only when the band LU is singular;
        certified is x >= 0 (an entry below 0 or NaN fails), and a caller
        uses x as a nonnegative vector only when it is certified.  L(v) is
        Metzler, so s*I - L(v) is a Z-matrix, and for b > 0 a solution x >= 0
        makes it a nonsingular M-matrix (Berman and Plemmons, 1994): s lies
        above the principal eigenvalue, with no irreducibility argument.
        Above it (s*I - L(v))^{-1} >= 0, so x_i >= b_i/(s - L(v)_ii) > 0.  A
        failed certificate (a singular factorisation, or x not >= 0) puts s
        at or below it, up to rounding.

        The band LU: with P the unit upper bidiagonal matrix that subtracts
        from each row the row below it, M = P(s*I - L(v)) has 1 lower and 3
        upper diagonals (the column-constant gain cancels but for its first
        entry), and (s*I - L(v)^T) y = b is M^T z = b with y = P^T z.
        The primal solve is one ``dgbsv`` call, the adjoint ``dgbtrf`` then
        ``dgbtrs('T')``, from numpy's own OpenBLAS (``_BandLU``).  The
        generator keeps the LAPACK buffers, so it runs one solve at a time.
        b must have shape (n,); x is a fresh array.
        """
        n = self.grid.n
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (n,):
            raise ValueError("right-hand side has shape %s, not (%d,)" % (b.shape, n))
        m = s - self.diagonal(v)
        sub = -v * self.t_sub
        band = self._band
        ab, rhs = band.ab, band.rhs
        ab.fill(0.0)
        ab[1, 3:] = self.gain2[1:] - self.far_gain[3:]
        ab[2, 2:] = self.gain1[1:] - self.gain2
        ab[3, 1:] = -self.gain1 - m[1:]
        ab[4] = m
        ab[4, :-1] -= sub
        ab[5, :-1] = sub
        rhs[:] = b
        if not adjoint:
            rhs[:-1] -= b[1:]
        if not band.solve(adjoint):
            return None, False
        x = rhs.copy()
        if adjoint:
            x[1:] -= x[:-1].copy()
        return x, bool(x.min() >= 0.0)


def transport_reaction_parts(coeffs: CoefficientSet, grid: SizeGrid):
    """Split the generator into monomer-level-proportional and fixed parts.

    Returns (T, B, samples) with L(v) = v*T + B.  T is the first-order
    upwind transport of the conversion flux (flow is rightward, inflow
    boundary value zero, outflow at xmax free).  B collects decay, splitting
    loss and splitting gain.  ``samples`` is a dict of the sampled
    conversion and decay rates and the effective splitting rate actually
    used.

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
    samples = {"conversion": conv, "decay": decay, "frag_eff": frag_eff}
    return T, B, samples


@dataclass(frozen=True)
class FragOperator:
    """Generator matrix at one monomer level, with its ingredients."""

    v: float
    matrix: np.ndarray = field(repr=False)
    grid: SizeGrid
    conversion: np.ndarray = field(repr=False)
    frag_eff: np.ndarray = field(repr=False)
    decay: np.ndarray = field(repr=False)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u


def assemble(coeffs: CoefficientSet, grid: SizeGrid, v: float) -> FragOperator:
    """Build the generator matrix L(v) = v*T + B."""
    if v < 0.0:
        raise ValueError("monomer level must be nonnegative, got %g" % v)
    T, B, samples = transport_reaction_parts(coeffs, grid)
    return FragOperator(v=float(v), matrix=v * T + B, grid=grid, **samples)


def assemble_adjoint(coeffs: CoefficientSet, grid: SizeGrid, v: float) -> FragOperator:
    """Build the adjoint generator H^{-1} L^T H (equals L^T on uniform grids).

    With H = diag(cell widths), <phi, L u> = <L* phi, u> holds to rounding
    for the width-weighted inner product <a, b> = sum(a*b*h).  Only the
    matrix differs from the primal ``FragOperator``.  ``Generator`` applies
    the plain transpose; this weighted form stays independent of it.
    """
    primal = assemble(coeffs, grid, v)
    h = grid.widths
    return replace(primal, matrix=(primal.matrix.T * h[None, :]) / h[:, None])
