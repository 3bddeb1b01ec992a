"""Principal eigenpair machinery for the frozen-monomer polymer operator.

Sign convention, fixed once: the generator G of du/dt = G u has a
principal eigenvalue nu with the population evolving like exp(nu*t).
Everything user-facing stores lambda_eig = -nu, the LOSS rate, and exposes
growth_rate = -lambda_eig = nu.  Negative lambda_eig means the polymer
population grows.

Every solve, of L(v) or of its transpose (the adjoint: cells are equal),
enters through ``generator_eigenpair`` and runs on the structured
``operator.Generator`` in ``_principal_on_matrix``; the dense assembly is
the tests' oracle.  A solve stops on its residual, not on the error of its
loss rate, which is larger by the eigenvalue's condition number
max|y|*sum|u|/|y.u| (y the eigenvector on the other side).  The adjoint
weight grows with size while the Perron vector sits at small sizes, so
the adjoint's condition number is large: a loss rate is read from a
primal solve, and an adjoint solve serves for its weight alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .grid import SizeGrid
from .operator import Generator

__all__ = [
    "EigenSolution",
    "EigenConvergenceError",
    "PositivityViolationError",
    "ScanResult",
    "HypothesisConstants",
    "principal_eigenpair",
    "generator_eigenpair",
    "adjoint_eigenpair",
    "loss_rate_at_vbar",
    "scan_lambda",
    "hypothesis_constants",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
# where a Perron step first tries its shift: this fraction of the way from
# the mean ratio sum(Au)/sum(u) up to the safe shift
TRIAL_SHIFT = 0.1


class EigenConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last residual seen."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


class PositivityViolationError(RuntimeError):
    """A safe-shift solve failed ``Generator.certify``, or a weight is not positive."""


@dataclass
class EigenSolution:
    """Converged eigenpair at one monomer level.

    lambda_eig is the loss rate (see module docstring); u_vec is the
    nonnegative eigenvector normalized to unit count, sum(u*h) = 1;
    phi_vec is the adjoint weight when this solution came from the adjoint
    solve, normalized so its linear extrapolation to the minimal size
    equals 1, phi(x0) = 1.  residual is the l1 norm of (G - nu)v at
    convergence; residual_log holds the inverse-iteration history, and
    generator the generator solved.  shifted_solves counts the shifted
    solves taken, rejected trial shifts included.  At v = 0 the solution is
    degenerate: no vector, the loss rate read off the diagonal.
    """

    v: float
    lambda_eig: float
    u_vec: Optional[np.ndarray]
    phi_vec: Optional[np.ndarray]
    residual: float
    iterations: int
    generator: Generator = field(repr=False)
    degenerate: bool = False
    residual_log: list = field(default_factory=list, repr=False)
    shifted_solves: int = 0

    @property
    def grid(self) -> SizeGrid:
        return self.generator.grid

    @property
    def growth_rate(self) -> float:
        return -self.lambda_eig


def _principal_on_matrix(gen: Generator, v: float, adjoint: bool = False,
                         u0: Optional[np.ndarray] = None):
    """Perron pair of L(v), or of its adjoint, by Noda-style inverse iteration.

    Each step has a safe shift s, the larger of the Collatz-Wielandt ratio
    max (Au)_i/u_i (over cells with u_i > 1e-8*max(u): on underflowed tail
    cells it is rounding noise) and the Rayleigh quotient, plus
    1e-12*scale.  When u > 0 and the mean ratio m = sum(Au)/sum(u) lies
    below s, the step first tries the closer shift m + TRIAL_SHIFT*(s - m).
    It keeps the first solve of (shift*I - A)w = u that ``Generator.certify``
    certifies; a failed solve at s puts s below the principal eigenvalue
    and raises PositivityViolationError naming the level and the shift.
    The iteration stops when the l1 residual |Au - nu*u| of the l1-normed
    iterate drops below DEFAULT_TOL*scale, scale the largest absolute row
    sum of A, and raises EigenConvergenceError, naming the level, after
    DEFAULT_MAX_ITER steps; both constants are read at call time.  u0, a
    nonnegative start vector, replaces the flat start.

    Returns (nu, vec, residual, residual_log, iterations, shifted_solves),
    sum(vec*h) = 1; shifted_solves counts the trials too.
    """
    apply = gen.apply_adjoint if adjoint else gen.apply
    n = gen.grid.n
    # off-diagonal entries are >= 0 and the diagonal <= 0
    scale = float((apply(v, np.ones(n)) - 2.0 * gen.diagonal(v)).max())
    u = np.full(n, 1.0 / n) if u0 is None else u0 / u0.sum()
    au = apply(v, u)
    nu = float(u @ au) / float(u @ u)
    res_log: list = []
    r = float("inf")
    solves = 0
    for it in range(1, DEFAULT_MAX_ITER + 1):
        big = u > 1e-8 * u.max()
        s = max(float((au[big] / u[big]).max()), nu) + 1e-12 * scale
        m = float(au.sum()) / float(u.sum())
        shifts = (m + TRIAL_SHIFT * (s - m), s) if m < s and u.min() > 0.0 else (s,)
        for shift in shifts:
            solves += 1
            w, certified = gen.certify(v, shift, u, adjoint=adjoint)
            if certified:
                break
        else:
            raise PositivityViolationError(
                "shifted solve at level v=%g failed its positivity "
                "certificate (shift %.17g)" % (v, s))
        u = w / w.sum()
        au = apply(v, u)
        nu = float(u @ au) / float(u @ u)
        r = float(np.abs(au - nu * u).sum())
        res_log.append(r)
        if r < DEFAULT_TOL * scale:
            break
    else:
        raise EigenConvergenceError(
            "no convergence at level v=%g after %d inverse iterations "
            "(residual %.3e, needed %.3e)" % (v, DEFAULT_MAX_ITER, r,
                                              DEFAULT_TOL * scale),
            last_residual=r)
    return nu, u / (u @ gen.grid.widths), r, res_log, it, solves


def generator_eigenpair(gen: Generator, v: float, u0: Optional[np.ndarray] = None,
                        adjoint: bool = False) -> EigenSolution:
    """Loss rate and Perron vector of a prebuilt generator at level v.

    The one entry of every solve: the primal fills u_vec, the adjoint
    (``adjoint``: the transpose) phi_vec, each scaled as EigenSolution
    says.  At v = 0 the generator is triangular: the primal loss rate is
    min(decay + effective splitting), read off the diagonal (u_vec None),
    and the adjoint weight is not defined.  u0 warm-starts the solve from a
    vector at a nearby level.
    """
    if not 0.0 <= v < float("inf"):
        raise ValueError("monomer level must be finite and nonnegative, got %g" % v)
    if v == 0.0:
        if adjoint:
            raise ValueError("adjoint weight is not defined at zero monomer level")
        return EigenSolution(v=0.0, lambda_eig=float(gen.loss.min()), u_vec=None,
                             phi_vec=None, residual=0.0, iterations=0,
                             generator=gen, degenerate=True)
    nu, vec, r, log, it, solves = _principal_on_matrix(gen, v, adjoint=adjoint,
                                                       u0=u0)
    if adjoint:
        x = gen.grid.centers
        # extrapolate to x0 through the first two cell centers
        phi0 = vec[0] + (gen.grid.x0 - x[0]) * (vec[1] - vec[0]) / (x[1] - x[0])
        if phi0 <= 0.0:
            raise PositivityViolationError(
                "adjoint weight extrapolates to %.3e at the minimal size" % float(phi0))
        vec = vec / phi0
    return EigenSolution(v=float(v), lambda_eig=-nu, u_vec=None if adjoint else vec,
                         phi_vec=vec if adjoint else None, residual=r, iterations=it,
                         generator=gen, residual_log=log, shifted_solves=solves)


def principal_eigenpair(coeffs: CoefficientSet, grid: SizeGrid,
                        v: float) -> EigenSolution:
    """Loss rate and size profile at level v (``generator_eigenpair``)."""
    return generator_eigenpair(Generator(coeffs, grid), v)


def adjoint_eigenpair(coeffs: CoefficientSet, grid: SizeGrid, v: float) -> EigenSolution:
    """Adjoint weight phi_vec at level v (``generator_eigenpair``)."""
    return generator_eigenpair(Generator(coeffs, grid), v, adjoint=True)


def loss_rate_at_vbar(coeffs: CoefficientSet, grid: SizeGrid) -> Optional[float]:
    """Loss rate at the uninfected level vbar, from a primal solve; None at
    zero clearance, where vbar is infinite.

    The one source of this number: simulate records, the log-law
    prediction and ``stability_experiment`` read it.
    """
    if coeffs.clearance == 0.0:
        return None
    return principal_eigenpair(coeffs, grid, coeffs.vbar).lambda_eig


@dataclass(frozen=True)
class ScanResult:
    """Loss rate across a ladder of monomer levels, plus structure verdicts.

    solutions holds the EigenSolution at each level, in ladder order.
    """

    v_values: np.ndarray
    lambda_values: np.ndarray
    decreasing: bool
    sign_at_largest: int
    solutions: list = field(repr=False)

    @property
    def growth_rates(self) -> np.ndarray:
        return -self.lambda_values


def scan_lambda(coeffs: CoefficientSet, grid: SizeGrid,
                v_list: Sequence[float]) -> ScanResult:
    """Evaluate the loss rate on a strictly increasing ladder of levels.

    The verdict ``decreasing`` certifies strict decrease with a 1e-10
    tolerance band, and the sign of the loss rate at the largest level
    probes eventual decay of the scan.  A level 0 in the ladder reports
    the zero-level loss rate, min(decay + effective splitting).  One
    generator serves the whole ladder.  Each level starts flat: ladder
    levels lie far apart, and a flat start is closer to a far profile than
    another far profile is.
    """
    v_arr = np.asarray(list(v_list), dtype=float)
    if v_arr.size < 1:
        raise ValueError("empty level list")
    if np.any(np.diff(v_arr) <= 0.0) or v_arr[0] < 0.0:
        raise ValueError("levels must be strictly increasing and nonnegative")
    gen = Generator(coeffs, grid)
    sols = [generator_eigenpair(gen, v) for v in v_arr]
    lams = np.array([sol.lambda_eig for sol in sols])
    decreasing = bool(np.all(np.diff(lams) < 1e-10))
    sign = int(np.sign(lams[-1]))
    return ScanResult(v_values=v_arr, lambda_values=lams, decreasing=decreasing,
                      sign_at_largest=sign, solutions=sols)


@dataclass(frozen=True)
class HypothesisConstants:
    """Sampled bounds relating conversion speed to the adjoint weight.

    k1 bounds |conv * phi'| / phi, k2 bounds conv/phi from above, k_lower
    from below, all over the trusted window [x0, x0 + 0.8*(xmax - x0)]:
    the discrete adjoint develops an outflow boundary layer near xmax whose
    spurious gradients would otherwise dominate k1.  k_lower shrinks as
    xmax grows whenever phi is unbounded, so it always depends on the
    domain and has no clean limit.  v is the level of the adjoint weight.
    """

    k1: float
    k2: float
    k_lower: float
    v: float


def hypothesis_constants(adjoint: EigenSolution) -> HypothesisConstants:
    """Estimate the comparison constants between conversion and adjoint weight.

    ``adjoint`` is an ``adjoint_eigenpair`` solution; its level, grid and
    the conversion rate of its generator are the ones used.  Differentiates
    the weight by centered differences and takes sup/inf of the three ratios
    on the trusted window (see HypothesisConstants).
    """
    phi = adjoint.phi_vec
    if phi is None or phi.min() <= 0.0:
        raise PositivityViolationError("adjoint weight must be strictly positive")
    grid = adjoint.grid
    x = grid.centers
    conv = adjoint.generator.conversion
    dphi = np.gradient(phi, x)  # centered interior, one-sided ends
    ratio1 = np.abs(conv * dphi) / phi
    ratio2 = conv / phi
    win = x <= grid.x0 + 0.8 * (grid.xmax - grid.x0)
    return HypothesisConstants(
        k1=float(ratio1[win].max()), k2=float(ratio2[win].max()),
        k_lower=float(ratio2[win].min()), v=float(adjoint.v))
