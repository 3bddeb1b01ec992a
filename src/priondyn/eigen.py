"""Principal eigenpair machinery for the frozen-monomer polymer operator.

Sign convention, fixed once: the generator G of du/dt = G u has a
principal eigenvalue nu with the population evolving like exp(nu*t).
Everything user-facing stores lambda_eig = -nu, the LOSS rate, and exposes
growth_rate = -lambda_eig = nu.  Negative lambda_eig means the polymer
population grows.

Every solve runs on the structured ``operator.Generator`` through one
routine, ``_principal_on_matrix``: inverse iteration whose O(n) shifted
solves keep the shift above the principal eigenvalue, so each iterate
stays a nonnegative vector.  The dense assembly is not used here; it is
the oracle the tests check these solves against.

A solve may start from a given profile (``u0``) instead of a flat
vector.  The root search in ``steady.find_v_inf`` does this: each of its
levels lies close to the one before, and on the fig3 bump at n=800 a
start from the profile at 1.01*v converges in 2-3 iterations against
14-16 cold.  Scans start flat.  Their levels are an order of magnitude
apart (8, 600, 2000 and 8, 64, 600, 4000 in the benchmark ladders), and
there a warm start raised the largest iteration count at n=400-3200 from
16 to 39 (the flat shape at v=600 started from v=8: 38 against 8); a
flat start is closer to a far profile than another far profile is.
Solves for different coefficient sets, such as the tightness sweep, also
start flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientSet, Constant, eval_coefficients
from .grid import SizeGrid
from .operator import Generator

__all__ = [
    "EigenSolution",
    "EigenConvergenceError",
    "PositivityViolationError",
    "MomentEstimates",
    "ScanResult",
    "HypothesisConstants",
    "principal_eigenpair",
    "generator_eigenpair",
    "eigenvalue_from_moments",
    "adjoint_eigenpair",
    "scan_lambda",
    "hypothesis_constants",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200


class EigenConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last residual seen."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


class PositivityViolationError(RuntimeError):
    """A Perron solve produced a vector with negative entries."""


@dataclass
class EigenSolution:
    """Converged eigenpair at one monomer level.

    lambda_eig is the loss rate (see module docstring); u_vec is the
    nonnegative eigenvector normalized to unit count, sum(u*h) = 1;
    phi_vec is the adjoint weight when this solution came from the adjoint
    solve, normalized so its linear extrapolation to the minimal size
    equals 1, phi(x0) = 1.  residual is the l1 norm of (G - nu)v at
    convergence; residual_log holds the inverse-iteration history.  At
    v = 0 the solution is degenerate: no vector, the loss rate read off
    the diagonal.
    """

    v: float
    lambda_eig: float
    u_vec: Optional[np.ndarray]
    phi_vec: Optional[np.ndarray]
    residual: float
    iterations: int
    grid: SizeGrid
    degenerate: bool = False
    residual_log: list = field(default_factory=list, repr=False)

    @property
    def growth_rate(self) -> float:
        return -self.lambda_eig


def _principal_on_matrix(gen: Generator, v: float,
                         tol: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER,
                         adjoint: bool = False,
                         u0: Optional[np.ndarray] = None):
    """Perron pair of L(v), or of its adjoint, by Noda-style inverse iteration.

    Each step solves (s*I - A)w = u with the shift s set to the larger of
    the Collatz-Wielandt ratio max (Au)_i/u_i and the Rayleigh quotient,
    plus 1e-12*scale.  The ratio is taken only over cells with
    u_i > 1e-8*max(u): on underflowed tail cells it is rounding noise.  A
    is Metzler, so (s*I - A)^{-1} >= 0 once s exceeds the principal
    eigenvalue; a solve that returns a negative entry means the shift fell
    below it and raises PositivityViolationError rather than being clipped.
    The iteration stops when the l1 residual |Au - nu*u| of the l1-normed
    iterate drops below tol * scale, scale the largest absolute row sum of
    A.  Every failure names the monomer level.  u0, a nonnegative start
    vector (a converged eigenvector at a nearby level), replaces the flat
    start; the shift rule and the positivity guard are the same.

    Returns (nu, vec, residual, residual_log, iterations), sum(vec*h) = 1.
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
    for it in range(1, max_iter + 1):
        big = u > 1e-8 * u.max()
        s = max(float((au[big] / u[big]).max()), nu) + 1e-12 * scale
        w = gen.solve_shifted(v, s, u, adjoint=adjoint)
        if w.min() < 0.0:
            raise PositivityViolationError(
                "shifted solve at level v=%g returned entries down to %.3e "
                "(shift %.17g)" % (v, float(w.min()), s))
        u = w / w.sum()
        au = apply(v, u)
        nu = float(u @ au) / float(u @ u)
        r = float(np.abs(au - nu * u).sum())
        res_log.append(r)
        if r < tol * scale:
            break
    else:
        raise EigenConvergenceError(
            "no convergence at level v=%g after %d inverse iterations "
            "(residual %.3e, needed %.3e)" % (v, max_iter, r, tol * scale),
            last_residual=r)
    return nu, u / (u @ gen.grid.widths), r, res_log, it


def generator_eigenpair(gen: Generator, v: float, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER,
                        u0: Optional[np.ndarray] = None) -> EigenSolution:
    """Loss rate and unit-count profile of a prebuilt generator at level v.

    At v = 0 the transport term vanishes and the generator is triangular:
    the loss rate is min(decay + effective splitting), read off the
    diagonal, and the solution is degenerate (u_vec None).  u0 warm-starts
    the solve from a profile at a nearby level on the same generator (see
    the module docstring for when that pays).
    """
    if v < 0.0:
        raise ValueError("monomer level must be nonnegative, got %g" % v)
    if v == 0.0:
        return EigenSolution(v=0.0, lambda_eig=float(gen.loss.min()), u_vec=None,
                             phi_vec=None, residual=0.0, iterations=0,
                             grid=gen.grid, degenerate=True)
    nu, vec, r, log, it = _principal_on_matrix(gen, v, tol=tol, max_iter=max_iter,
                                               u0=u0)
    return EigenSolution(v=float(v), lambda_eig=-nu, u_vec=vec, phi_vec=None,
                         residual=r, iterations=it, grid=gen.grid,
                         residual_log=log)


def principal_eigenpair(coeffs: CoefficientSet, grid: SizeGrid, v: float,
                        tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> EigenSolution:
    """Loss rate and nonnegative size profile at monomer level v.

    See ``generator_eigenpair``; this builds the generator for one call.
    """
    return generator_eigenpair(Generator(coeffs, grid), v, tol=tol,
                               max_iter=max_iter)


@dataclass(frozen=True)
class MomentEstimates:
    """Loss rate recovered from the two integral identities, kept separate.

    by_number comes from integrating the eigen relation (count balance):
    loss = <decay - splitting, u> / <1, u>.  by_mass comes from weighting
    by size (mass balance): loss = (<x*decay, u> - v*<conv, u>) / <x, u>.
    Each should match the solver eigenvalue up to the corresponding
    truncation flux, reported alongside.  mean_size = <x, u>/<1, u> is
    logged for inspection; it is not asserted against any closed form.
    """

    by_number: float
    by_mass: float
    mean_size: float
    count_flux: float
    mass_flux: float


def eigenvalue_from_moments(solution: EigenSolution, coeffs: CoefficientSet) -> MomentEstimates:
    """Recompute the loss rate from the converged profile via both balances.

    Uses the effective splitting rate the operator actually applies
    (disabled in the smallest cell), so the only defect left in each route
    is the outflow flux at xmax, returned for use as a tolerance bound.
    """
    if solution.u_vec is None:
        raise ValueError("solution has no eigenvector (degenerate v=0 solve)")
    grid = solution.grid
    u = solution.u_vec
    x, h = grid.centers, grid.widths
    gen = Generator(coeffs, grid)
    conv, decay, frag_eff = gen.conversion, gen.decay, gen.frag_eff

    count = float(u @ h)
    mass = float((x * u) @ h)
    v = solution.v
    count_flux = v * conv[-1] * u[-1]
    mass_flux = v * (x[-1] + h[-1]) * conv[-1] * u[-1]
    by_number = float(((decay - frag_eff) * u) @ h) / count
    by_mass = (float((x * decay * u) @ h) - v * float((conv * u) @ h)) / mass
    return MomentEstimates(by_number=by_number, by_mass=by_mass,
                           mean_size=mass / count,
                           count_flux=float(count_flux) / count,
                           mass_flux=float(mass_flux) / mass)


def adjoint_eigenpair(coeffs: CoefficientSet, grid: SizeGrid, v: float,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> EigenSolution:
    """Adjoint weight and its loss rate at monomer level v.

    The adjoint matrix shares the primal spectrum, so lambda_eig here must
    match the primal solve to rounding.  phi_vec is strictly positive,
    scaled so the linear extrapolation through the first two cells hits 1
    at the minimal size.
    """
    if v < 0.0:
        raise ValueError("monomer level must be nonnegative, got %g" % v)
    if v == 0.0:
        raise ValueError("adjoint weight is not defined at zero monomer level "
                         "(degenerate transport)")
    nu, vec, r, log, it = _principal_on_matrix(Generator(coeffs, grid), v, tol=tol,
                                               max_iter=max_iter, adjoint=True)
    x = grid.centers
    # extrapolate to x0 through the first two cell centers
    phi0 = vec[0] + (grid.x0 - x[0]) * (vec[1] - vec[0]) / (x[1] - x[0])
    if phi0 <= 0.0:
        raise PositivityViolationError(
            "adjoint weight extrapolates to %.3e at the minimal size" % float(phi0))
    vec = vec / phi0
    return EigenSolution(v=v, lambda_eig=-nu, u_vec=None, phi_vec=vec,
                         residual=r, iterations=it, grid=grid, residual_log=log)


@dataclass(frozen=True)
class ScanResult:
    """Loss rate across a ladder of monomer levels, plus structure verdicts.

    solutions holds the EigenSolution at each level, in ladder order.
    """

    v_values: np.ndarray
    lambda_values: np.ndarray
    decreasing: bool
    lambda0_minus_decay0: Optional[float]
    sign_at_largest: int
    solutions: list = field(repr=False)

    @property
    def growth_rates(self) -> np.ndarray:
        return -self.lambda_values


def scan_lambda(coeffs: CoefficientSet, grid: SizeGrid,
                v_list: Sequence[float], tol: float = DEFAULT_TOL) -> ScanResult:
    """Evaluate the loss rate on a strictly increasing ladder of levels.

    The verdict ``decreasing`` certifies strict decrease with a 1e-10
    tolerance band.  When decay is constant the zero-level loss rate minus
    that constant is reported (it should vanish identically) and the sign
    of the loss rate at the largest level probes eventual decay of the
    scan.  One generator serves the whole ladder.
    """
    v_arr = np.asarray(list(v_list), dtype=float)
    if v_arr.size < 1:
        raise ValueError("empty level list")
    if np.any(np.diff(v_arr) <= 0.0) or v_arr[0] < 0.0:
        raise ValueError("levels must be strictly increasing and nonnegative")
    gen = Generator(coeffs, grid)
    sols = [generator_eigenpair(gen, v, tol=tol) for v in v_arr]
    lams = np.array([sol.lambda_eig for sol in sols])
    decreasing = bool(np.all(np.diff(lams) < 1e-10))
    l0md = None
    if isinstance(coeffs.decay, Constant):
        l0md = float(gen.loss.min()) - coeffs.decay.value
    sign = int(np.sign(lams[-1]))
    return ScanResult(v_values=v_arr, lambda_values=lams, decreasing=decreasing,
                      lambda0_minus_decay0=l0md, sign_at_largest=sign,
                      solutions=sols)


@dataclass(frozen=True)
class HypothesisConstants:
    """Sampled bounds relating conversion speed to the adjoint weight.

    k1 bounds |conv * phi'| / phi, k2 bounds conv/phi from above, k_lower
    from below.  The primary values are taken over the trusted window
    [x0, x0 + 0.8*(xmax - x0)]: the discrete adjoint develops an outflow
    boundary layer near xmax whose spurious gradients would otherwise
    dominate k1.  Full-grid values are reported alongside for honesty.
    k_lower shrinks as xmax grows whenever phi is unbounded, so it always
    depends on the domain and has no clean limit.
    """

    k1: float
    k2: float
    k_lower: float
    k1_full_grid: float
    k2_full_grid: float
    k_lower_full_grid: float
    v: float


def hypothesis_constants(coeffs: CoefficientSet,
                         adjoint: EigenSolution) -> HypothesisConstants:
    """Estimate the comparison constants between conversion and adjoint weight.

    ``adjoint`` is an ``adjoint_eigenpair`` solution; its grid and level
    are the ones used.  Differentiates the weight by centered differences
    and takes sup/inf of the three ratios on the trusted window (see
    HypothesisConstants).
    """
    phi = adjoint.phi_vec
    if phi is None or phi.min() <= 0.0:
        raise PositivityViolationError("adjoint weight must be strictly positive")
    grid = adjoint.grid
    x = grid.centers
    conv, _, _ = eval_coefficients(coeffs, grid)
    dphi = np.gradient(phi, x)  # centered interior, one-sided ends
    ratio1 = np.abs(conv * dphi) / phi
    ratio2 = conv / phi
    win = x <= grid.x0 + 0.8 * (grid.xmax - grid.x0)
    return HypothesisConstants(
        k1=float(ratio1[win].max()), k2=float(ratio2[win].max()),
        k_lower=float(ratio2[win].min()),
        k1_full_grid=float(ratio1.max()), k2_full_grid=float(ratio2.max()),
        k_lower_full_grid=float(ratio2.min()), v=float(adjoint.v))
