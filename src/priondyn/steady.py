"""Coexistence steady state: root finding, profile checks, mode structure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coefficients import Affine, Constant, CoefficientSet, eval_coefficients
from .eigen import EigenSolution, generator_eigenpair
from .grid import SizeGrid
from .operator import Generator

__all__ = [
    "RootBracketError",
    "VInfResult",
    "SteadyState",
    "StationaryCheck",
    "BimodalityReport",
    "find_v_inf",
    "build_steady_state",
    "stationary_profile_check",
    "bimodality_report",
]

ROOT_TOL = 1e-8
ROOT_MAX_STEPS = 200


class RootBracketError(RuntimeError):
    """A bracket end's eigen solve contradicts its certified sign."""


@dataclass(frozen=True)
class VInfResult:
    """Outcome of the loss-rate root search.

    When found is False, (bracket_lo, bracket_hi) is the scanned range that
    produced no sign change; (0, 0) when the loss rate is already 0 at
    v = 0.  monotone_warning is set if the loss rates at 0 and at the two
    bracket ends failed to decrease, or if the bracket search stopped on
    its step cap before meeting either stop rule; the root is still
    returned (the sign change is what the bracket search needs), and
    lambda_at_root says how far it is from zero.  solution is the
    eigenpair at v_inf when found.  evaluations counts loss-rate
    evaluations (eigen solves, v = 0 included) and iterations the inverse
    iterations they took in total; sign_tests counts the ladder levels
    whose sign was certified by one shifted solve instead.
    """

    found: bool
    v_inf: Optional[float]
    lambda_at_root: Optional[float]
    bracket_lo: float
    bracket_hi: float
    evaluations: int
    iterations: int
    sign_tests: int
    monotone_warning: Optional[str] = None
    solution: Optional[EigenSolution] = field(default=None, repr=False)


def _positive_loss_certificate(gen: Generator, v: float) -> Optional[np.ndarray]:
    """x = -L(v)^{-1} 1 when it is entrywise positive, else None.

    A returned x certifies a positive loss rate at v, and None (a singular
    factorisation or an entry <= 0) a loss rate <= 0, up to rounding; the
    proof is in ``find_v_inf``.
    """
    try:
        x = gen.solve_shifted(v, 0.0, np.ones(gen.grid.n))
    except np.linalg.LinAlgError:
        return None
    return x if x.min() > 0.0 else None


def find_v_inf(coeffs: CoefficientSet, grid: SizeGrid) -> VInfResult:
    """Locate the monomer level where the loss rate crosses zero.

    A geometric ladder (doubling from 1) brackets the sign change inside
    [0, v_max].  Each ladder level takes one shifted solve, not an eigen
    solve: x = -L(v)^{-1} 1 (``_positive_loss_certificate``) fixes the sign
    of the loss rate.  If x > 0 then L(v)x = -1 < 0, so by Collatz-Wielandt
    nu(v) <= -1/max x < 0; if nu(v) < 0 then -L(v) is a nonsingular
    M-matrix and x >= 1/max(-diag L(v)) > 0.  So the levels between 0 and
    lo carry a certified sign, not a value.  Only the bracket ends get
    eigen solves, lo warm-started from its x and hi from lo's profile.  An
    end whose loss rate contradicts its sign is taken as the root when
    |loss rate| <= ROOT_TOL and raises RootBracketError otherwise: a
    bracket with wrong signs is never searched.  A loss rate of 0 at v = 0
    (a cell with neither decay nor splitting) leaves no positive root.

    An Illinois bracket search (regula falsi that halves the stored value
    at an end kept twice in a row) then drives |loss rate| below ROOT_TOL.
    Of bisection's guarantees it keeps the invariant f(lo) > 0 >= f(hi) at
    every step (a secant point outside the open bracket is replaced by
    the midpoint), the stop rules |f| <= ROOT_TOL and bracket width <=
    1e-13*max(1, hi), and the cap of ROOT_MAX_STEPS steps.  So it needs
    only the sign change, never the slope: the decrease of the loss rate
    is a conclusion the scan certifies, not an assumption the root finder
    leans on.  It does not keep bisection's halving of the bracket at
    every step, which always met the width stop in about 45 steps; here
    no step has a width bound and only the cap guarantees the end, so
    ending on the cap sets monotone_warning.  Each of its eigen solves
    starts from the profile of the previous evaluation, a nearby level on
    the same generator.  The monotone check reads the levels that carry a
    loss rate from before the search, 0, lo and hi; the search's own
    levels lie within the solve tolerance of each other.  v_max is ten
    times the uninfected level production/clearance.
    """
    v_max = 10.0 * coeffs.vbar if coeffs.clearance > 0.0 else 6000.0
    gen = Generator(coeffs, grid)
    evals: list = []
    sign_tests = 0

    def lam(v: float, warm: Optional[np.ndarray] = None) -> float:
        if warm is None and evals:
            warm = evals[-1].u_vec
        evals.append(generator_eigenpair(gen, v, u0=warm))
        return evals[-1].lambda_eig

    def result(**kw) -> VInfResult:
        return VInfResult(evaluations=len(evals),
                          iterations=sum(e.iterations for e in evals),
                          sign_tests=sign_tests, **kw)

    def certified(v: float, f: float, positive: bool) -> None:
        if (f > 0.0) != positive and abs(f) > ROOT_TOL:
            raise RootBracketError(
                "loss rate %.6g at level v=%g contradicts its certified sign "
                "(%s)" % (f, v, "positive" if positive else "nonpositive"))

    # f(0) = min(decay + splitting) >= 0: eval_coefficients rejects negative
    # rates, and splitting is off in the smallest cell
    f_zero = lam(0.0)
    if f_zero <= 0.0:
        return result(found=False, v_inf=None, lambda_at_root=None,
                      bracket_lo=0.0, bracket_hi=0.0)
    lo, x_lo = 0.0, None
    hi = min(1.0, v_max)
    while True:
        x = _positive_loss_certificate(gen, hi)
        sign_tests += 1
        if x is None:
            break
        lo, x_lo = hi, x
        if hi >= v_max:
            return result(found=False, v_inf=None, lambda_at_root=None,
                          bracket_lo=0.0, bracket_hi=v_max)
        hi = min(2.0 * hi, v_max)

    f_lo = f_zero if lo == 0.0 else lam(lo, x_lo)
    certified(lo, f_lo, True)
    rates = [f_zero] if lo == 0.0 else [f_zero, f_lo]
    # mid is where the search stands: lo itself when its loss rate is
    # within ROOT_TOL of zero, else hi, whose level may already be the root
    mid, f_mid = lo, f_lo
    if f_lo > 0.0:
        f_hi = lam(hi)
        certified(hi, f_hi, False)
        rates.append(f_hi)
        mid, f_mid = hi, f_hi
    warning = None
    if np.any(np.diff(rates) >= 0.0):
        warning = ("loss rate not strictly decreasing over the levels 0, lo "
                   "and hi; root is still bracketed")

    # Illinois steps until the loss rate itself is small; f_lo and f_hi
    # keep their signs but may be halved, so they only weight the secant point
    side = 0
    steps = ROOT_MAX_STEPS if abs(f_mid) > ROOT_TOL else 0
    for _ in range(steps):
        mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        f_mid = lam(mid)
        if abs(f_mid) <= ROOT_TOL:
            break
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
            if side > 0:
                f_hi *= 0.5
            side = 1
        else:
            hi, f_hi = mid, f_mid
            if side < 0:
                f_lo *= 0.5
            side = -1
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    else:
        if steps:
            note = ("bracket search stopped after %d steps with |loss rate| "
                    "%.3g > %g" % (steps, abs(f_mid), ROOT_TOL))
            warning = note if warning is None else warning + "; " + note
    return result(found=True, v_inf=float(mid), lambda_at_root=float(f_mid),
                  bracket_lo=float(lo), bracket_hi=float(hi),
                  monotone_warning=warning, solution=evals[-1])


@dataclass
class SteadyState:
    """Non-trivial steady state of the coupled system, when it exists.

    u_profile is the unit-count eigenprofile at v_inf; u_inf = rho_inf *
    u_profile is the physical density, present only when the existence
    constraint v_inf < vbar holds (otherwise the count formula would be
    nonpositive and rho_inf/u_inf stay None).
    """

    v_inf: float
    rho_inf: Optional[float]
    u_inf: Optional[np.ndarray]
    exists: bool
    vbar: float
    grid: SizeGrid
    coeffs: CoefficientSet
    u_profile: np.ndarray = field(repr=False)
    root: Optional[VInfResult] = None

    def center_of_mass(self) -> float:
        xh = self.grid.centers * self.grid.widths
        return float((xh @ self.u_profile) / (self.grid.widths @ self.u_profile))


def build_steady_state(coeffs: CoefficientSet, grid: SizeGrid) -> SteadyState:
    """Solve for the steady state: root, eigenprofile, count, existence.

    The count rho closes the monomer balance with the weights of the root's
    generator, production = v*clearance + rho*(v*<conv, u> - <returned, u>)
    for u = u_profile; returned is zero when x0 = 0.
    """
    root = find_v_inf(coeffs, grid)
    if not root.found and root.bracket_hi == 0.0:
        raise ValueError(
            "no loss-rate root above v=0: the loss rate is already 0 at v=0 "
            "(a cell with neither decay nor splitting); cannot build a "
            "steady state")
    if not root.found:
        raise ValueError(
            "no loss-rate root in (0, %g); cannot build a steady state"
            % root.bracket_hi)
    gen, u, v = root.solution.generator, root.solution.u_vec, root.v_inf
    net_uptake = (float((gen.conversion * u) @ grid.widths)
                  - float(gen.returned @ u) / v)
    exists = v < coeffs.vbar
    rho = u_inf = None
    if exists:
        rho = (coeffs.production / v - coeffs.clearance) / net_uptake
        u_inf = rho * u
    return SteadyState(v_inf=v, rho_inf=rho, u_inf=u_inf,
                       exists=exists, vbar=coeffs.vbar, grid=grid, coeffs=coeffs,
                       u_profile=u, root=root)


@dataclass(frozen=True)
class StationaryCheck:
    """Residuals of the stationary second-order form and its boundary flux.

    The inflow boundary value is not reported: the scheme imposes zero.
    """

    ode_residual_norm: float
    flux_residual: float


def stationary_ode_residual(x: np.ndarray, u: np.ndarray, v_inf: float,
                            conv: np.ndarray, decay0: float,
                            frag_slope: float) -> np.ndarray:
    """Pointwise residual of the differentiated stationary equation.

    v_inf*(conv*u)'' + ((decay0 + frag_slope*x)*u)' + 2*frag_slope*u,
    centered differences, endpoints excluded by the caller.
    """
    cu = conv * u
    d2 = np.zeros_like(u)
    d2[1:-1] = (cu[2:] - 2.0 * cu[1:-1] + cu[:-2]) / (x[2] - x[1]) ** 2
    g = (decay0 + frag_slope * x) * u
    d1 = np.gradient(g, x)
    return v_inf * d2 + d1 + 2.0 * frag_slope * u


def stationary_profile_check(ss: SteadyState) -> StationaryCheck:
    """Verify the computed profile against the stationary second-order form.

    Only valid for constant decay with origin-anchored linear splitting
    (the class the second-order form is derived in); other configurations
    raise.  Residual norm is a mass-weighted l1 average over interior
    cells, normalized by the profile scale; the flux residual compares the
    left-edge conversion-flux slope against twice the splitting slope
    times the total count (relative).
    """
    if not ss.exists:
        raise ValueError("steady state does not exist; nothing to check")
    if not (isinstance(ss.coeffs.decay, Constant)
            and isinstance(ss.coeffs.fragmentation, Affine)
            and ss.coeffs.fragmentation.intercept == 0.0):
        raise ValueError("stationary-form check requires constant decay and "
                         "origin-anchored linear splitting with the uniform rule")
    grid = ss.grid
    x, h = grid.centers, grid.widths
    u = ss.u_profile
    conv, _, _ = eval_coefficients(ss.coeffs, grid)
    decay0 = ss.coeffs.decay.value
    slope = ss.coeffs.fragmentation.slope
    res = stationary_ode_residual(x, u, ss.v_inf, conv, decay0, slope)
    interior = slice(1, -1)
    norm = float(np.abs(res[interior] * h[interior]).sum()) / (
        2.0 * slope * float(np.abs(u * h).sum()) + 1e-300)

    count = float(u @ h)
    # left-edge slope of the conversion flux, through the imposed zero at
    # x0; under upwinding the first cell value samples the right face,
    # so the lever arm is the full cell width, not the half-width
    left_slope = conv[0] * u[0] / (x[0] + 0.5 * h[0] - grid.x0)
    flux_resid = abs(ss.v_inf * left_slope - 2.0 * slope * count) / (2.0 * slope * count)
    return StationaryCheck(ode_residual_norm=norm, flux_residual=float(flux_resid))


@dataclass(frozen=True)
class BimodalityReport:
    """Mode structure of the stationary profile.

    necessary_condition_met evaluates v_inf * min(conv'') < -3*frag_slope,
    the curvature threshold a second interior mode requires; it is None
    when the splitting rate is not origin-anchored linear (the class the
    threshold is derived in).
    """

    n_modes: int
    mode_locations: np.ndarray
    necessary_condition_met: Optional[bool]
    center_of_mass: float
    secondary_mass_fraction: float


def _prominent_peaks(x: np.ndarray, min_prominence: float):
    """Local maxima of x whose topographic prominence is >= min_prominence.

    Returns (indices, prominences).  A run of equal values is a maximum
    when the runs on both sides are strictly lower; it sits at
    (left + right) // 2, and a run touching either end is never one.
    Each side is walked out up to the first value strictly above the peak
    (or the end of x); the prominence is the peak minus the larger of the
    two minima met on the way.
    """
    edges = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1, [x.size]))
    lo, hi = edges[:-1], edges[1:] - 1
    vals = x[lo]
    runs = np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])) + 1
    peaks = (lo[runs] + hi[runs]) // 2
    prom = np.empty(peaks.size)
    for k, p in enumerate(peaks):
        higher = np.flatnonzero(x > x[p])
        a = higher[higher < p]
        b = higher[higher > p]
        left = x[(a[-1] + 1 if a.size else 0):p + 1].min()
        right = x[p:(b[0] if b.size else x.size)].min()
        prom[k] = x[p] - max(left, right)
    keep = prom >= min_prominence
    return peaks[keep], prom[keep]


def detect_modes(u: np.ndarray):
    """Interior maxima of a profile after 3-point smoothing.

    Returns (indices, prominences).  The maxima and their prominences
    follow the rule of scipy.signal.find_peaks(sm, prominence=...), bit
    for bit: a plateau counts once, at its left-middle cell, and not at
    all if it touches either end, so a spike in the first or last cell is
    never a mode; the prominence is the peak minus the higher of the
    lowest values on its two sides, each side walked out to the first
    strictly higher value.  A maximum is kept when its prominence is at
    least 1% of the smoothed peak value.  A profile always has at least
    one mode: when no interior maximum survives, the global maximum of u
    is returned, with prominence u.max().
    """
    sm = u.astype(float).copy()
    sm[1:-1] = (u[:-2] + u[1:-1] + u[2:]) / 3.0
    idx, prom = _prominent_peaks(sm, 0.01 * float(sm.max()))
    if not idx.size:
        return np.array([int(np.argmax(u))]), np.array([float(u.max())])
    return idx, prom


def bimodality_report(ss: SteadyState) -> BimodalityReport:
    """Count and locate the modes of the stationary profile."""
    coeffs = ss.coeffs
    grid = ss.grid
    u = ss.u_profile
    idx, _ = detect_modes(u)
    locations = grid.centers[idx]

    frac = 0.0
    if idx.size >= 2:
        i1, i2 = int(idx[0]), int(idx[-1])
        valley = i1 + int(np.argmin(u[i1:i2 + 1]))
        mh = u * grid.widths
        left = float(mh[:valley].sum())
        right = float(mh[valley:].sum())
        frac = min(left, right) / (left + right)

    cond = None
    if (isinstance(coeffs.fragmentation, Affine)
            and coeffs.fragmentation.intercept == 0.0):
        curv = coeffs.conversion.curvature(grid.centers)
        cond = bool(ss.v_inf * float(curv.min()) < -3.0 * coeffs.fragmentation.slope)

    return BimodalityReport(n_modes=int(idx.size), mode_locations=locations,
                            necessary_condition_met=cond,
                            center_of_mass=ss.center_of_mass(),
                            secondary_mass_fraction=float(frac))
