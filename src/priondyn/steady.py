"""Coexistence steady state: root finding, profile checks, mode structure."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coefficients import Affine, Constant, CoefficientSet, eval_coefficients
from .eigen import EigenSolution, generator_eigenpair
from .grid import SizeGrid
from .operator import Generator

__all__ = [
    "VInfResult",
    "SteadyState",
    "StationaryCheck",
    "BimodalityReport",
    "find_v_inf",
    "build_steady_state",
    "stationary_profile_check",
    "bimodality_report",
]


@dataclass(frozen=True)
class VInfResult:
    """A found root of the loss rate.

    v_inf is the highest level certified to have a positive loss rate,
    bracket_hi the lowest certified not to, and bracket_hi - v_inf <=
    1e-13 * bracket_hi: the bracket that bisection on the same certified
    signs ends on.  solution is the one eigen solve (evaluations = 1), at
    v_inf; sign_tests counts the levels one shifted solve tested.
    """

    v_inf: float
    bracket_hi: float
    sign_tests: int
    evaluations: int
    solution: EigenSolution = field(repr=False)


def _root_value(widths: np.ndarray, x: Optional[np.ndarray],
                certified: bool) -> Optional[float]:
    """g(v) = 1/<h, x> for x = -L(v)^{-1} 1, or None where its sign
    disagrees with the certificate (or x is None).  Near the root x is
    about the Perron vector over the principal eigenvalue of -L(v), so g
    has a simple zero there and the sign of the loss rate."""
    if x is None:
        return None
    total = float(widths @ x)
    if total == 0.0:
        return None
    g = 1.0 / total
    return g if (g > 0.0 if certified else g < 0.0) else None


def find_v_inf(coeffs: CoefficientSet, grid: SizeGrid) -> VInfResult:
    """Locate the monomer level where the loss rate crosses zero.

    The search reads the generator alone; production and clearance do not
    enter it.  Each level takes one test, not an eigen solve:
    ``Generator.certify`` at shift 0 with b = 1 solves x = -L(v)^{-1} 1
    and certifies x >= 0 exactly when the loss rate at v is positive, up
    to rounding; the level becomes lo, the highest certified level, or
    hi, the lowest failed one, with its g = 1/<h, x> (``_root_value``).

    A geometric ladder brackets the sign change inside [0, v_max]: v_max
    is where v*max(conv/h), the largest transport entry, reaches 1e150 (so
    every band-LU entry stays finite), cut to 1e300 (so the doubling stays
    finite).  It doubles from 1, or from the largest power of two at or
    below v_lb when v_lb < 1.  On the mass weights w = x*h, with r0 =
    L(0)^T w/w and r1 = L(1)^T w/w - r0, the principal eigenvalue of L(v)
    is at most max_j (r0_j + v*r1_j) (Collatz-Wielandt), so no level below
    v_lb = min over r1_j > 0 of -r0_j/r1_j has a zero loss rate (v_lb = 0
    when some r0_j >= 0, where the bound says nothing).  v_lb rules out
    only [0, v_lb): a doubling can still step over a window of growth
    narrower than a factor of two.  The search then holds the node [a, b] of the
    bisection tree on that bracket that bisection would hold.  The node
    descends while its midpoint lies at or below lo or at or above hi,
    where the sign is known.  Otherwise, when lo and hi both carry g and
    hi - lo > 1e-11*hi, it steers: regula falsi on g gives r in (lo, hi),
    the step e = 2|r - r'| from the previous r' ((b - a)/16 at first,
    never below 1e-11*hi) its error, and the search tests the two edges of
    the cell of the tree below [a, b] that holds r and is at most 4e wide.
    Else it tests the node's midpoint.  Every tested level is a point of
    the tree, so with one sign change the search stops on the node
    bisection stops on, the first with b - a <= 1e-13*b, in no more sign
    tests.  Below the 1e-11 floor g's rounding depends on the BLAS kernel,
    so only midpoints are tested there.  The stop is relative to hi, so lo
    ends above 0 even when the root lies below the first ladder level.
    The one eigen solve is at v_inf = lo, started from lo's x, which there
    is the Perron vector to rounding.

    Raises ValueError, starting "no loss-rate root", when the loss rate at
    v = 0, min(decay + splitting) off the diagonal of the triangular L(0),
    is already 0; when no cell converts, so L(v) is L(0) and no level is
    tested; or when the loss rate stays positive up to v_max.
    """
    gen = Generator(coeffs, grid)
    # eval_coefficients rejects negative rates, so f(0) >= 0
    if gen.loss.min() <= 0.0:
        raise ValueError(
            "no loss-rate root above v=0: the loss rate is already 0 at v=0 "
            "(a cell with neither decay nor splitting); cannot build a "
            "steady state")
    speed = float(-gen.t_diag.min())  # max(conv/h)
    if speed == 0.0:
        raise ValueError("no loss-rate root: no cell converts, so the loss "
                         "rate does not depend on v")
    v_max = min(1e150 / speed, 1e300)
    ones = np.ones(grid.n)
    lo, x_lo, g_lo, hi, g_hi, sign_tests = 0.0, None, None, v_max, None, 0

    def test(v: float) -> bool:
        """Certify the sign at v and move lo or hi there, with its g."""
        nonlocal lo, x_lo, g_lo, hi, g_hi, sign_tests
        x, certified = gen.certify(v, 0.0, ones)
        sign_tests += 1
        if certified:
            lo, x_lo, g_lo = v, x, _root_value(grid.widths, x, True)
        else:
            hi, g_hi = v, _root_value(grid.widths, x, False)
        return certified

    w = grid.centers * grid.widths
    r0 = gen.apply_adjoint(0.0, w) / w
    r1 = gen.apply_adjoint(1.0, w) / w - r0
    grows = r1 > 0.0
    v_lb = float(np.min(-r0[grows] / r1[grows], initial=np.inf)) if r0.max() < 0.0 else 0.0
    v = min(math.ldexp(0.5, math.frexp(v_lb)[1]) if 0.0 < v_lb < 1.0 else 1.0, v_max)
    while test(v):
        if v >= v_max:
            raise ValueError("no loss-rate root in (0, %g): the loss rate "
                             "stays positive up to the float-range cap" % v_max)
        v = min(2.0 * v, v_max)
    a, b, r_prev = lo, hi, None
    while b - a > 1e-13 * b:
        mid = 0.5 * (a + b)
        if mid <= lo:
            a = mid
            continue
        if mid >= hi:
            b = mid
            continue
        levels = (mid,)
        if g_lo is not None and g_hi is not None and hi - lo > 1e-11 * hi:
            r = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            e = max((b - a) / 16.0 if r_prev is None else 2.0 * abs(r - r_prev),
                    1e-11 * hi)
            r_prev, c, d = r, a, b
            # at least one level down: a cell below the node lies in one
            # half, and the node's midpoint lies in (lo, hi), so a cell that
            # holds r has an edge in (lo, hi) and the step tests a level
            while True:
                half = 0.5 * (c + d)
                c, d = (c, half) if r <= half else (half, d)
                if d - c <= 4.0 * e:
                    break
            levels = (c, d)
        for v in levels:
            if lo < v < hi:  # else its sign is known
                test(v)
    return VInfResult(v_inf=lo, bracket_hi=hi, sign_tests=sign_tests, evaluations=1,
                      solution=generator_eigenpair(gen, lo, u0=x_lo))


@dataclass
class SteadyState:
    """Coexistence root and, when it exists, the non-trivial steady state.

    u_profile is the unit-count eigenprofile at v_inf; u_inf = rho_inf *
    u_profile is the physical density.  Both rho_inf and u_inf are None
    unless ``exists`` (see ``build_steady_state``).  root is the search
    that found v_inf.
    """

    v_inf: float
    rho_inf: Optional[float]
    u_inf: Optional[np.ndarray]
    exists: bool
    vbar: float
    grid: SizeGrid
    coeffs: CoefficientSet
    u_profile: np.ndarray = field(repr=False)
    root: VInfResult

    def center_of_mass(self) -> float:
        xh = self.grid.centers * self.grid.widths
        return float((xh @ self.u_profile) / (self.grid.widths @ self.u_profile))


def build_steady_state(coeffs: CoefficientSet, grid: SizeGrid) -> SteadyState:
    """Solve for the steady state: root, eigenprofile, count, existence.

    find_v_inf's ValueError passes through when there is no root.  exists
    is production > clearance*v_inf, the count below being positive: at
    positive clearance that is v_inf < vbar, and at zero clearance, where
    vbar is infinite, it is production > 0.  So zero production never
    exists, at any clearance.
    The count rho closes the monomer balance with the weights of the
    root's generator, production = v*clearance + rho*(v*<conv, u> -
    <returned, u>) for u = u_profile; returned is zero when x0 = 0.
    """
    root = find_v_inf(coeffs, grid)
    gen, u, v = root.solution.generator, root.solution.u_vec, root.v_inf
    net_uptake = (float((gen.conversion * u) @ grid.widths)
                  - float(gen.returned @ u) / v)
    exists = coeffs.production > coeffs.clearance * v
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
    the curvature threshold a second interior mode requires, with conv''
    the second difference (c[i+1] - 2c[i] + c[i-1])/h**2 of the
    conversion the root's generator sampled, over the interior cells; it
    is False below three cells (no interior cell), and None when the
    splitting rate is not origin-anchored linear (the class the threshold
    is derived in).
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

    Returns (indices, prominences) by the rule of
    scipy.signal.find_peaks(sm, prominence=...), bit for bit
    (``_prominent_peaks``), so a spike in the first or last cell is never
    a mode.  A maximum is kept when its prominence is at least 1% of the
    smoothed peak value.  A profile always has at least
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
        c = ss.root.solution.generator.conversion
        curv = (c[2:] - 2.0 * c[1:-1] + c[:-2]) / grid.widths[0] ** 2
        cond = curv.size > 0 and bool(
            ss.v_inf * float(curv.min()) < -3.0 * coeffs.fragmentation.slope)

    return BimodalityReport(n_modes=int(idx.size), mode_locations=locations,
                            necessary_condition_met=cond,
                            center_of_mass=ss.center_of_mass(),
                            secondary_mass_fraction=float(frac))
