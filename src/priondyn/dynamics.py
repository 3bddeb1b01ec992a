"""Time integration of the coupled monomer/polymer system and the
experiments built on it: growth-rate fits, incubation times, stability
runs.

The stepper takes the polymer stages of SSPRK(4,2), the four-stage
second-order strong-stability-preserving Runge-Kutta method, and the
monomer stages of a stiffly accurate ESDIRK; ``integrate`` states the
step rule and the books, and ``Trajectory`` what a run records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .eigen import (HypothesisConstants, adjoint_eigenpair, hypothesis_constants,
                    loss_rate_at_vbar)
from .grid import PolymerState, SizeGrid
from .operator import Generator
from .reference import initial_seed_profile

__all__ = [
    "Trajectory",
    "GrowthFit",
    "IncubationResult",
    "StabilityResult",
    "IntegratorFailure",
    "seed_state",
    "integrate",
    "line_fit",
    "growth_rate",
    "incubation_time",
    "stability_experiment",
]

# The monomer stages: a stiffly accurate ESDIRK (Kennedy & Carpenter,
# NASA/TM-2016-219173) with the weights b = (1/4, 1/4, 1/4, 1/4) and the
# stage times (0, 1/3, 2/3, 1) of SSPRK(4,2).  Stage k weighs the slopes of
# stages 0..k all alike, by the k-th entry here (times dt), so each stage
# time is k + 1 times its weight; the first stage, of weight 0, is V itself.
# Every stage is second order, so the pair stays second order in V however
# stiff the monomer is; on the negative real axis |R| <= 1 and R(inf) = 0.
_MONOMER_WEIGHTS = (0.0, 1 / 6, 2 / 9, 1 / 4)


class IntegratorFailure(RuntimeError):
    """Integration aborted; carries the last valid state and time."""

    def __init__(self, message: str, state: PolymerState):
        super().__init__(message)
        self.state = state


@dataclass
class Trajectory:
    """Recorded history of one integration.

    One row per accepted step after the initial row, so times has steps +
    1 entries.  rho_series is the polymer count U(t) = integral of u;
    p_series the polymerized mass.  conservation_residuals holds the
    relative book residual of each accepted step (length = steps).

    steps_by_limit counts accepted steps by the bound that set them
    ("polymer" for the largest loss rate of a cell stepped explicitly,
    "dt_max", or "event" for a step landing on a snapshot or t_end; a
    retried step counts under the bound it halved) and sums to steps.
    rhs_evaluations counts right-hand-side evaluations: four per accepted
    step plus those a rejected step made up to its negative stage or level.
    partitioned_steps counts the accepted steps that took stiff cells
    implicitly, and max_partition_cells is the most cells one step took
    implicitly, over all of its runs (``integrate`` states the rule).
    """

    times: np.ndarray
    v_series: np.ndarray
    rho_series: np.ndarray
    p_series: np.ndarray
    snapshots: list
    conservation_residuals: np.ndarray
    truncation_flux_total: float
    grid: SizeGrid
    coeffs: CoefficientSet
    final_state: PolymerState
    steps: int
    rejections: int
    steps_by_limit: dict = field(default_factory=dict)
    rhs_evaluations: int = 0
    partitioned_steps: int = 0
    max_partition_cells: int = 0

    @property
    def max_residual(self) -> float:
        """Largest per-step conservation residual (0 with no steps)."""
        res = self.conservation_residuals
        return float(res.max()) if res.size else 0.0


def seed_state(coeffs: CoefficientSet, grid: SizeGrid, scale: float = 1.0,
               v_init: Optional[float] = None) -> PolymerState:
    """Standard initial condition: scaled seeding profile, monomer at the
    uninfected level production/clearance unless overridden."""
    if v_init is None:
        if coeffs.clearance == 0.0:
            raise ValueError("v_init required when clearance is zero")
        v_init = coeffs.vbar
    u0 = scale * initial_seed_profile(grid.centers)
    return PolymerState(v=float(v_init), u=u0, grid=grid)


def integrate(coeffs: CoefficientSet, grid: SizeGrid, initial: PolymerState,
              t_end: float, snapshot_times: Sequence[float] = (),
              dt_max: Optional[float] = None) -> Trajectory:
    """Advance the coupled system from ``initial`` to absolute time t_end,
    recording the scalars of the initial state and of every accepted step.

    Steps land exactly on requested snapshot instants and on t_end; each
    instant in [initial.t, t_end] gives one snapshot, taken without a
    step when it lies within the smallest step of the current time.

    The explicit step.  Let r = -diag L(V), the loss rates at the step's
    starting V, and r_max the largest.  The step is dt = 3/r_max, capped
    by dt_max when given: a stage of dt/3 then keeps every polymer entry
    nonnegative at the starting V; the monomer sets no step.  Stage k
    takes a forward-Euler stage of dt/3 (SSPRK(4,2), ``Generator.stage``)
    at the monomer level W_k of the ESDIRK stages of _MONOMER_WEIGHTS: with
    c_k = w_k*dt, S the sum of the monomer slopes of the stages before k
    and base = V + c_k*(S + production + returned_k), W_k = base/(1 +
    c_k*(clearance + uptake_k)) solves W_k = V + c_k*(S + slope_k(W_k))
    exactly, at the uptake of the stage's input (W_0 = V, as c_0 = 0).

    The partitioned step, for the stiff cells under a conversion bump.
    The last cell is always explicit, as its outflow leaves the grid, so
    no step is longer than 3/r_{n-1}; the implicit cells are then exactly
    the cells i < n-1 with r_i > r_{n-1}, in maximal runs wherever they
    sit.  With r_out the larger of r_{n-1} and the largest loss rate
    (decay plus splitting) of those cells, a step with 4*r_out <= r_max
    is bounded by 3/r_out, under the same caps, and one that, after
    dt_max, events and halving, still exceeds 3/r_max is partitioned:
    each stage transports the runs' cells implicitly at W_k, in the flux
    form ``Generator.stage`` states.  Every other step is the explicit
    step above.

    Every stage then takes one monomer level, W'_k = (base -
    c_k*W_k*uptake'_k)/(1 + c_k*clearance), where uptake'_k is uptake_k
    with the runs' cells at their new values: the monomer takes up what the
    transport moved, and W'_k = W_k up to rounding on an explicit stage.
    The stage's monomer slope is production + returned_k - clearance*W'_k -
    W_k*uptake'_k, and the step ends at V+ = W'_3.  A negative entry (the
    rates moved within the step), a negative W'_k or, on a partitioned
    step, a negative W_k rejects the step, which is retried at half the
    length; halved to at most 3/r_max, it is taken explicitly.

    The partitioned step is first order in the implicit cells.  Each stage's
    implicit transport sits at its own output, at 1/3, 2/3, 1 and 4/3 of
    dt, so with the weights 1/4 the order condition b.c = 1/2 reads 5/6.
    No stage design mends that at this step length: a linear method that
    stays positive at every step length is at most first order (Bolley and
    Crouzeix, RAIRO Anal. Numer. 12, 1978).  Richardson extrapolation would
    restore second order at three times the cost of each partitioned step,
    and would need a fallback of its own where it goes negative.  On fig5
    the first-order time error in t_inc lies below the grid error up to
    n = 1600 and about equals it, 1e-4 relative, at n = 3200.

    The books are stage-consistent: each step's residual compares the
    realized change of (monomer + polymer mass) against the mean of the
    four stage sources, so it sits at rounding level and any real leak
    would show immediately.
    """
    if t_end <= initial.t:
        raise ValueError("t_end=%g is not beyond the initial time %g" % (t_end, initial.t))
    if initial.grid is not grid and (initial.grid.n != grid.n
                                     or initial.grid.xmax != grid.xmax
                                     or initial.grid.x0 != grid.x0):
        raise ValueError("initial state lives on a different grid")
    x, h = grid.centers, grid.widths
    gen = Generator(coeffs, grid)
    lam, gam = coeffs.production, coeffs.clearance

    # one product per state gives its count, mass and decay sink (for the
    # books) and the monomer it takes up and gives back (for dV/dt)
    moments = np.stack((h, x * h, gen.decay * x * h, gen.uptake, gen.returned))
    fluxw = float((x[-1] + h[-1]) * gen.conversion[-1])

    snap_set = set(float(s) for s in snapshot_times if initial.t <= s <= t_end)
    events = sorted(snap_set | {float(t_end)})
    snapshots: list = []

    u = initial.u.astype(float).copy()
    V = float(initial.v)
    t = initial.t

    # moments of u, carried over from the last stage of each accepted step
    rho_u, p_u, mu_u, take_u, back_u = (moments @ u).tolist()
    rows = ([t], [V], [rho_u], [p_u])  # time, monomer, count, mass
    residuals: list = []
    flux_total = 0.0
    steps = 0
    rejections = 0
    rhs_evaluations = 0
    steps_by_limit = dict.fromkeys(("polymer", "dt_max", "event"), 0)
    partitioned_steps = max_partition_cells = 0
    shrink = 1.0
    ev_i = 0
    dt_min = 1e-14 * max(1.0, t_end - initial.t)

    while True:
        # an event within the smallest step of t is taken there, without a step
        while ev_i < len(events) and events[ev_i] - t <= dt_min:
            if events[ev_i] in snap_set:
                snapshots.append((events[ev_i], u.copy()))
            ev_i += 1
        if ev_i == len(events):
            break
        next_event = events[ev_i]
        gap = next_event - t
        diag = gen.diagonal(V)
        rate = -float(diag.min())
        dt_explicit = 3.0 / rate if rate > 0.0 else math.inf
        found = runs = None
        if rate > 0.0 and (dt_max is None or dt_max > dt_explicit):
            found = _stiff_runs(-diag, rate, gen.loss)
        bound = dt_explicit if found is None else 3.0 / found[1]
        dt, limit, hit_event = _step_length(bound, dt_max, shrink, gap, dt_min)
        if found is not None and dt > dt_explicit:  # else the step is explicit
            runs = found[0]
        if dt < dt_min:
            raise IntegratorFailure(
                "step size underflow at t=%g (shrink=%g)" % (t, shrink),
                state=PolymerState(v=V, u=u.copy(), grid=grid, t=t))

        # SSPRK(4,2) in Shu-Osher form for the polymers: three forward-Euler
        # stages of tau = dt/3, then u/4 + 3/4 of a fourth Euler stage from
        # the third.  The step equals (u, V) + dt/4 times the sum of the
        # four stage slopes, so the books take the mean of the stage sources
        tau = dt / 3.0
        w, mu_w, take_w, back_w = u, mu_u, take_u, back_u
        slope_sum = src = out = 0.0
        for stage, weight in enumerate(_MONOMER_WEIGHTS):
            # W solves W = V + c*(slope_sum + slope(W)) exactly, with the
            # uptake of the stage's input
            c = weight * dt
            base = V + c * (slope_sum + lam + back_w)
            W = base / (1.0 + c * (gam + take_w))
            if runs is not None and W < 0.0:
                negative = True
                break
            # a fresh array, so u/4 + 3/4*w below may work in place
            w_next = gen.stage(W, tau, w, runs)
            # the uptake the stage transported at level W, and the level
            # that takes it up
            take = take_w
            for lo, hi in runs or ():
                take += float(gen.uptake[lo:hi + 1] @ (w_next[lo:hi + 1] - w[lo:hi + 1]))
            level = (base - c * W * take) / (1.0 + c * gam)
            slope_sum += lam - gam * level - W * take + back_w
            rhs_evaluations += 1
            out_w = W * fluxw * w[-1]
            src += lam - gam * level - mu_w - out_w
            out += out_w
            w = w_next
            if stage == 3:
                w *= 0.75
                w += 0.25 * u
            negative = w.min() < 0.0 or level < 0.0
            if negative:
                break
            rho_w, p_w, mu_w, take_w, back_w = (moments @ w).tolist()
        if negative:
            # retry this step at half the length; the next step starts
            # from its own bound again
            shrink *= 0.5
            rejections += 1
            continue
        shrink = 1.0
        # no entry of w is negative and the mass weights are positive, so
        # its mass is finite iff every entry is (short of the sum overflowing)
        if not (math.isfinite(level) and math.isfinite(p_w)):
            raise IntegratorFailure(
                "non-finite state at t=%g" % t,
                state=PolymerState(v=V, u=u.copy(), grid=grid, t=t))

        # books: realized d(V+P)/dt against the mean of the stage sources
        dvp = (level + p_w - V - p_u) / dt
        residuals.append(abs(dvp - 0.25 * src) / (rho_u + V))
        flux_total += 0.25 * dt * out

        u, V = w, level
        rho_u, p_u, mu_u, take_u, back_u = rho_w, p_w, mu_w, take_w, back_w
        t = next_event if hit_event else t + dt
        steps += 1
        steps_by_limit["event" if hit_event else limit] += 1
        if runs is not None:
            partitioned_steps += 1
            max_partition_cells = max(max_partition_cells,
                                      sum(hi - lo + 1 for lo, hi in runs))
        for series, value in zip(rows, (t, V, rho_u, p_u)):
            series.append(value)

    final = PolymerState(v=V, u=u.copy(), grid=grid, t=t)
    return Trajectory(*map(np.asarray, rows), snapshots=snapshots,
                      conservation_residuals=np.asarray(residuals),
                      truncation_flux_total=float(flux_total), grid=grid,
                      coeffs=coeffs, final_state=final, steps=steps,
                      rejections=rejections, steps_by_limit=steps_by_limit,
                      rhs_evaluations=rhs_evaluations,
                      partitioned_steps=partitioned_steps,
                      max_partition_cells=max_partition_cells)


def _step_length(bound: float, dt_max: Optional[float], shrink: float, gap: float,
                 dt_min: float) -> tuple:
    """(dt, limit, hit_event) of a step at ``bound``, capped by dt_max,
    scaled by shrink, with the next event ``gap`` ahead.

    A full step that would stop short of the event by a sliver takes the
    event instead.  The sliver covers the rounding accumulated in t (up to
    one part in a million of the step, which leaves the step bounds
    intact) and anything below the smallest allowed step: a sliver step
    would divide rounding by a tiny dt in the books.
    """
    limit = "polymer"
    if dt_max is not None and dt_max < bound:
        bound, limit = dt_max, "dt_max"
    dt_try = bound * shrink
    hit_event = gap <= (1.0 + 1e-6) * dt_try + dt_min
    return (gap if hit_event else dt_try), limit, hit_event


def _stiff_runs(rates: np.ndarray, rate: float, loss: np.ndarray) -> Optional[tuple]:
    """(runs, r_out) of a partitioned step, runs the maximal (lo, hi) runs
    of its implicit cells, or None; the rule is ``integrate``'s."""
    last = float(rates[-1])
    if 4.0 * last > rate:
        return None
    stiff = np.flatnonzero(rates[:-1] > last)
    r_out = max(last, float(loss[stiff].max()))
    if 4.0 * r_out > rate:
        return None
    runs = []
    for i in stiff.tolist():
        if runs and runs[-1][1] == i - 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    return runs, r_out


def line_fit(x, y) -> tuple:
    """Least-squares line y ~ slope*x + intercept, as (slope, intercept).

    The centred two-pass formula; it needs no LAPACK.  Raises ValueError
    on fewer than two points or x values with no spread.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or x.size != y.size:
        raise ValueError("line fit needs at least two (x, y) pairs; got %d x "
                         "and %d y values" % (x.size, y.size))
    x_mean = x.mean()
    dx = x - x_mean
    sxx = float(dx @ dx)
    if not sxx > 0.0:
        raise ValueError("line fit needs x values with spread; all %d equal %g"
                         % (x.size, x_mean))
    y_mean = y.mean()
    slope = float(dx @ (y - y_mean)) / sxx
    return slope, float(y_mean - slope * x_mean)


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares exponential rate of the polymer count over a window."""

    rate: float
    r_squared: float
    v_drift: float
    window: tuple
    n_points: int


def growth_rate(traj: Trajectory, window: tuple) -> GrowthFit:
    """Fit log count against time on [window[0], window[1]].

    v_drift reports max|V - vbar|/vbar over the window; the fitted rate
    only approximates the frozen-level eigenvalue while that drift is
    small.
    """
    t0, t1 = float(window[0]), float(window[1])
    if t0 >= t1:
        raise ValueError("empty window")
    m = (traj.times >= t0) & (traj.times <= t1)
    if int(m.sum()) < 3:
        raise ValueError("window [%g, %g] contains %d samples; need at least 3"
                         % (t0, t1, int(m.sum())))
    rho = traj.rho_series[m]
    if rho.min() <= 0.0:
        raise ValueError("polymer count is nonpositive inside the fit window")
    tt = traj.times[m]
    slope, intercept = line_fit(tt, np.log(rho))
    pred = slope * tt + intercept
    ssr = float(((np.log(rho) - pred) ** 2).sum())
    sst = float(((np.log(rho) - np.log(rho).mean()) ** 2).sum())
    r2 = 1.0 - ssr / sst if sst > 0.0 else 1.0
    if traj.coeffs.clearance > 0.0:
        vbar = traj.coeffs.vbar
        drift = float(np.abs(traj.v_series[m] - vbar).max() / vbar)
    else:
        drift = float("nan")
    return GrowthFit(rate=float(slope), r_squared=r2, v_drift=drift,
                     window=(t0, t1), n_points=int(m.sum()))


@dataclass(frozen=True)
class IncubationResult:
    """Threshold-crossing time of the polymer count: None when the
    trajectory never reaches the threshold."""

    t_incubation: Optional[float]
    threshold: float
    measured_growth_rate: Optional[float]


def incubation_time(traj: Trajectory, threshold: float,
                    inoculation: float) -> IncubationResult:
    """First crossing of the count threshold, interpolated in log count
    between the steps around it; the measured growth rate fits every
    step in [0.2, 0.8] of the crossing time."""
    if not (threshold > inoculation > 0.0):
        raise ValueError("need threshold > inoculation > 0")
    rho, t = traj.rho_series, traj.times
    above = np.flatnonzero(rho >= threshold)
    if above.size == 0:
        return IncubationResult(None, threshold, None)
    i = int(above[0])
    if i == 0:
        t_cross = float(t[0])
    else:
        # a count that is 0 stays 0, so rho[i - 1] > 0 here
        frac = (math.log(threshold / rho[i - 1])
                / math.log(rho[i] / rho[i - 1]))
        t_cross = float(t[i - 1] + frac * (t[i] - t[i - 1]))
    try:
        measured = growth_rate(traj, (0.2 * t_cross, 0.8 * t_cross)).rate
    except ValueError:  # empty window, fewer than 3 rows or a zero count
        measured = None
    return IncubationResult(t_cross, threshold, measured)


# --- stability experiment --------------------------------------------------

@dataclass
class StabilityResult:
    """Outcome of a perturbation run around the uninfected state.

    verdict: "stable" (weighted norm decayed exponentially), "unstable"
    (projection escaped the 10-epsilon ball), or "inconclusive".  regime is
    "damping" when loss_rate_at_vbar (``eigen.loss_rate_at_vbar``) is
    positive, else "amplifying".  In the damping regime the comparator
    min(loss_rate_at_vbar/2, clearance) is the decay rate the duality
    argument gives the functional; it is None otherwise.  norm_values
    holds the functional at the sampled instants, constants the
    comparison constants of the adjoint weight, alpha_weight the weight
    of its polymer part.
    """

    verdict: str
    regime: str
    fitted_rate: Optional[float]
    comparator: Optional[float]
    alpha_weight: float
    loss_rate_at_vbar: float
    vbar: float
    constants: HypothesisConstants
    norm_values: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def stability_experiment(coeffs: CoefficientSet, grid: SizeGrid, epsilon: float,
                         t_end: Optional[float] = None) -> StabilityResult:
    """Perturb the uninfected state by epsilon times the seeding profile
    and classify the response.

    The decay functional is alpha*<u, phi> + |V - vbar| with phi the
    adjoint weight at vbar and alpha = 2*K2*vbar/loss_rate(vbar) in the
    damping regime (the weighting that makes the functional contract),
    sampled at 40 evenly spaced instants, each the end of an accepted step
    and so a row of the trajectory; escape is declared when the functional
    exceeds ten times its initial value.
    """
    if coeffs.clearance <= 0.0:
        raise ValueError("stability experiment needs a positive clearance")
    vbar = coeffs.vbar
    lam_vbar = loss_rate_at_vbar(coeffs, grid)
    adj = adjoint_eigenpair(coeffs, grid, vbar)
    consts = hypothesis_constants(adj)
    phi = adj.phi_vec
    regime = "damping" if lam_vbar > 0.0 else "amplifying"
    comparator = min(lam_vbar / 2.0, coeffs.clearance) if lam_vbar > 0.0 else None
    alpha = 2.0 * consts.k2 * vbar / lam_vbar if lam_vbar > 0.0 else 1.0

    if t_end is None:
        t_end = 600.0 if lam_vbar > 0.0 else 150.0
    sample_times = np.linspace(0.0, t_end, 41)[1:]

    initial = seed_state(coeffs, grid, scale=epsilon, v_init=vbar)
    phih = phi * grid.widths

    def norm_of(uu, VV):
        return alpha * float(uu @ phih) + abs(VV - vbar)

    norm0 = norm_of(initial.u, initial.v)
    traj = integrate(coeffs, grid, initial, t_end, snapshot_times=sample_times)
    times = np.array([t for t, _ in traj.snapshots])
    # each snapshot instant ends a step, so this reads V off that step's row
    v_at = np.interp(times, traj.times, traj.v_series)
    norms = np.array([norm_of(uu, vv) for (_, uu), vv in zip(traj.snapshots, v_at)])
    diagnostics = {"norm0": norm0, "steps": traj.steps,
                   "max_conservation_residual": traj.max_residual}

    verdict, fitted = "inconclusive", None
    escape = np.flatnonzero(norms >= 10.0 * norm0)
    if norm0 == 0.0:
        biggest = float(np.abs(norms).max()) if norms.size else 0.0
        verdict = "stable" if biggest == 0.0 else "inconclusive"
        diagnostics["note"] = "zero perturbation: exact fixed point"
    elif escape.size:
        i = int(escape[0])
        fit_to = max(i, 3)
        verdict = "unstable"
        fitted = line_fit(times[:fit_to + 1], np.log(norms[:fit_to + 1]))[0]
        diagnostics["escape_time"] = float(times[i])
    elif norms[-1] <= norm0 / np.e and norms.min() > 0.0:
        tail = times >= times[-1] / 3.0
        verdict = "stable"
        fitted = -line_fit(times[tail], np.log(norms[tail]))[0]
    else:
        diagnostics["note"] = ("functional neither decayed below 1/e of its "
                               "initial value nor escaped the 10x ball")
    return StabilityResult(verdict=verdict, regime=regime, fitted_rate=fitted,
                           comparator=comparator, alpha_weight=alpha,
                           loss_rate_at_vbar=lam_vbar, vbar=vbar,
                           constants=consts, norm_values=norms,
                           diagnostics=diagnostics)
