"""Time integration of the coupled monomer/polymer system and the
experiments built on it: growth-rate fits, incubation times, stability
runs.

The stepper is explicit Heun under a transport CFL bound and a reaction
bound, with step rejection and halving if a stage goes negative.  The
mass books are stage-consistent: the reported per-step residual compares
the realized change of (monomer + polymer mass) against the stage-averaged
sources, so it sits at rounding level and any real leak would show
immediately.  The right-hand side applies the structured generator in O(n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .eigen import HypothesisConstants, adjoint_eigenpair, hypothesis_constants, principal_eigenpair
from .grid import PolymerState, SizeGrid
from .kernel import below_cutoff_mass_share
from .operator import Generator
from .reference import initial_seed_profile
from .steady import find_v_inf

__all__ = [
    "Trajectory",
    "GrowthFit",
    "IncubationResult",
    "StabilityResult",
    "IntegratorFailure",
    "seed_state",
    "integrate",
    "growth_rate",
    "incubation_time",
    "stability_experiment",
]


class IntegratorFailure(RuntimeError):
    """Integration aborted; carries the last valid state and time."""

    def __init__(self, message: str, state: Optional[PolymerState] = None):
        super().__init__(message)
        self.state = state


@dataclass
class Trajectory:
    """Recorded history of one integration.

    rho_series is the polymer count U(t) = integral of u; p_series the
    polymerized mass.  conservation_residuals holds one relative residual
    per accepted step (length = steps, not len(times)); residual_series
    holds the largest of them since the previous recorded row (0 in the
    first).  Rows are recorded every record_every-th step and at the last.

    steps_by_limit counts accepted steps by the bound that set them
    ("cfl", "loss_cap", "dt_max", or "event" for a step landing on a
    snapshot or t_end) and sums to steps; halved_steps counts accepted
    steps taken while the working step was halved after a rejection;
    rejections_by_stage counts rejections by the first stage entry to go
    negative ("monomer" if V, else "polymer") and sums to rejections.
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
    halved_steps: int = 0
    rejections_by_stage: dict = field(default_factory=dict)
    residual_series: Optional[np.ndarray] = None

    @property
    def max_residual(self) -> float:
        """Largest per-step conservation residual (0 with no steps)."""
        res = self.conservation_residuals
        return float(res.max()) if res.size else 0.0


def seed_state(coeffs: CoefficientSet, grid: SizeGrid, scale: float = 1.0,
               v_init: Optional[float] = None, t: float = 0.0) -> PolymerState:
    """Standard initial condition: scaled seeding profile, monomer at the
    uninfected level production/clearance unless overridden."""
    if v_init is None:
        if coeffs.clearance <= 0.0:
            raise ValueError("v_init required when clearance is zero")
        v_init = coeffs.production / coeffs.clearance
    u0 = scale * initial_seed_profile(grid.centers)
    return PolymerState(v=float(v_init), u=u0, grid=grid, t=t)


def integrate(coeffs: CoefficientSet, grid: SizeGrid, initial: PolymerState,
              t_end: float, snapshot_times: Sequence[float] = (),
              record_every: int = 1, dt_max: Optional[float] = None) -> Trajectory:
    """Advance the coupled system from ``initial`` to absolute time t_end.

    Steps land exactly on requested snapshot instants and on t_end.  The
    step size is recomputed every step from the current monomer level
    (transport CFL, with safety factor 0.9) and the fixed reaction bound,
    capped by dt_max when given; a stage with a negative entry rejects the
    step and halves the working step, which relaxes back after a stretch
    of accepted steps.
    """
    if t_end <= initial.t:
        raise ValueError("t_end=%g is not beyond the initial time %g" % (t_end, initial.t))
    if record_every < 1:
        raise ValueError("record_every must be at least 1, got %d" % record_every)
    if initial.grid is not grid and (initial.grid.n != grid.n
                                     or initial.grid.xmax != grid.xmax):
        raise ValueError("initial state lives on a different grid")
    x, h = grid.centers, grid.widths
    gen = Generator(coeffs, grid)
    conv, frag, decay, frag_eff = gen.conversion, gen.fragmentation, gen.decay, gen.frag_eff
    lam, gam = coeffs.production, coeffs.clearance

    xh = x * h
    convh = conv * h
    muxh = decay * x * h
    vgain = below_cutoff_mass_share(grid) * frag_eff * h  # monomer mass back, x0>0
    fluxw = (x[-1] + h[-1]) * conv[-1]
    conv_max = float(conv.max())
    hmin = float(h.min())
    # stage stability needs dt below 2/rate for every linear loss rate;
    # clearance counts too, else a large-dt regime lets V oscillate above
    # its supply ceiling
    stiffest = max(float((decay + frag).max()), gam)
    loss_cap = 0.5 / stiffest

    snap_set = set(float(s) for s in snapshot_times if initial.t < s <= t_end)
    events = sorted(snap_set | {float(t_end)})
    snapshots: list = []
    for s in snapshot_times:
        if abs(s - initial.t) <= 1e-12:
            snapshots.append((initial.t, initial.u.copy()))

    u = initial.u.astype(float).copy()
    V = float(initial.v)
    t = initial.t

    rec_t = [t]
    rec_v = [V]
    rec_rho = [float(u @ h)]
    rec_p = [float(u @ xh)]
    rec_steps = [0]
    residuals: list = []
    flux_total = 0.0
    steps = 0
    rejections = 0
    steps_by_limit = dict.fromkeys(("cfl", "loss_cap", "dt_max", "event"), 0)
    halved_steps = 0
    rejections_by_stage = dict.fromkeys(("monomer", "polymer"), 0)
    shrink = 1.0
    ev_i = 0
    dt_min = 1e-14 * max(1.0, t_end - initial.t)

    def rhs(uu, VV):
        du = gen.apply(VV, uu)
        dV = lam - VV * (gam + convh @ uu) + vgain @ uu
        return du, dV

    while t < t_end - 1e-12:
        next_event = events[ev_i]
        dt_bound, limit = loss_cap, "loss_cap"
        if V * conv_max > 0.0:
            dt_cfl = 0.9 * hmin / (V * conv_max)
            if dt_cfl < dt_bound:
                dt_bound, limit = dt_cfl, "cfl"
        if dt_max is not None and dt_max < dt_bound:
            dt_bound, limit = dt_max, "dt_max"
        dt_try = dt_bound * shrink
        # a full step that would stop short of the event by a sliver takes
        # the event instead.  The sliver covers the rounding accumulated in
        # t (up to one part in a million of the step, which leaves the
        # step bounds intact) and anything below the smallest allowed step:
        # a sliver step would divide rounding by a tiny dt in the books.
        hit_event = next_event - t <= (1.0 + 1e-6) * dt_try + dt_min
        dt = (next_event - t) if hit_event else dt_try
        if dt < dt_min:
            raise IntegratorFailure(
                "step size underflow at t=%g (shrink=%g)" % (t, shrink),
                state=PolymerState(v=V, u=u.copy(), grid=grid, t=t))

        du1, dV1 = rhs(u, V)
        u1 = u + dt * du1
        V1 = V + dt * dV1
        if u1.min() < 0.0 or V1 < 0.0:
            shrink *= 0.5
            rejections += 1
            rejections_by_stage["monomer" if V1 < 0.0 else "polymer"] += 1
            continue
        du2, dV2 = rhs(u1, V1)
        u2 = 0.5 * u + 0.5 * (u1 + dt * du2)
        V2 = 0.5 * V + 0.5 * (V1 + dt * dV2)
        if u2.min() < 0.0 or V2 < 0.0:
            shrink *= 0.5
            rejections += 1
            rejections_by_stage["monomer" if V2 < 0.0 else "polymer"] += 1
            continue
        if not (np.isfinite(V2) and np.isfinite(u2).all()):
            raise IntegratorFailure(
                "non-finite state at t=%g" % t,
                state=PolymerState(v=V, u=u.copy(), grid=grid, t=t))

        # books: realized d(V+P)/dt against the stage-averaged sources
        dvp = (V2 + xh @ u2 - V - xh @ u) / dt
        src = 0.5 * ((lam - gam * V - muxh @ u - V * fluxw * u[-1])
                     + (lam - gam * V1 - muxh @ u1 - V1 * fluxw * u1[-1]))
        residuals.append(abs(dvp - src) / (float(np.abs(u) @ h) + V))
        flux_total += 0.5 * dt * (V * fluxw * u[-1] + V1 * fluxw * u1[-1])

        u, V = u2, V2
        t = next_event if hit_event else t + dt
        steps += 1
        steps_by_limit["event" if hit_event else limit] += 1
        if shrink < 1.0:
            halved_steps += 1
        if steps % 200 == 0 and shrink < 1.0:
            shrink = min(1.0, 2.0 * shrink)
        if hit_event:
            if next_event in snap_set:
                snapshots.append((t, u.copy()))
            ev_i += 1
        if steps % record_every == 0 or t >= t_end - 1e-12:
            rec_t.append(t)
            rec_v.append(V)
            rec_rho.append(float(u @ h))
            rec_p.append(float(u @ xh))
            rec_steps.append(steps)

    final = PolymerState(v=V, u=u.copy(), grid=grid, t=t)
    residuals = np.asarray(residuals)
    row_res = np.maximum.reduceat(residuals, rec_steps[:-1])
    return Trajectory(times=np.asarray(rec_t), v_series=np.asarray(rec_v),
                      rho_series=np.asarray(rec_rho), p_series=np.asarray(rec_p),
                      snapshots=snapshots,
                      conservation_residuals=residuals,
                      truncation_flux_total=float(flux_total), grid=grid,
                      coeffs=coeffs, final_state=final, steps=steps,
                      rejections=rejections, steps_by_limit=steps_by_limit,
                      halved_steps=halved_steps,
                      rejections_by_stage=rejections_by_stage,
                      residual_series=np.concatenate(([0.0], row_res)))


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
    slope, intercept = np.polyfit(tt, np.log(rho), 1)
    pred = slope * tt + intercept
    ssr = float(((np.log(rho) - pred) ** 2).sum())
    sst = float(((np.log(rho) - np.log(rho).mean()) ** 2).sum())
    r2 = 1.0 - ssr / sst if sst > 0.0 else 1.0
    if traj.coeffs.clearance > 0.0:
        vbar = traj.coeffs.production / traj.coeffs.clearance
        drift = float(np.abs(traj.v_series[m] - vbar).max() / vbar)
    else:
        drift = float("nan")
    return GrowthFit(rate=float(slope), r_squared=r2, v_drift=drift,
                     window=(t0, t1), n_points=int(m.sum()))


@dataclass(frozen=True)
class IncubationResult:
    """Threshold-crossing time of the polymer count.

    predicted is the log-law value -log(threshold/inoculation)/loss_rate,
    filled only when the supplied loss rate at the uninfected level is
    negative (growth regime).  When the trajectory never reaches the
    threshold, t_incubation is None and final_rho records where it ended.
    """

    t_incubation: Optional[float]
    threshold: float
    inoculation: float
    predicted: Optional[float]
    measured_growth_rate: Optional[float]
    reached: bool
    final_rho: float


def incubation_time(traj: Trajectory, threshold: float, inoculation: float,
                    loss_rate_at_vbar: Optional[float] = None) -> IncubationResult:
    """First crossing of the count threshold, linearly interpolated."""
    if not (threshold > inoculation > 0.0):
        raise ValueError("need threshold > inoculation > 0")
    rho = traj.rho_series
    t = traj.times
    above = np.flatnonzero(rho >= threshold)
    predicted = None
    if loss_rate_at_vbar is not None and loss_rate_at_vbar < 0.0:
        predicted = float(np.log(threshold / inoculation) / (-loss_rate_at_vbar))
    if above.size == 0:
        return IncubationResult(t_incubation=None, threshold=threshold,
                                inoculation=inoculation, predicted=predicted,
                                measured_growth_rate=None, reached=False,
                                final_rho=float(rho[-1]))
    i = int(above[0])
    if i == 0:
        t_cross = float(t[0])
    else:
        frac = (threshold - rho[i - 1]) / (rho[i] - rho[i - 1])
        t_cross = float(t[i - 1] + frac * (t[i] - t[i - 1]))
    measured = None
    lo, hi = 0.2 * t_cross, 0.8 * t_cross
    if ((t >= lo) & (t <= hi)).sum() >= 3 and hi > lo:
        try:
            measured = growth_rate(traj, (lo, hi)).rate
        except ValueError:
            measured = None
    return IncubationResult(t_incubation=t_cross, threshold=threshold,
                            inoculation=inoculation, predicted=predicted,
                            measured_growth_rate=measured, reached=True,
                            final_rho=float(rho[-1]))


# --- stability experiment --------------------------------------------------

@dataclass
class StabilityResult:
    """Outcome of a perturbation run around the uninfected state.

    verdict: "stable" (weighted norm decayed exponentially), "unstable"
    (projection escaped the 10-epsilon ball), or "inconclusive".  The
    comparator min(delta, clearance) is the decay-rate benchmark, with
    delta = loss_rate(vbar)/2 in the damping regime; the fitted rate is
    compared against it qualitatively, not asserted here.
    """

    verdict: str
    regime: str
    fitted_rate: Optional[float]
    comparator: Optional[float]
    delta: Optional[float]
    alpha_weight: float
    loss_rate_at_vbar: float
    v_inf: Optional[float]
    vbar: float
    epsilon: float
    constants: HypothesisConstants
    norm_times: np.ndarray
    norm_values: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def stability_experiment(coeffs: CoefficientSet, grid: SizeGrid, epsilon: float,
                         t_end: Optional[float] = None) -> StabilityResult:
    """Perturb the uninfected state by epsilon times the seeding profile
    and classify the response.

    The decay functional is alpha*<u, phi> + |V - vbar| with phi the
    adjoint weight at vbar and alpha = 2*K2*vbar/loss_rate(vbar) in the
    damping regime (the weighting that makes the functional contract),
    sampled at 40 evenly spaced instants; escape is declared when the
    functional exceeds ten times its initial value.
    """
    if coeffs.clearance <= 0.0:
        raise ValueError("stability experiment needs a positive clearance")
    vbar = coeffs.production / coeffs.clearance
    lam_vbar = principal_eigenpair(coeffs, grid, vbar).lambda_eig
    adj = adjoint_eigenpair(coeffs, grid, vbar)
    consts = hypothesis_constants(coeffs, adj)
    phi = adj.phi_vec
    root = find_v_inf(coeffs, grid)
    v_inf = root.v_inf if root.found else None
    regime = "damping" if lam_vbar > 0.0 else "amplifying"
    delta = lam_vbar / 2.0 if lam_vbar > 0.0 else None
    comparator = min(delta, coeffs.clearance) if delta is not None else None
    alpha = 2.0 * consts.k2 * vbar / lam_vbar if lam_vbar > 0.0 else 1.0

    if t_end is None:
        t_end = 600.0 if lam_vbar > 0.0 else 150.0
    sample_times = np.linspace(0.0, t_end, 41)[1:]

    initial = seed_state(coeffs, grid, scale=epsilon, v_init=vbar)
    phih = phi * grid.widths

    def norm_of(uu, VV):
        return alpha * float(uu @ phih) + abs(VV - vbar)

    norm0 = norm_of(initial.u, initial.v)
    traj = integrate(coeffs, grid, initial, t_end,
                     snapshot_times=sample_times, record_every=10)
    times = np.array([t for t, _ in traj.snapshots])
    # V at snapshot instants from the recorded series
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
        fitted = float(np.polyfit(times[:fit_to + 1],
                                  np.log(norms[:fit_to + 1]), 1)[0])
        diagnostics["escape_time"] = float(times[i])
    elif norms[-1] <= norm0 / np.e and norms.min() > 0.0:
        tail = times >= times[-1] / 3.0
        verdict = "stable"
        fitted = -float(np.polyfit(times[tail], np.log(norms[tail]), 1)[0])
    else:
        diagnostics["note"] = ("functional neither decayed below 1/e of its "
                               "initial value nor escaped the 10x ball")
    return StabilityResult(verdict=verdict, regime=regime, fitted_rate=fitted,
                           comparator=comparator, delta=delta,
                           alpha_weight=alpha, loss_rate_at_vbar=lam_vbar,
                           v_inf=v_inf, vbar=vbar, epsilon=epsilon,
                           constants=consts, norm_times=times,
                           norm_values=norms, diagnostics=diagnostics)
