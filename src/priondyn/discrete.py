"""Discrete-size chain model used as an independent cross-check.

Polymers live on integer sizes i = n0..n_max.  Each polymer attaches
monomers at speed conversion*V (moving i -> i+1), splits at any of its
i-1 bonds at the per-bond rate, and degrades at the decay rate.
Fragments below n0 dissolve back into monomer, which returns mass
fragmentation*n0*(n0-1)*U to the pool; that closes the books exactly:

    d/dt (V + sum_i i*u_i) = production - clearance*V - decay*mass
                             - conversion*V*(n_max+1)*u[n_max]

with the last term the only (monitored) leak, from polymers growing past
the top bin.  The stepper deliberately takes the continuum integrator's
stages, SSPRK(4,2) for the polymers and the stiffly accurate ESDIRK for
the monomer, coded separately in the same operation order, so that with
u = 0 both reduce to the identical scalar update for V and agree to the
last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coefficients import Affine, CoefficientSet, Constant
from .dynamics import growth_rate, integrate
from .grid import PolymerState, SizeGrid
from .reference import initial_seed_profile, loss_rate_constant

__all__ = [
    "DiscreteParams",
    "DiscreteState",
    "DiscreteTrajectory",
    "integrate_discrete",
    "matched_continuum_setup",
    "compare_continuum",
    "default_calibration",
]


@dataclass(frozen=True)
class DiscreteParams:
    """Scalar rates of the integer-size chain."""

    production: float
    clearance: float
    conversion: float
    fragmentation: float
    decay: float
    n0: int = 2
    n_max: int = 400

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError("n0 must be at least 1")
        if self.n_max <= self.n0:
            raise ValueError("n_max must exceed n0")
        for name in ("production", "clearance", "conversion", "fragmentation", "decay"):
            if getattr(self, name) < 0.0:
                raise ValueError("%s must be nonnegative" % name)

    @property
    def sizes(self) -> np.ndarray:
        return np.arange(self.n0, self.n_max + 1, dtype=float)


@dataclass
class DiscreteState:
    """u[k] holds the density of size n0+k; v the monomer level."""

    v: float
    u: np.ndarray
    t: float = 0.0

    def count(self) -> float:
        return float(self.u.sum())

    def mass(self, params: DiscreteParams) -> float:
        return float(params.sizes @ self.u)


@dataclass
class DiscreteTrajectory:
    times: np.ndarray
    v_series: np.ndarray
    count_series: np.ndarray
    final_state: DiscreteState
    mass_residual_max: float
    top_bin_share: float
    steps: int
    halvings: int  # steps split in two after a negative stage


def _rhs(params: DiscreteParams, loss: np.ndarray, u: np.ndarray, v: float):
    """Polymer slopes; loss is the fixed diagonal -(decay + splitting)."""
    tau, beta = params.conversion, params.fragmentation
    # suffix sums: tail[k] = sum of u over sizes strictly above sizes[k]
    tail = np.cumsum(u[::-1])[::-1] - u
    shifted = np.empty_like(u)
    shifted[0] = 0.0
    shifted[1:] = u[:-1]
    return (loss * u
            - tau * v * (u - shifted)
            + 2.0 * beta * tail)


def _ssp_step(params: DiscreteParams, sizes, loss, u, v, dt, depth=0):
    """One step: the polymers take SSPRK(4,2), three forward-Euler stages
    of dt/3 and then u/4 plus 3/4 of a fourth stage from the third, each
    at its stage's monomer level.  The levels come from a stiffly accurate
    ESDIRK: stage k solves vk = v + c*(sum of the monomer slopes of
    stages 0..k) exactly, with c = 0, 1/6, 2/9 and 1/4 of dt (so stage 0
    is v); the step ends on the last level.  On a negative stage, recurse
    on two half steps.  Returns u, v, the book residual and the number of
    halvings.

    sizes is params.sizes and loss the diagonal _rhs takes, both built once
    by the caller.
    """
    tau = dt / 3.0
    top_rate = params.conversion * (params.n_max + 1.0)
    returned = params.fragmentation * params.n0 * (params.n0 - 1.0)
    uk, vk = u, v
    slope_sum = 0.0  # the monomer slopes of the stages so far
    src = 0.0  # sum of the four stage sources of d(v + mass)/dt
    for stage, weight in enumerate((0.0, 1 / 6, 2 / 9, 1 / 4)):
        count = uk.sum()
        take, back = params.conversion * count, returned * count
        c = weight * dt
        vk = ((v + c * (slope_sum + params.production + back))
              / (1.0 + c * (params.clearance + take)))
        slope_sum += params.production - vk * (params.clearance + take) + back
        src += (params.production - params.clearance * vk
                - params.decay * (sizes @ uk) - top_rate * vk * uk[-1])
        uk = uk + tau * _rhs(params, loss, uk, vk)
        if stage == 3:
            uk = 0.25 * u + 0.75 * uk
        if uk.min() < 0.0 or vk < 0.0:
            break
    else:
        # stage-consistent book: the step is u + dt/4 times the summed slopes
        dvp = (vk + sizes @ uk - v - sizes @ u) / dt
        resid = abs(dvp - 0.25 * src) / (abs(u).sum() + v)
        return uk, vk, resid, 0
    if depth >= 20:
        raise RuntimeError("discrete step kept producing negative densities "
                           "after 20 halvings (dt=%g)" % dt)
    u, v, r1, h1 = _ssp_step(params, sizes, loss, u, v, 0.5 * dt, depth + 1)
    u, v, r2, h2 = _ssp_step(params, sizes, loss, u, v, 0.5 * dt, depth + 1)
    return u, v, max(r1, r2), 1 + h1 + h2


def integrate_discrete(params: DiscreteParams, state: DiscreteState,
                       t_end: float, dt: float,
                       record_every: int = 1) -> DiscreteTrajectory:
    """Fixed-step march to t_end (the last step shortens to land on it)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if record_every < 1:
        raise ValueError("record_every must be at least 1, got %d" % record_every)
    sizes = params.sizes
    if state.u.shape != sizes.shape:
        raise ValueError("state has %d bins; params expect %d"
                         % (state.u.size, sizes.size))
    loss = -(params.decay + params.fragmentation * (sizes - 1.0))
    u = state.u.astype(float).copy()
    v = float(state.v)
    t = state.t
    times, vs, counts = [t], [v], [u.sum()]
    resid_max = 0.0
    top_share = 0.0
    steps = halvings = 0
    while t < t_end - 1e-12:
        step = min(dt, t_end - t)
        u, v, resid, split = _ssp_step(params, sizes, loss, u, v, step)
        halvings += split
        if not (np.isfinite(v) and np.isfinite(u).all()):
            raise RuntimeError("discrete integration diverged at t=%g" % t)
        resid_max = max(resid_max, resid)
        peak = u.max()
        if peak > 0.0:
            top_share = max(top_share, u[-1] / peak)
        t = t_end if t_end - t <= dt else t + step
        steps += 1
        if steps % record_every == 0 or t >= t_end - 1e-12:
            times.append(t)
            vs.append(v)
            counts.append(u.sum())
    return DiscreteTrajectory(
        times=np.asarray(times), v_series=np.asarray(vs),
        count_series=np.asarray(counts), final_state=DiscreteState(v=v, u=u, t=t),
        mass_residual_max=resid_max, top_bin_share=top_share, steps=steps,
        halvings=halvings)


# --- continuum cross-check -------------------------------------------------

def matched_continuum_setup(params: DiscreteParams):
    """Continuum twin of a chain: one unit-width cell per integer size."""
    coeffs = CoefficientSet(
        production=params.production, clearance=params.clearance, x0=0.0,
        conversion=Constant(params.conversion),
        fragmentation=Affine(0.0, params.fragmentation),
        decay=Constant(params.decay))
    grid = SizeGrid.uniform(float(params.n_max), params.n_max)
    return coeffs, grid


def compare_continuum(params: DiscreteParams, t_end: float = 70.0,
                      dt: float = 0.3, fit_window: tuple = (20.0, 50.0)) -> dict:
    """Run the chain and its continuum twin side by side.

    Two runs on each side: an uninfected one (no polymers), where both
    must reproduce the identical monomer relaxation to rounding, and a
    seeded one (count 1e-3 on each side), whose exponential count growth
    rates are compared against each other and against the constant-
    coefficient closed form.  All four march at the fixed step dt (the
    continuum's dt_max).  The chain records a row every max(1,
    round(0.3/dt)) steps and the continuum one per step; the fit and the
    path comparison read the continuum at the chain's rows, about 0.3 days
    apart at any dt.

    The twins check each other only while they take the same steps.  So
    after all four runs, a continuum run that took a polymer-limited or
    rejected step, or a chain run that halved a step, raises a ValueError
    naming dt, the run and the counts.  As a rule of thumb dt must stay
    below 3 over the largest loss rate at vbar (0.483 days for
    default_calibration()).  The report carries dt and the steps of all
    four runs.
    """
    coeffs, grid = matched_continuum_setup(params)
    vbar = params.production / params.clearance
    every = max(1, round(0.3 / dt))

    # uninfected: both integrators collapse to the same scalar V update
    v_start = 0.3 * vbar
    zero_d = DiscreteState(v=v_start, u=np.zeros_like(params.sizes))
    traj_d0 = integrate_discrete(params, zero_d, t_end, dt, record_every=every)
    zero_c = PolymerState(v=v_start, u=np.zeros(grid.n), grid=grid)
    traj_c0 = integrate(coeffs, grid, zero_c, t_end, dt_max=dt)
    v_c_at = np.interp(traj_d0.times, traj_c0.times, traj_c0.v_series)
    uninfected_diff = float(np.max(np.abs(v_c_at - traj_d0.v_series)
                                   / np.maximum(traj_d0.v_series, 1e-300)))

    # seeded growth at (almost) frozen monomer level; the chain types out
    # the seeding profile, as it shares no code with the solver it checks
    shape_d = 0.5 * params.sizes ** 2 / (1.0 + params.sizes ** 4)
    seed_d = 1e-3 / shape_d.sum() * shape_d
    traj_d = integrate_discrete(params, DiscreteState(v=vbar, u=seed_d),
                                t_end, dt, record_every=every)
    shape_c = initial_seed_profile(grid.centers)
    seed_c = 1e-3 / float(shape_c @ grid.widths) * shape_c
    traj_c = integrate(coeffs, grid, PolymerState(v=vbar, u=seed_c, grid=grid),
                       t_end, dt_max=dt)
    departed = ["the continuum %s run took %d %s" % (run, count, kind)
                for run, traj in (("uninfected", traj_c0), ("seeded", traj_c))
                for kind, count in (
                    ("polymer-limited steps", traj.steps_by_limit["polymer"]),
                    ("rejected steps", traj.rejections)) if count]
    departed += ["the chain %s run halved %d steps" % (run, traj.halvings)
                 for run, traj in (("uninfected", traj_d0), ("seeded", traj_d))
                 if traj.halvings]
    if departed:
        raise ValueError("dt=%g is too long for the twins to take the same "
                         "steps: %s" % (dt, "; ".join(departed)))

    lo, hi = fit_window
    md = (traj_d.times >= lo) & (traj_d.times <= hi)
    if int(md.sum()) < 3:
        raise ValueError("fit window [%g, %g] holds %d samples; need 3"
                         % (lo, hi, int(md.sum())))
    # least-squares slope of log count against time, fitted here and not
    # by dynamics.line_fit: the chain shares no code with the solver it checks
    t_dev = traj_d.times[md] - traj_d.times[md].mean()
    log_count = np.log(traj_d.count_series[md])
    slope_d = float(t_dev @ (log_count - log_count.mean())) / float(t_dev @ t_dev)
    fit_c = growth_rate(replace(traj_c, times=traj_d.times, **{
        k: np.interp(traj_d.times, traj_c.times, getattr(traj_c, k))
        for k in ("rho_series", "v_series")}), fit_window)
    closed = -loss_rate_constant(params.conversion, params.fragmentation,
                                 params.decay, vbar)
    mean_final = traj_d.final_state.mass(params) / traj_d.final_state.count()
    # growth-phase comparator: the dominant mode's mean size at level vbar
    mean_mode = (np.sqrt(params.conversion * vbar / params.fragmentation)
                 if params.fragmentation > 0 else float("nan"))

    return {
        "uninfected_max_rel_diff_v": uninfected_diff,
        "growth_rate_discrete": slope_d,
        "growth_rate_continuum": fit_c.rate,
        "growth_rel_diff": abs(slope_d - fit_c.rate) / abs(closed),
        "growth_rate_closed_form": closed,
        "mean_size_discrete": float(mean_final),
        "mean_size_eigenmode": float(mean_mode),
        "mass_residual_max": traj_d.mass_residual_max,
        "top_bin_share": traj_d.top_bin_share,
        "dt": dt,
        "steps": {"chain_uninfected": traj_d0.steps,
                  "continuum_uninfected": traj_c0.steps,
                  "chain_seeded": traj_d.steps, "continuum_seeded": traj_c.steps},
        "structural_note": ("chain starts at size n0=%d while the continuum "
                            "density vanishes only at 0; rates differ by the "
                            "resulting boundary-layer correction" % params.n0),
    }


def default_calibration() -> DiscreteParams:
    """Chain rates used by the shipped cross-check: mean size 20 monomers,
    tracked up to 20 mean sizes."""
    return DiscreteParams(production=2400.0, clearance=4.0, conversion=0.01,
                          fragmentation=5e-4, decay=0.01, n0=2, n_max=400)
