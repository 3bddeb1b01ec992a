"""Discrete-size chain model used as an independent cross-check.

Polymers live on integer sizes i = n0..n_max.  Each polymer attaches
monomers at speed conversion*V (moving i -> i+1), splits at any of its
i-1 bonds at the per-bond rate, and degrades at the decay rate.
Fragments below n0 dissolve back into monomer, which returns mass
fragmentation*n0*(n0-1)*U to the pool; that closes the books exactly:

    d/dt (V + sum_i i*u_i) = production - clearance*V - decay*mass
                             - conversion*V*(n_max+1)*u[n_max]

with the last term the only (monitored) leak, from polymers growing past
the top bin.  The stepper deliberately uses the same two-stage arithmetic
as the continuum integrator so that with u = 0 both reduce to the
identical scalar update for V and agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import Affine, CoefficientSet, Constant
from .dynamics import growth_rate, integrate
from .grid import PolymerState, SizeGrid
from .reference import loss_rate_constant

__all__ = [
    "DiscreteParams",
    "DiscreteState",
    "DiscreteTrajectory",
    "integrate_discrete",
    "calibration_mismatches",
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
    mass_series: np.ndarray
    final_state: DiscreteState
    mass_residual_max: float
    top_bin_share: float
    steps: int


def _rhs(params: DiscreteParams, sizes: np.ndarray, u: np.ndarray, v: float):
    tau, beta, mu = params.conversion, params.fragmentation, params.decay
    count = u.sum()
    # suffix sums: tail[k] = sum of u over sizes strictly above sizes[k]
    tail = np.cumsum(u[::-1])[::-1] - u
    shifted = np.empty_like(u)
    shifted[0] = 0.0
    shifted[1:] = u[:-1]
    du = (-(mu + beta * (sizes - 1.0)) * u
          - tau * v * (u - shifted)
          + 2.0 * beta * tail)
    dv = (params.production - params.clearance * v - tau * v * count
          + beta * params.n0 * (params.n0 - 1.0) * count)
    return du, dv


def _heun_step(params: DiscreteParams, sizes, u, v, dt, depth=0):
    """One two-stage step; on a negative stage, recurse on two half steps.

    sizes is params.sizes, built once by the caller.
    """
    du1, dv1 = _rhs(params, sizes, u, v)
    u1 = u + dt * du1
    v1 = v + dt * dv1
    if u1.min() >= 0.0 and v1 >= 0.0:
        du2, dv2 = _rhs(params, sizes, u1, v1)
        u2 = 0.5 * u + 0.5 * (u1 + dt * du2)
        v2 = 0.5 * v + 0.5 * (v1 + dt * dv2)
        if u2.min() >= 0.0 and v2 >= 0.0:
            # stage-consistent book for this step
            top_rate = params.conversion * (params.n_max + 1.0)
            src = 0.5 * ((params.production - params.clearance * v
                          - params.decay * (sizes @ u) - top_rate * v * u[-1])
                         + (params.production - params.clearance * v1
                            - params.decay * (sizes @ u1) - top_rate * v1 * u1[-1]))
            dvp = (v2 + sizes @ u2 - v - sizes @ u) / dt
            resid = abs(dvp - src) / (abs(u).sum() + v)
            return u2, v2, resid
    if depth >= 20:
        raise RuntimeError("discrete step kept producing negative densities "
                           "after 20 halvings (dt=%g)" % dt)
    u, v, r1 = _heun_step(params, sizes, u, v, 0.5 * dt, depth + 1)
    u, v, r2 = _heun_step(params, sizes, u, v, 0.5 * dt, depth + 1)
    return u, v, max(r1, r2)


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
    u = state.u.astype(float).copy()
    v = float(state.v)
    t = state.t
    times, vs, counts, masses = [t], [v], [u.sum()], [sizes @ u]
    resid_max = 0.0
    top_share = 0.0
    steps = 0
    while t < t_end - 1e-12:
        step = min(dt, t_end - t)
        u, v, resid = _heun_step(params, sizes, u, v, step)
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
            masses.append(sizes @ u)
    return DiscreteTrajectory(
        times=np.asarray(times), v_series=np.asarray(vs),
        count_series=np.asarray(counts), mass_series=np.asarray(masses),
        final_state=DiscreteState(v=v, u=u, t=t),
        mass_residual_max=resid_max, top_bin_share=top_share, steps=steps)


# --- continuum cross-check -------------------------------------------------

def calibration_mismatches(coeffs: CoefficientSet, params: DiscreteParams) -> list:
    """Configuration errors that make a comparison meaningless.

    The continuum side must carry a constant conversion equal to the
    chain's, an origin-anchored linear splitting rate with slope equal to
    the per-bond rate, a constant decay, and the same monomer source and
    sink.  The n0 cutoff against a zero continuum x0 is a structural
    difference, reported by compare_continuum, not an error here.
    """
    out = []

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    if not (isinstance(coeffs.conversion, Constant)
            and close(coeffs.conversion.value, params.conversion)):
        out.append("conversion must be Constant(%g)" % params.conversion)
    if not (isinstance(coeffs.fragmentation, Affine)
            and coeffs.fragmentation.intercept == 0.0
            and close(coeffs.fragmentation.slope, params.fragmentation)):
        out.append("fragmentation must be Affine(0, %g)" % params.fragmentation)
    if not (isinstance(coeffs.decay, Constant)
            and close(coeffs.decay.value, params.decay)):
        out.append("decay must be Constant(%g)" % params.decay)
    if not close(coeffs.production, params.production):
        out.append("production differs (%g vs %g)"
                   % (coeffs.production, params.production))
    if not close(coeffs.clearance, params.clearance):
        out.append("clearance differs (%g vs %g)"
                   % (coeffs.clearance, params.clearance))
    return out


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
                      dt: float = 0.02, fit_window: tuple = (20.0, 50.0)) -> dict:
    """Run the chain and its continuum twin side by side.

    Two runs: an uninfected one (no polymers) where both must reproduce
    the identical monomer relaxation to rounding, and a seeded one (count
    1e-3 on each side) whose exponential count growth rates are compared
    against each other and against the constant-coefficient closed form.
    """
    coeffs, grid = matched_continuum_setup(params)
    mismatches = calibration_mismatches(coeffs, params)
    if mismatches:
        raise ValueError("calibration: " + "; ".join(mismatches))
    vbar = params.production / params.clearance

    # uninfected: both integrators collapse to the same scalar V update
    v_start = 0.3 * vbar
    zero_d = DiscreteState(v=v_start, u=np.zeros_like(params.sizes))
    traj_d0 = integrate_discrete(params, zero_d, t_end, dt, record_every=5)
    zero_c = PolymerState(v=v_start, u=np.zeros(grid.n), grid=grid)
    traj_c0 = integrate(coeffs, grid, zero_c, t_end, record_every=5, dt_max=dt)
    v_c_at = np.interp(traj_d0.times, traj_c0.times, traj_c0.v_series)
    uninfected_diff = float(np.max(np.abs(v_c_at - traj_d0.v_series)
                                   / np.maximum(traj_d0.v_series, 1e-300)))

    # seeded growth at (almost) frozen monomer level
    shape_d = 0.5 * params.sizes ** 2 / (1.0 + params.sizes ** 4)
    seed_d = 1e-3 / shape_d.sum() * shape_d
    traj_d = integrate_discrete(params, DiscreteState(v=vbar, u=seed_d),
                                t_end, dt, record_every=5)
    xc = grid.centers
    shape_c = 0.5 * xc ** 2 / (1.0 + xc ** 4)
    seed_c = 1e-3 / float(shape_c @ grid.widths) * shape_c
    traj_c = integrate(coeffs, grid, PolymerState(v=vbar, u=seed_c, grid=grid),
                       t_end, record_every=5, dt_max=dt)

    lo, hi = fit_window
    md = (traj_d.times >= lo) & (traj_d.times <= hi)
    if int(md.sum()) < 3:
        raise ValueError("fit window [%g, %g] holds %d samples; need 3"
                         % (lo, hi, int(md.sum())))
    slope_d = float(np.polyfit(traj_d.times[md],
                               np.log(traj_d.count_series[md]), 1)[0])
    fit_c = growth_rate(traj_c, fit_window)
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
        "structural_note": ("chain starts at size n0=%d while the continuum "
                            "density vanishes only at 0; rates differ by the "
                            "resulting boundary-layer correction" % params.n0),
    }


def default_calibration() -> DiscreteParams:
    """Chain rates used by the shipped cross-check: mean size 20 monomers,
    tracked up to 20 mean sizes."""
    return DiscreteParams(production=2400.0, clearance=4.0, conversion=0.01,
                          fragmentation=5e-4, decay=0.01, n0=2, n_max=400)
