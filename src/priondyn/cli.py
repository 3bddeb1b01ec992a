"""Command-line harness: one subcommand per experiment, and the parameter
sweeps built on them.

Every run reads a plain-text config, executes, and drops deterministic
output files (CSV tables plus a JSON record) into the output directory.
Each runner returns its results, diagnostics and exit code; ``main``
writes them as the one JSON record of the run.  File names embed a
digest of the canonical config echo so different configurations never
collide; rerunning the same configuration overwrites byte-identically.
Failures still write a machine-readable error file and exit nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import discrete as discrete_mod
from . import reference
from .coefficients import Affine, Constant
from .config import (SWEEP_AXES, ConfigError, RunConfig, config_echo,
                     parse_config, sweep_axis_error)
from .dynamics import (IntegratorFailure, growth_rate, incubation_time,
                       integrate, seed_state)
from .eigen import principal_eigenpair, scan_lambda
from .grid import SizeGrid
from .kernel import kernel_weights
from .operator import assemble, assemble_adjoint, macroscopic_balance
from .records import ExperimentRecord, canonical_json, grid_hash, write_csv
from .steady import (bimodality_report, build_steady_state, detect_modes,
                     find_v_inf)

__all__ = ["main", "sweep"]


def _digest(echo: dict) -> str:
    return hashlib.sha256(canonical_json(echo).encode()).hexdigest()[:10]


def _write_json(path: Path, record: ExperimentRecord, timings: bool) -> None:
    path.write_text(record.to_json(include_timings=timings) + "\n")


def _steady_blocks(ss):
    """Bimodality report, result keys and root counters of one steady
    state, shared by the steady runner and each peak_center sweep item."""
    rep = bimodality_report(ss)
    results = {
        "v_inf": ss.v_inf,
        "rho_inf": ss.rho_inf,
        "exists": ss.exists,
        "center_of_mass": rep.center_of_mass,
        "n_modes": rep.n_modes,
        "mode_locations": rep.mode_locations,
        "secondary_mass_fraction": rep.secondary_mass_fraction,
    }
    counters = {"root_evaluations": ss.root.evaluations,
                "root_iterations": ss.root.iterations}
    return rep, results, counters


def _integration_diagnostics(traj) -> dict:
    """Health of one integration, shared by simulate and sweep items."""
    return {"max_conservation_residual": traj.max_residual,
            "truncation_flux_total": traj.truncation_flux_total,
            "steps": traj.steps, "rejections": traj.rejections,
            "steps_by_limit": traj.steps_by_limit,
            "halved_steps": traj.halved_steps,
            "rejections_by_stage": traj.rejections_by_stage}


# --- experiment runners ----------------------------------------------------

def _run_eigen(cfg: RunConfig, out: Path, tag: str):
    grid = cfg.make_grid()
    scan = scan_lambda(cfg.coeffs, grid, cfg.eigen_v_values, tol=cfg.eigen_tol)
    results = {
        "v_values": scan.v_values,
        "loss_rates": scan.lambda_values,
        "growth_rates": scan.growth_rates,
        "decreasing": scan.decreasing,
        "sign_at_largest": scan.sign_at_largest,
    }
    if scan.lambda0_minus_decay0 is not None:
        results["loss_rate_at_zero_minus_decay"] = scan.lambda0_minus_decay0
    residuals, iters = [], []
    for k, sol in enumerate(scan.solutions):
        residuals.append(sol.residual)
        iters.append(sol.iterations)
        if sol.u_vec is not None:
            write_csv(out / ("eigen-%s-v%02d.csv" % (tag, k)),
                      ["x", "density"], [grid.centers, sol.u_vec])
    write_csv(out / ("eigen-%s.csv" % tag),
              ["v", "loss_rate", "growth_rate", "residual", "iterations"],
              [scan.v_values, scan.lambda_values, scan.growth_rates,
               np.asarray(residuals), np.asarray(iters, dtype=float)])
    return results, {"grid_hash": grid_hash(grid), "residuals": residuals,
                     "iterations": iters}, 0


def _run_steady(cfg: RunConfig, out: Path, tag: str):
    grid = cfg.make_grid()
    ss = build_steady_state(cfg.coeffs, grid, v_max=cfg.steady_v_max)
    rep, results, counters = _steady_blocks(ss)
    if rep.necessary_condition_met is not None:
        results["necessary_condition_met"] = rep.necessary_condition_met
    if ss.u_inf is not None:
        write_csv(out / ("steady-%s-profile.csv" % tag),
                  ["x", "density"], [grid.centers, ss.u_inf])
    return results, {"grid_hash": grid_hash(grid),
                     "monotone_warning": ss.root.monotone_warning,
                     **counters}, 0


def _run_simulate(cfg: RunConfig, out: Path, tag: str):
    grid = cfg.make_grid()
    initial = seed_state(cfg.coeffs, grid, scale=cfg.seed_scale,
                         v_init=cfg.v_init)
    rho0 = initial.moment0()
    diagnostics: dict = {"grid_hash": grid_hash(grid)}
    try:
        traj = integrate(cfg.coeffs, grid, initial, cfg.t_end,
                         snapshot_times=cfg.snapshot_times,
                         record_every=cfg.record_every, dt_max=cfg.dt_max)
    except IntegratorFailure as exc:
        diagnostics.update(error=str(exc), error_type="IntegratorFailure")
        state = exc.state
        results = {"failed_at": state.t if state is not None else None,
                   "v_last": state.v if state is not None else None}
        return results, diagnostics, 1

    write_csv(out / ("simulate-%s-trajectory.csv" % tag),
              ["t", "v", "polymer_count", "polymer_mass",
               "conservation_residual"],
              [traj.times, traj.v_series, traj.rho_series, traj.p_series,
               traj.residual_series])
    for k, (ts, uu) in enumerate(traj.snapshots):
        write_csv(out / ("simulate-%s-snap-%02d.csv" % (tag, k)),
                  ["x", "density"], [grid.centers, uu])

    results = {
        "t_end": traj.times[-1],
        "v_final": traj.v_series[-1],
        "count_final": traj.rho_series[-1],
        "mass_final": traj.p_series[-1],
        "rho0": rho0,
        "snapshot_times": [ts for ts, _ in traj.snapshots],
    }
    lam_vbar = None
    if cfg.coeffs.clearance > 0.0:
        lam_vbar = principal_eigenpair(cfg.coeffs, grid, cfg.vbar,
                                       tol=cfg.eigen_tol).lambda_eig
        results["loss_rate_at_vbar"] = lam_vbar
    try:
        fit = growth_rate(traj, (cfg.fit_start, cfg.fit_end))
        results.update(growth_rate=fit.rate, growth_r_squared=fit.r_squared,
                       growth_v_drift=fit.v_drift)
    except ValueError as exc:
        diagnostics["growth_fit_skipped"] = str(exc)
    if rho0 > 0.0:
        inc = incubation_time(traj, cfg.threshold_ratio * rho0, rho0,
                              loss_rate_at_vbar=lam_vbar)
        results.update(t_incubation=inc.t_incubation,
                       incubation_reached=inc.reached,
                       incubation_predicted=inc.predicted,
                       incubation_threshold=inc.threshold)
    diagnostics.update(_integration_diagnostics(traj))
    return results, diagnostics, 0


def _sweep_scalar_rows(axis: str, records):
    """Per-item scalar columns for the sweep summary table."""
    keymap = {
        "tightness": ("loss_rate", "growth_rate", "conv_average", "n_modes"),
        "peak_center": ("v_inf", "n_modes", "center_of_mass",
                        "secondary_mass_fraction"),
    }
    keys = keymap.get(axis, ("rho0", "t_incubation", "measured_growth_rate"))
    cols = {k: [] for k in keys}
    ok = []
    for rec in records:
        failed = "error" in rec.diagnostics
        ok.append(not failed)
        for k in keys:
            val = rec.results.get(k) if not failed else None
            cols[k].append(float("nan") if val is None else float(val))
    return keys, cols, ok


def _run_sweep(cfg: RunConfig, out: Path, tag: str):
    records = sweep(cfg)
    for k, rec in enumerate(records):
        _write_json(out / ("sweep-%s-item-%02d.json" % (tag, k)), rec,
                    cfg.timings)
    axis = cfg.sweep_axis
    values = list(cfg.sweep_values)
    keys, cols, ok = _sweep_scalar_rows(axis, records)
    write_csv(out / ("sweep-%s.csv" % tag), ["value"] + list(keys),
              [np.asarray(values, dtype=float)]
              + [np.asarray(cols[k]) for k in keys])

    summary: dict = {"axis": axis, "values": values,
                     "n_failed": int(len(ok) - sum(ok))}
    summary.update({k: cols[k] for k in keys})
    if axis == "tightness":
        gr = np.asarray(cols["growth_rate"])
        if np.isfinite(gr).any():
            best = int(np.nanargmax(gr))
            summary["argmax_value"] = values[best]
            summary["argmax_growth_rate"] = float(gr[best])
        onset = next((v for v, n in zip(values, cols["n_modes"])
                      if np.isfinite(n) and n >= 2), None)
        summary["bimodality_onset_value"] = onset
    if axis == "dose":
        tinc = np.asarray(cols["t_incubation"])
        good = np.isfinite(tinc)
        if good.sum() >= 2:
            slope = float(np.polyfit(np.log(np.asarray(values)[good]),
                                     tinc[good], 1)[0])
            summary["slope_fitted"] = slope
            grid = cfg.make_grid()
            lam = principal_eigenpair(cfg.coeffs, grid, cfg.vbar,
                                      tol=cfg.eigen_tol).lambda_eig
            if lam > 0.0:
                summary["slope_predicted"] = None
            else:
                summary["slope_predicted"] = -1.0 / abs(lam)
    if axis in ("bell_amplitude", "frag_slope"):
        finite = [v for v in cols["t_incubation"] if np.isfinite(v)]
        summary["incubation_decreasing"] = (
            all(b < a for a, b in zip(finite, finite[1:]))
            if len(finite) >= 2 else None)
    return summary, {}, 0


# --- parameter sweeps ------------------------------------------------------

def _sweep_item(base: RunConfig, axis: str, value: float,
                fixed_threshold: Optional[float]) -> ExperimentRecord:
    t_start = time.perf_counter()
    echo = config_echo(base)
    echo["sweep_axis"] = axis
    echo["sweep_value"] = float(value)
    try:
        coeffs = base.coeffs
        if SWEEP_AXES[axis] is not None:
            rate, _, param = SWEEP_AXES[axis]
            coeffs = replace(coeffs, **{rate: replace(getattr(coeffs, rate), **{param: value})})
        grid = base.make_grid()
        diagnostics: dict = {"grid_hash": grid_hash(grid)}
        if axis == "tightness":
            v_eval = base.sweep_v_eval if base.sweep_v_eval is not None else base.vbar
            sol = principal_eigenpair(coeffs, grid, v_eval, tol=base.eigen_tol)
            conv = coeffs.conversion(grid.centers)
            conv_avg = float((conv * sol.u_vec) @ grid.widths)
            idx, _ = detect_modes(sol.u_vec, grid)
            results = {
                "v_eval": float(v_eval),
                "loss_rate": sol.lambda_eig,
                "growth_rate": sol.growth_rate,
                "conv_average": conv_avg,
                "n_modes": max(1, int(idx.size)),
                "mode_locations": grid.centers[idx],
            }
            diagnostics.update(residual=sol.residual, iterations=sol.iterations)
        elif axis == "peak_center":
            ss = build_steady_state(coeffs, grid, v_max=base.steady_v_max)
            _, results, counters = _steady_blocks(ss)
            diagnostics.update(counters)
        else:
            scale = value if axis == "dose" else base.seed_scale
            initial = seed_state(coeffs, grid, scale=scale, v_init=base.v_init)
            rho0 = initial.moment0()
            traj = integrate(coeffs, grid, initial, base.sweep_t_end,
                             snapshot_times=(base.probe_time,),
                             record_every=base.sweep_record_every,
                             dt_max=base.dt_max)
            threshold = fixed_threshold if fixed_threshold is not None \
                else base.sweep_threshold_ratio * rho0
            inc = incubation_time(traj, threshold, rho0)
            probe = next((uu for (ts, uu) in traj.snapshots
                          if abs(ts - base.probe_time) < 1e-9), None)
            results = {
                "times": traj.times,
                "rho_series": traj.rho_series,
                "v_series": traj.v_series,
                "rho0": rho0,
                "threshold": threshold,
                "t_incubation": inc.t_incubation,
                "measured_growth_rate": inc.measured_growth_rate,
            }
            if probe is not None:
                count = float(probe @ grid.widths)
                results["probe_time"] = base.probe_time
                results["probe_profile"] = probe / count if count > 0 else probe
            diagnostics.update(_integration_diagnostics(traj))
    except Exception as exc:  # per-value isolation: a bad value must not kill the sweep
        results = {}
        diagnostics = {"error": str(exc), "error_type": type(exc).__name__}
    diagnostics["timings"] = {"seconds": time.perf_counter() - t_start}
    return ExperimentRecord(experiment="sweep", config_echo=echo,
                            results=results, diagnostics=diagnostics)


def sweep(base: RunConfig, axis: Optional[str] = None,
          values: Optional[Sequence[float]] = None) -> list:
    """Run one experiment per value along the chosen axis.

    Axes bell_amplitude and frag_slope integrate the full system per
    value; tightness evaluates the frozen-level eigenpair; peak_center
    builds steady states; dose reruns the same system at scaled
    inoculations against one fixed threshold (set by the largest dose, so
    the largest dose crosses at exactly the configured ratio).  An axis
    that does not fit the configured shapes raises ValueError before any
    item runs; a failing value yields an error record and the rest of the
    sweep continues.
    """
    axis = axis if axis is not None else base.sweep_axis
    values = tuple(values) if values is not None else base.sweep_values
    if axis is None or values is None:
        raise ValueError("sweep needs an axis and values")
    mismatch = sweep_axis_error(base.coeffs, axis)
    if mismatch:
        raise ValueError(mismatch)
    fixed_threshold = None
    if axis == "dose":
        grid = base.make_grid()
        unit_count = float(reference.initial_seed_profile(grid.centers)
                           @ grid.widths)
        fixed_threshold = base.sweep_threshold_ratio * max(values) * unit_count
    return [_sweep_item(base, axis, v, fixed_threshold) for v in values]


# --- validate battery ------------------------------------------------------

def _check(name, passed, **detail):
    out = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _run_validate(cfg: RunConfig, out: Path, tag: str, run_discrete: bool,
                  dump_operator: bool):
    coeffs = cfg.coeffs
    checks = []

    grid = SizeGrid.uniform(50.0, 300, x0=coeffs.x0)
    W = kernel_weights("uniform", grid)
    x, h = grid.centers, grid.widths
    count_err = 0.0
    mass_err = 0.0
    for j in range(2, grid.n):
        yj = x[j]
        count_err = max(count_err, abs(W[:j, j].sum() - (yj - coeffs.x0) / yj))
        mass_err = max(mass_err, abs(x[:j] @ W[:j, j]
                                     - (yj * yj - coeffs.x0 ** 2) / (2 * yj)))
    mass_err = max(mass_err, abs(x[0] * W[0, 1]
                                 - (x[1] ** 2 - coeffs.x0 ** 2) / (2 * x[1])))
    checks.append(_check("kernel-moment-laws",
                         count_err < 1e-12 and mass_err < 1e-12,
                         count_error=count_err, mass_error=mass_err))

    grid2 = SizeGrid.uniform(50.0, 200, x0=coeffs.x0)
    op = assemble(coeffs, grid2, 100.0)
    adj = assemble_adjoint(coeffs, grid2, 100.0)
    rng = np.random.default_rng(cfg.seed)
    h2 = grid2.widths
    worst = 0.0
    for _ in range(20):
        uu = rng.random(grid2.n)
        ph = rng.random(grid2.n)
        lhs = float((op.matrix @ uu) * ph @ h2)
        rhs = float(uu * (adj.matrix @ ph) @ h2)
        scale = max(1.0, abs(lhs))
        worst = max(worst, abs(lhs - rhs) / scale)
    checks.append(_check("adjoint-duality", worst < 1e-10, max_error=worst))

    closed_ok = (isinstance(coeffs.conversion, Constant)
                 and isinstance(coeffs.decay, Constant)
                 and isinstance(coeffs.fragmentation, Affine)
                 and coeffs.fragmentation.intercept == 0.0)
    if closed_ok:
        tau0 = coeffs.conversion.value
        mu0 = coeffs.decay.value
        beta0 = coeffs.fragmentation.slope
        grid3 = SizeGrid.uniform(cfg.xmax, 400, x0=coeffs.x0)
        worst_rel = 0.0
        for v in (100.0, 600.0):
            lam = principal_eigenpair(coeffs, grid3, v).lambda_eig
            ref = reference.loss_rate_constant(tau0, beta0, mu0, v)
            worst_rel = max(worst_rel, abs(lam - ref) / max(abs(ref), 1e-12))
        checks.append(_check("eigen-closed-form", worst_rel < 1e-2,
                             max_rel_error=worst_rel))
        root = find_v_inf(coeffs, grid3)
        ref_v = reference.equilibrium_monomer_level(tau0, beta0, mu0)
        ok_root = root.found and abs(root.v_inf - ref_v) / ref_v < 1e-2
        checks.append(_check("steady-root", ok_root,
                             v_inf=root.v_inf if root.found else None,
                             closed_form=ref_v))
    else:
        checks.append(_check("eigen-closed-form", True,
                             skipped="coefficients are not in the "
                                     "constant/linear closed-form class"))

    grid4 = SizeGrid.uniform(cfg.xmax, 300, x0=coeffs.x0)
    initial = seed_state(coeffs, grid4, scale=1.0)
    traj = integrate(coeffs, grid4, initial, 10.0, record_every=10)
    res = traj.max_residual
    checks.append(_check("conservation-books", res < 1e-8, max_residual=res))

    mass = reference.initial_seed_mass(50.0)
    frozen = 0.5453603675897958
    checks.append(_check("seed-mass-quadrature", abs(mass - frozen) < 1e-12,
                         value=mass, frozen=frozen))

    if run_discrete:
        rep = discrete_mod.compare_continuum(discrete_mod.default_calibration())
        ok_d = (rep["uninfected_max_rel_diff_v"] < 1e-10
                and rep["growth_rel_diff"] < 0.05
                and rep["mass_residual_max"] < 1e-8)
        checks.append(_check("discrete-cross-check", ok_d, **rep))

    if dump_operator:
        gridd = cfg.make_grid()
        opd = assemble(coeffs, gridd, cfg.vbar if np.isfinite(cfg.vbar) else 100.0)
        np.savetxt(out / ("operator-%s.csv" % tag), opd.matrix,
                   delimiter=",", fmt="%.17g")
        bal = macroscopic_balance(opd, seed_state(coeffs, gridd).u)
        checks.append(_check("operator-dump", True,
                             balance_residual=abs(bal.residual)))

    all_passed = all(c["passed"] for c in checks)
    for c in checks:
        print("%-24s %s" % (c["name"], "pass" if c["passed"] else "FAIL"))
    code = 0 if all_passed else 1
    return {"checks": checks, "all_passed": all_passed}, {}, code


# --- entry point -----------------------------------------------------------

_RUNNERS = {"eigen": _run_eigen, "steady": _run_steady,
            "simulate": _run_simulate, "sweep": _run_sweep}

_DEFAULT_VALIDATE_CONFIG = "experiment = validate\n"


def _write_error(out: Path, command: str, exc: Exception) -> None:
    payload = {"experiment": command, "error": str(exc),
               "error_type": type(exc).__name__}
    if isinstance(exc, ConfigError):
        payload["errors"] = exc.errors
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / ("error-%s.json" % command)).write_text(
            canonical_json(payload) + "\n")
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="priondyn",
        description="size-structured polymer growth/fragmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
            ("eigen", "frozen-level principal eigenvalue scan"),
            ("steady", "steady state and shape analysis"),
            ("simulate", "time integration of the coupled system"),
            ("sweep", "parameter sweep"),
            ("validate", "internal consistency battery")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=(name != "validate"),
                       help="path to the run configuration file")
        p.add_argument("--out", help="output directory (overrides output.dir)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if name == "validate":
            p.add_argument("--discrete", action="store_true",
                           help="also run the integer-chain cross-check")
            p.add_argument("--dump-operator", action="store_true",
                           help="write the dense generator matrix")
    args = parser.parse_args(argv)

    # errors land in ./out only while no parsed config names a directory
    out = Path(args.out or "out")
    try:
        if args.config:
            text = Path(args.config).read_text()
        else:
            text = _DEFAULT_VALIDATE_CONFIG
        cfg = parse_config(text)
        if not args.out:
            out = Path(cfg.out_dir)
        if cfg.experiment != args.command:
            raise ConfigError([
                "config: experiment %r does not match subcommand %r"
                % (cfg.experiment, args.command)])
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out.mkdir(parents=True, exist_ok=True)
        # a fresh run supersedes any error artifact a failed earlier
        # attempt left in the same output directory
        stale = out / ("error-%s.json" % args.command)
        if stale.exists():
            stale.unlink()
        echo = config_echo(cfg)
        tag = _digest(echo)
        t0 = time.perf_counter()
        if args.command == "validate":
            results, diagnostics, code = _run_validate(
                cfg, out, tag, args.discrete, args.dump_operator)
        else:
            results, diagnostics, code = _RUNNERS[args.command](cfg, out, tag)
        diagnostics["timings"] = {"seconds": time.perf_counter() - t0}
        record = ExperimentRecord(experiment=args.command, config_echo=echo,
                                  results=results, diagnostics=diagnostics)
        _write_json(out / ("%s-%s.json" % (args.command, tag)), record,
                    cfg.timings)
        return code
    except Exception as exc:  # any failure: error file + nonzero exit
        print(exc if isinstance(exc, ConfigError) else "error: %s" % exc,
              file=sys.stderr)
        _write_error(out, args.command, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
