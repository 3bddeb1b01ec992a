"""Command-line harness: one subcommand per experiment, and the parameter
sweeps built on them.

Every run reads a plain-text config, executes, and drops deterministic
output files (CSV tables plus a JSON record) into the output directory.
Each runner returns its results, diagnostics and exit code; ``main``
writes them as the one JSON record of the run.  File names embed a digest
of the canonical config echo so different configurations never collide;
rerunning the same configuration overwrites byte-identically unless
``output.timings = true`` adds wall-clock seconds to the records.
Failures still write a machine-readable error file and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import reference
from .config import (SWEEP_AXES, ConfigError, RunConfig, config_echo,
                     parse_config, sweep_axis_error)
from .dynamics import (IntegratorFailure, growth_rate, incubation_time,
                       integrate, line_fit, seed_state)
from .eigen import loss_rate_at_vbar, principal_eigenpair, scan_lambda
from .records import (ExperimentRecord, canonical_json, grid_hash,
                      sha256_hex, write_csv)
from .steady import bimodality_report, build_steady_state, detect_modes

__all__ = ["main", "sweep"]


def _digest(echo: dict) -> str:
    return sha256_hex(canonical_json(echo).encode())[:10]


def _write_json(path: Path, record: ExperimentRecord) -> None:
    path.write_text(record.to_json() + "\n")


def _steady(coeffs, grid):
    """Steady state, its result keys and its root diagnostics, shared by
    the steady runner and each sweep item of a steady summary."""
    ss = build_steady_state(coeffs, grid)
    rep = bimodality_report(ss)
    results = {"v_inf": ss.v_inf, "rho_inf": ss.rho_inf, "exists": ss.exists,
               "center_of_mass": rep.center_of_mass, "n_modes": rep.n_modes,
               "mode_locations": rep.mode_locations,
               "secondary_mass_fraction": rep.secondary_mass_fraction}
    if rep.necessary_condition_met is not None:
        results["necessary_condition_met"] = rep.necessary_condition_met
    root = {"root_evaluations": ss.root.evaluations,
            "root_iterations": ss.root.solution.iterations,
            "root_loss_rate": ss.root.solution.lambda_eig,
            "root_sign_tests": ss.root.sign_tests}
    return ss, results, root


def _outbreak(cfg: RunConfig, grid, threshold: Optional[float] = None):
    """Seed cfg.seed_scale unit inocula and integrate cfg.coeffs with the
    simulate.* keys; the one outbreak summary of simulate runs and
    integrating sweep items.

    Returns (trajectory, results, health).  On an IntegratorFailure the
    trajectory is None, the results hold the last valid state and the
    health the error.  Otherwise the health lists the snapshot instants not
    taken, and the results hold the inoculum count, the snapshot instants
    and, for a nonzero inoculum, the crossing of ``threshold`` (by default
    threshold_ratio times the inoculum count).
    """
    initial = seed_state(cfg.coeffs, grid, scale=cfg.seed_scale, v_init=cfg.v_init)
    try:
        traj = integrate(cfg.coeffs, grid, initial, cfg.t_end,
                         snapshot_times=cfg.snapshot_times, dt_max=cfg.dt_max)
    except IntegratorFailure as exc:
        return (None, {"failed_at": exc.state.t, "v_last": exc.state.v},
                {"error": str(exc), "error_type": "IntegratorFailure"})
    taken = [ts for ts, _ in traj.snapshots]
    health = dict(
        max_conservation_residual=traj.max_residual,
        truncation_flux_total=traj.truncation_flux_total,
        steps=traj.steps, rejections=traj.rejections,
        rhs_evaluations=traj.rhs_evaluations,
        steps_by_limit=traj.steps_by_limit,
        partitioned_steps=traj.partitioned_steps,
        max_partition_cells=traj.max_partition_cells,
        dropped_snapshot_times=[s for s in cfg.snapshot_times if s not in taken])
    rho0 = initial.moment0()
    results = {"rho0": rho0, "snapshot_times": taken}
    if rho0 > 0.0:
        if threshold is None:
            threshold = cfg.threshold_ratio * rho0
        inc = incubation_time(traj, threshold, rho0)
        results.update(threshold=threshold, t_incubation=inc.t_incubation,
                       measured_growth_rate=inc.measured_growth_rate)
    return traj, results, health


def _written_rows(cfg: RunConfig, traj) -> np.ndarray:
    """Rows an outbreak writes: 0, every record_every-th step and the last."""
    return np.append(np.arange(0, traj.steps, cfg.record_every), traj.steps)


# --- experiment runners ----------------------------------------------------

def _run_eigen(cfg: RunConfig, out: Path, tag: str):
    grid = cfg.make_grid()
    scan = scan_lambda(cfg.coeffs, grid, cfg.eigen_v_values)
    results = {
        "v_values": scan.v_values,
        "loss_rates": scan.lambda_values,
        "growth_rates": scan.growth_rates,
        "decreasing": scan.decreasing,
        "sign_at_largest": scan.sign_at_largest,
    }
    residuals, iters, solves = [], [], []
    for k, sol in enumerate(scan.solutions):
        residuals.append(sol.residual)
        iters.append(sol.iterations)
        solves.append(sol.shifted_solves)
        if sol.u_vec is not None:
            write_csv(out / ("eigen-%s-v%02d.csv" % (tag, k)),
                      ["x", "density"], [grid.centers, sol.u_vec])
    write_csv(out / ("eigen-%s.csv" % tag),
              ["v", "loss_rate", "growth_rate", "residual", "iterations"],
              [scan.v_values, scan.lambda_values, scan.growth_rates,
               np.asarray(residuals), np.asarray(iters, dtype=float)])
    return results, {"grid_hash": grid_hash(grid), "residuals": residuals,
                     "iterations": iters, "shifted_solves": solves}, 0


def _run_steady(cfg: RunConfig, out: Path, tag: str):
    grid = cfg.make_grid()
    ss, results, root = _steady(cfg.coeffs, grid)
    if ss.u_inf is not None:
        write_csv(out / ("steady-%s-profile.csv" % tag),
                  ["x", "density"], [grid.centers, ss.u_inf])
    return results, {"grid_hash": grid_hash(grid), **root}, 0


def _run_simulate(cfg: RunConfig, out: Path, tag: str):
    grid = cfg.make_grid()
    traj, outbreak, health = _outbreak(cfg, grid)
    diagnostics = {"grid_hash": grid_hash(grid), **health}
    if traj is None:
        return outbreak, diagnostics, 1

    rows = _written_rows(cfg, traj)
    # a written row's residual is the largest since the previous written row
    residual = np.maximum.reduceat(traj.conservation_residuals, rows[:-1])
    write_csv(out / ("simulate-%s-trajectory.csv" % tag),
              ["t", "v", "polymer_count", "polymer_mass",
               "conservation_residual"],
              [traj.times[rows], traj.v_series[rows], traj.rho_series[rows],
               traj.p_series[rows], np.concatenate(([0.0], residual))])
    for k, (ts, uu) in enumerate(traj.snapshots):
        write_csv(out / ("simulate-%s-snap-%02d.csv" % (tag, k)),
                  ["x", "density"], [grid.centers, uu])

    results = {"t_end": traj.times[-1], "v_final": traj.v_series[-1],
               "count_final": traj.rho_series[-1],
               "mass_final": traj.p_series[-1], **outbreak}
    lam_vbar = loss_rate_at_vbar(cfg.coeffs, grid)
    if lam_vbar is not None:
        results["loss_rate_at_vbar"] = lam_vbar
    try:
        fit = growth_rate(traj, (cfg.fit_start, cfg.fit_end))
        results.update(growth_rate=fit.rate, growth_r_squared=fit.r_squared,
                       growth_v_drift=fit.v_drift)
    except ValueError as exc:
        diagnostics["growth_fit_skipped"] = str(exc)
    if "threshold" in outbreak:
        results["incubation_predicted"] = (
            reference.incubation_time_log_law(lam_vbar, cfg.threshold_ratio)
            if lam_vbar is not None and lam_vbar < 0.0 else None)
    return results, diagnostics, 0


# summary an axis runs -> the per-item result keys of the sweep table
_SWEEP_COLUMNS = {
    "level": ("loss_rate", "growth_rate", "conv_average", "n_modes"),
    "steady": ("v_inf", "n_modes", "center_of_mass", "secondary_mass_fraction"),
    "outbreak": ("rho0", "t_incubation", "measured_growth_rate"),
}


def _run_sweep(cfg: RunConfig, out: Path, tag: str):
    records = sweep(cfg)
    for k, rec in enumerate(records):
        _write_json(out / ("sweep-%s-item-%02d.json" % (tag, k)), rec)
    axis = cfg.sweep_axis
    values = list(cfg.sweep_values)
    keys = _SWEEP_COLUMNS[SWEEP_AXES[axis][0]]
    # NaN where an item lacks the result: it failed, or never crossed
    cols = {k: [float("nan") if rec.results.get(k) is None else float(rec.results[k])
                for rec in records] for k in keys}
    write_csv(out / ("sweep-%s.csv" % tag), ["value"] + list(keys),
              [np.asarray(values, dtype=float)]
              + [np.asarray(cols[k]) for k in keys])

    summary: dict = {"axis": axis, "values": values,
                     "n_failed": sum("error" in rec.diagnostics for rec in records), **cols}
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
        log_dose = np.log(np.asarray(values)[good])
        # a slope needs two distinct doses that crossed the threshold
        summary["slope_fitted"] = summary["slope_predicted"] = None
        if np.unique(log_dose).size >= 2:
            summary["slope_fitted"] = line_fit(log_dose, tinc[good])[0]
            lam = loss_rate_at_vbar(cfg.coeffs, cfg.make_grid())
            if lam is not None and lam <= 0.0:
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
    echo = {**config_echo(base), "sweep_axis": axis, "sweep_value": float(value)}
    summary, rate, _, param = SWEEP_AXES[axis]
    try:
        # the row's one edit: a parameter of a rate, else a run field
        edit = {param: value}
        if rate is not None:
            edit = {"coeffs": replace(base.coeffs, **{
                rate: replace(getattr(base.coeffs, rate), **edit)})}
        cfg = replace(base, **edit)
        grid = cfg.make_grid()
        diagnostics: dict = {"grid_hash": grid_hash(grid)}
        if summary == "level":
            v_eval = cfg.sweep_v_eval if cfg.sweep_v_eval is not None else cfg.coeffs.vbar
            sol = principal_eigenpair(cfg.coeffs, grid, v_eval)
            conv_avg = float((sol.generator.conversion * sol.u_vec) @ grid.widths)
            idx, _ = detect_modes(sol.u_vec)
            results = {
                "v_eval": float(v_eval),
                "loss_rate": sol.lambda_eig,
                "growth_rate": sol.growth_rate,
                "conv_average": conv_avg,
                "n_modes": int(idx.size),
                "mode_locations": grid.centers[idx],
            }
            diagnostics.update(residual=sol.residual, iterations=sol.iterations,
                               shifted_solves=sol.shifted_solves)
        elif summary == "steady":
            _, results, root = _steady(cfg.coeffs, grid)
            diagnostics.update(root)
        else:
            traj, results, health = _outbreak(cfg, grid, fixed_threshold)
            diagnostics.update(health)
            if traj is not None:
                rows = _written_rows(cfg, traj)
                results.update(times=traj.times[rows], rho_series=traj.rho_series[rows],
                               v_series=traj.v_series[rows],
                               # unit-count profiles: the size distribution's shape
                               snapshot_profiles=[uu / (uu @ grid.widths)
                                                  for _, uu in traj.snapshots])
    except Exception as exc:  # per-value isolation: a bad value must not kill the sweep
        results = {}
        diagnostics = {"error": str(exc), "error_type": type(exc).__name__}
    if base.timings:
        diagnostics["timings"] = {"seconds": time.perf_counter() - t_start}
    return ExperimentRecord(experiment="sweep", config_echo=echo,
                            results=results, diagnostics=diagnostics)


def sweep(base: RunConfig) -> list:
    """Run one item per value along base's sweep axis, as its row of
    config.SWEEP_AXES says; dose items share one threshold, set by the
    largest dose, which crosses at exactly the configured ratio.  An axis
    that does not fit the configured shapes raises ValueError before any
    item runs; a failing value yields an error record and the rest of the
    sweep continues.
    """
    axis, values = base.sweep_axis, base.sweep_values
    mismatch = sweep_axis_error(base.coeffs, axis)
    if mismatch:
        raise ValueError(mismatch)
    fixed_threshold = None
    if axis == "dose":
        unit = seed_state(base.coeffs, base.make_grid(), v_init=base.v_init)
        fixed_threshold = base.threshold_ratio * max(values) * unit.moment0()
    return [_sweep_item(base, axis, v, fixed_threshold) for v in values]


# --- entry point -----------------------------------------------------------

# command -> (runner, help); config.EXPERIMENTS names the same commands
_RUNNERS = {
    "eigen": (_run_eigen, "frozen-level principal eigenvalue scan"),
    "steady": (_run_steady, "steady state and shape analysis"),
    "simulate": (_run_simulate, "time integration of the coupled system"),
    "sweep": (_run_sweep, "parameter sweep"),
}


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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="priondyn",
        description="size-structured polymer growth/fragmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc) in _RUNNERS.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True,
                       help="path to the run configuration file")
        p.add_argument("--out", help="output directory (overrides output.dir)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    # errors land in ./out only while no parsed config names a directory
    out = Path(args.out or "out")
    try:
        cfg = parse_config(Path(args.config).read_text())
        if not args.out:
            out = Path(cfg.out_dir)
        if cfg.experiment != args.command:
            raise ConfigError([
                "config: experiment %r does not match subcommand %r"
                % (cfg.experiment, args.command)])
        out.mkdir(parents=True, exist_ok=True)
        # a fresh run supersedes any error artifact a failed earlier
        # attempt left in the same output directory
        stale = out / ("error-%s.json" % args.command)
        if stale.exists():
            stale.unlink()
        echo = config_echo(cfg)
        tag = _digest(echo)
        t0 = time.perf_counter()
        results, diagnostics, code = _RUNNERS[args.command][0](cfg, out, tag)
        if cfg.timings:
            diagnostics["timings"] = {"seconds": time.perf_counter() - t0}
        record = ExperimentRecord(experiment=args.command, config_echo=echo,
                                  results=results, diagnostics=diagnostics)
        _write_json(out / ("%s-%s.json" % (args.command, tag)), record)
        return code
    except Exception as exc:  # any failure: error file + nonzero exit
        print(exc if isinstance(exc, ConfigError) else "error: %s" % exc,
              file=sys.stderr)
        _write_error(out, args.command, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
