"""Correctness checks on the program's outputs.

Every reference value here is computed in this file from closed forms or
from properties the method must have; nothing is read from the package's
own reference module and no earlier output is stored.  Each check returns
a list of problems, empty when the output passes.

Model constants are the config defaults the shipped configs rely on:
flat conversion 0.001, splitting slope 0.03, decay 0.05, production 2400,
clearance 4.
"""

from __future__ import annotations

import glob
import json
import math
from pathlib import Path

import numpy as np

CONV0, SLOPE, DECAY0 = 0.001, 0.03, 0.05
PRODUCTION, CLEARANCE = 2400.0, 4.0

FLAT_REL_TOL = 0.01          # flat loss rate against its closed form
SHRINK_MAX_LEVEL = 1000.0    # below this the xmax=30 truncation is negligible
CONTROL_REL_TOL = 1e-3       # control root and count (measured 6e-5 at n=800)
PROFILE_L1_TOL = 0.02        # control profile against the closed-form shape
COM_REL_TOL = 0.01           # centre of mass against decay0/slope
BALANCE_REL_TOL = 1e-9       # monomer balance, recomputed from the written profile
GROWTH_REL_TOL = 0.02        # flat outbreak growth against its closed form
INCUBATION_REL_TOL = 0.05    # flat incubation time against the log law
BOOKS_TOL = 1e-8             # mass-book residuals
TWIN_GROWTH_TOL = 0.05       # chain against continuum growth, relative to closed form
TWIN_PATH_TOL = 1e-12        # uninfected monomer path, chain against continuum
MODE_PROMINENCE = 0.01       # a hump must stand this share of the peak above its valley


# --- closed forms --------------------------------------------------------------

def flat_loss_rate(v, conv0=CONV0, slope=SLOPE, decay0=DECAY0):
    """decay0 - sqrt(conv0*slope*v), the loss rate of the flat model."""
    return decay0 - np.sqrt(conv0 * slope * np.asarray(v, dtype=float))


def control_root(conv0=CONV0, slope=SLOPE, decay0=DECAY0):
    return decay0 ** 2 / (conv0 * slope)


def control_count(production, clearance=CLEARANCE, conv0=CONV0, slope=SLOPE, decay0=DECAY0):
    return (production / control_root(conv0, slope, decay0) - clearance) / conv0


def control_profile(x, slope=SLOPE, decay0=DECAY0):
    """Equilibrium shape of the flat model, unit count on the given cells.

    With r = x*slope/decay0 the stationary density is proportional to
    (r + r**2/2)*exp(-r - r**2/2); it solves
    u'' + u' + (r*u)' + 2u = 0, the differentiated stationary equation at
    v = decay0**2/(conv0*slope) in rescaled size.
    """
    r = np.asarray(x, dtype=float) * slope / decay0
    return (r + 0.5 * r * r) * np.exp(-r - 0.5 * r * r)


def bell(x, base, amplitude, center, width_sq):
    x = np.asarray(x, dtype=float)
    return base + amplitude * np.exp(-((x - center) ** 2) / width_sq)


# --- single checks ---------------------------------------------------------------

def check_decreasing(levels, loss, label):
    loss = np.asarray(loss, dtype=float)
    if loss.size < 2 or not np.all(np.diff(loss) < 0.0):
        return ["%s: loss rates not strictly decreasing in v: %s" % (label, loss.tolist())]
    return []


def check_flat_closed_form(levels, loss, label, tol=FLAT_REL_TOL):
    """Within tol of the closed form, relative to the loss rate or, where it
    crosses zero (v near decay0**2/(conv0*slope)), to decay0."""
    ref = flat_loss_rate(levels)
    err = np.abs(np.asarray(loss, dtype=float) - ref) / np.maximum(np.abs(ref), DECAY0)
    bad = [(float(v), float(e)) for v, e in zip(levels, err) if not e <= tol]
    if bad:
        return ["%s: loss rate off its closed form by more than %g at %s" % (label, tol, bad)]
    return []


def check_error_shrinks(errors_by_n):
    """errors_by_n: {n: (levels, abs errors)}; levels shared by every n."""
    problems = []
    ns = sorted(errors_by_n)
    for a, b in zip(ns, ns[1:]):
        la, ea = errors_by_n[a]
        lb, eb = errors_by_n[b]
        for v, x, y in zip(la, ea, eb):
            if v <= SHRINK_MAX_LEVEL and not y < x:
                problems.append("flat ladder: error at v=%g does not shrink from n=%d (%.3e) "
                                "to n=%d (%.3e)" % (v, a, x, b, y))
    return problems


def check_narrowing(values, growth, n_modes):
    """Growth peaks strictly inside the tightness range; two modes start past it."""
    growth = np.asarray(growth, dtype=float)
    if not np.all(np.isfinite(growth)):
        return ["fig7: non-finite growth rates %s" % growth.tolist()]
    best = int(np.argmax(growth))
    problems = []
    if best in (0, len(values) - 1):
        problems.append("fig7: growth maximum at the edge of the tightness range (item %d)" % best)
    onset = next((i for i, k in enumerate(n_modes) if k >= 2), None)
    if onset is None or not onset > best:
        problems.append("fig7: two modes do not start past the growth maximum "
                        "(maximum at item %d, onset at %s)" % (best, onset))
    return problems


def count_humps(u, prominence=MODE_PROMINENCE, boundary=2):
    """Interior humps of a profile after 3-point smoothing.

    A local maximum counts when the valley separating it from the next
    kept hump lies at least ``prominence`` of the global peak below both.
    """
    u = np.asarray(u, dtype=float)
    sm = u.copy()
    sm[1:-1] = (u[:-2] + u[1:-1] + u[2:]) / 3.0
    floor = prominence * float(sm.max())
    peaks = [i for i in range(max(1, boundary), len(sm) - max(1, boundary))
             if sm[i] > sm[i - 1] and sm[i] >= sm[i + 1]]
    kept: list = []
    for p in peaks:
        if not kept:
            kept.append(p)
            continue
        q = kept[-1]
        valley = float(sm[q:p + 1].min())
        if min(sm[q], sm[p]) - valley >= floor:
            kept.append(p)
        elif sm[p] > sm[q]:
            kept[-1] = p
    return len(kept)


def check_centre_of_mass(com, label, tol=COM_REL_TOL):
    target = DECAY0 / SLOPE
    if not abs(com - target) <= tol * target:
        return ["%s: centre of mass %.6g is not within %g of decay0/slope = %.6g"
                % (label, com, tol, target)]
    return []


def check_monomer_balance(v_inf, x, h, u_inf, conv, production, clearance, label,
                          tol=BALANCE_REL_TOL):
    """production = v_inf*(clearance + <conv, u_inf>), from the written profile."""
    rhs = v_inf * (clearance + float(np.sum(conv * u_inf * h)))
    if not abs(rhs - production) <= tol * production:
        return ["%s: monomer balance off by %.3e (production %.10g, v_inf*(...) %.10g)"
                % (label, abs(rhs - production) / production, production, rhs)]
    return []


def check_control(v_inf, count, x, h, u_inf, production, tol=CONTROL_REL_TOL,
                  l1_tol=PROFILE_L1_TOL):
    problems = []
    v_ref, c_ref = control_root(), control_count(production)
    if not abs(v_inf - v_ref) <= tol * v_ref:
        problems.append("control: v_inf %.8g is not within %g of %.8g" % (v_inf, tol, v_ref))
    if not abs(count - c_ref) <= tol * c_ref:
        problems.append("control: count %.8g is not within %g of %.8g" % (count, tol, c_ref))
    u = np.asarray(u_inf, dtype=float)
    f = control_profile(x)
    u_unit = u / float(np.sum(u * h))
    f_unit = f / float(np.sum(f * h))
    l1 = float(np.sum(np.abs(u_unit - f_unit) * h))
    if not l1 <= l1_tol:
        problems.append("control: profile is %.4f from the closed-form shape in L1 (limit %g)"
                        % (l1, l1_tol))
    return problems


def check_translation(centres, fractions, coms):
    """Each centre of mass at decay0/slope; the split strongest at the nearest centre."""
    problems = []
    for c, com in zip(centres, coms):
        problems += check_centre_of_mass(com, "fig4 centre %.4g" % c)
    target = DECAY0 / SLOPE
    nearest = int(np.argmin(np.abs(np.asarray(centres) - target)))
    strongest = int(np.argmax(fractions))
    if nearest != strongest:
        problems.append("fig4: split strongest at centre %.4g, nearest the centre of mass is %.4g"
                        % (centres[strongest], centres[nearest]))
    return problems


def check_flat_outbreak(slope, growth, t_inc, rho0, threshold, label,
                        growth_tol=GROWTH_REL_TOL, inc_tol=INCUBATION_REL_TOL):
    vbar = PRODUCTION / CLEARANCE
    ref = -float(flat_loss_rate(vbar, slope=slope))
    problems = []
    if growth is None or not abs(growth - ref) <= growth_tol * ref:
        problems.append("%s: growth rate %s is not within %g of %.6g"
                        % (label, growth, growth_tol, ref))
    law = math.log(threshold / rho0) / ref
    if t_inc is None or not abs(t_inc - law) <= inc_tol * law:
        problems.append("%s: incubation time %s is not within %g of the log law %.6g"
                        % (label, t_inc, inc_tol, law))
    return problems


def check_incubation_order(amplitudes, t_inc):
    if any(t is None for t in t_inc):
        return ["fig5: threshold not reached: %s" % (t_inc,)]
    order = np.argsort(amplitudes)
    t = np.asarray(t_inc, dtype=float)[order]
    if not np.all(np.diff(t) < 0.0):
        return ["fig5: incubation time does not decrease with bump amplitude: %s" % t.tolist()]
    return []


def check_books(residual, label, tol=BOOKS_TOL):
    if not residual <= tol:
        return ["%s: mass-book residual %.3e above %g" % (label, residual, tol)]
    return []


def check_twin(report, calib, growth_tol=TWIN_GROWTH_TOL, path_tol=TWIN_PATH_TOL):
    vbar = calib.production / calib.clearance
    closed = math.sqrt(calib.conversion * calib.fragmentation * vbar) - calib.decay
    gd, gc = report["growth_rate_discrete"], report["growth_rate_continuum"]
    problems = []
    if not abs(gd - gc) <= growth_tol * abs(closed):
        problems.append("chain twin: growth %.6g against %.6g differs by more than %g of %.6g"
                        % (gd, gc, growth_tol, closed))
    if not report["uninfected_max_rel_diff_v"] <= path_tol:
        problems.append("chain twin: uninfected monomer paths differ by %.3e"
                        % report["uninfected_max_rel_diff_v"])
    problems += check_books(report["mass_residual_max"], "chain twin")
    return problems


def check_failed_solve(solution, ladder_loss_at_64, label):
    """A bump solve at v=8 that converges must give a Perron pair above the v~64 rate."""
    u, h = solution.u_vec, solution.grid.widths
    problems = []
    if u is None or not np.all(u >= 0.0) or not abs(float(u @ h) - 1.0) <= 1e-9:
        problems.append("%s: eigenvector not a nonnegative unit-count profile" % label)
    if not (math.isfinite(solution.lambda_eig) and solution.lambda_eig > ladder_loss_at_64):
        problems.append("%s: loss rate %r not above %r at the next level"
                        % (label, solution.lambda_eig, ladder_loss_at_64))
    return problems


# --- reading the outputs ---------------------------------------------------------

def _one(out: Path, pattern: str) -> Path:
    found = sorted(glob.glob(str(out / pattern)))
    if len(found) != 1:
        raise FileNotFoundError("expected one %s in %s, found %d" % (pattern, out, len(found)))
    return Path(found[0])


def read_json(out: Path, pattern: str) -> dict:
    return json.loads(_one(out, pattern).read_text())


def read_items(out: Path) -> list:
    paths = sorted(glob.glob(str(out / "sweep-*-item-*.json")))
    return [json.loads(Path(p).read_text()) for p in paths]


def read_profile(out: Path):
    data = np.loadtxt(_one(out, "steady-*-profile.csv"), delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1]


def _same(a, b):
    return len(a) == len(b) and np.allclose(a, b, rtol=1e-12, atol=0.0)


# --- one round -------------------------------------------------------------------

def check_round(ops, results, failure_type) -> list:
    """Run every check of one round.  ``results`` maps op name to what it returned."""
    problems: list = []
    ladders: dict = {}

    def eigen_record(op):
        rec = read_json(op.out, "eigen-*.json")["results"]
        if not _same(rec["v_values"], op.params["levels"]):
            problems.append("%s: levels in the record differ from the config" % op.name)
        levels, loss = np.asarray(rec["v_values"]), np.asarray(rec["loss_rates"])
        ladders[op.name] = (op.kind, op.params.get("n"), levels, loss)
        return levels, loss

    for op in ops:
        res = results[op.name]
        if op.expect_fail:
            if isinstance(res, failure_type):
                continue
            if isinstance(res, BaseException):
                problems.append("%s: failed with %s: %s" % (op.name, type(res).__name__, res))
            continue
        if op.failed(res):
            problems.append("%s: operation failed (%r)" % (op.name, res))
            continue
        try:
            problems += _check_op(op, res, eigen_record)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append("%s: output unreadable: %s: %s" % (op.name, type(exc).__name__, exc))

    flat = {n: (levels, np.abs(loss - flat_loss_rate(levels)))
            for kind, n, levels, loss in ladders.values() if kind == "flat-ladder"}
    if flat:
        problems += check_error_shrinks(flat)
    bump_next = next((loss[0] for kind, n, levels, loss in ladders.values()
                      if kind == "bump-ladder" and n == 1600), None)
    for op in ops:
        res = results[op.name]
        if op.kind == "bump-v8" and not isinstance(res, BaseException):
            if bump_next is None:
                problems.append("%s: no n=1600 bump ladder to compare with" % op.name)
            else:
                problems += check_failed_solve(res, bump_next, op.name)
    return problems


def _check_op(op, res, eigen_record) -> list:
    kind, p = op.kind, op.params
    if kind in ("flat-ladder", "flat-scan"):
        levels, loss = eigen_record(op)
        out = check_decreasing(levels, loss, op.name)
        out += check_flat_closed_form(levels, loss, op.name)
        return out
    if kind in ("bump-ladder", "bump-scan"):
        levels, loss = eigen_record(op)
        return check_decreasing(levels, loss, op.name)
    if kind == "narrowing":
        s = read_json(op.out, "sweep-??????????.json")["results"]
        return check_narrowing(s["values"], s["growth_rate"], s["n_modes"])
    if kind in ("two-hump", "control"):
        r = read_json(op.out, "steady-*.json")["results"]
        x, u_inf = read_profile(op.out)
        h = np.full_like(x, 2.0 * x[0])    # uniform cells from x0 = 0
        if kind == "control":
            conv = np.full_like(x, CONV0)
            out = check_control(r["v_inf"], r["rho_inf"], x, h, u_inf, p["production"])
            if r["n_modes"] != 1 or count_humps(u_inf) != 1:
                out.append("control: expected one hump, record says %d" % r["n_modes"])
        else:
            conv = bell(x, 0.001, 0.1, p["centre"], 0.1)
            out = []
            humps = count_humps(u_inf)
            if r["n_modes"] != 2 or humps != 2:
                out.append("fig3: expected two humps, record says %d, profile shows %d"
                           % (r["n_modes"], humps))
        out += check_centre_of_mass(r["center_of_mass"], op.name)
        out += check_monomer_balance(r["v_inf"], x, h, u_inf, conv,
                                     p["production"], CLEARANCE, op.name)
        return out
    if kind == "translation":
        items = [it["results"] for it in read_items(op.out)]
        if len(items) != len(p["centres"]):
            return ["fig4: %d items for %d centres" % (len(items), len(p["centres"]))]
        return check_translation(p["centres"], [it["secondary_mass_fraction"] for it in items],
                                 [it["center_of_mass"] for it in items])
    if kind in ("flat-outbreak", "bump-outbreak"):
        items = read_items(op.out)
        values = p["slopes"] if kind == "flat-outbreak" else p["amplitudes"]
        if len(items) != len(values) or any("error" in it["diagnostics"] for it in items):
            return ["%s: %d good items for %d values" % (op.name, len(items), len(values))]
        out = []
        for v, it in zip(values, items):
            r, d = it["results"], it["diagnostics"]
            label = "%s item %.4g" % (op.name, v)
            out += check_books(d["max_conservation_residual"], label)
            if kind == "flat-outbreak":
                out += check_flat_outbreak(v, r["measured_growth_rate"], r["t_incubation"],
                                           r["rho0"], r["threshold"], label)
        if kind == "bump-outbreak":
            out += check_incubation_order(values, [it["results"]["t_incubation"] for it in items])
        return out
    if kind == "chain-twin":
        return check_twin(res, p["calibration"])
    raise ValueError("no check for operation kind %r" % kind)
