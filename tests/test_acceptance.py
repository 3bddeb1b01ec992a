"""Acceptance battery: twelve checks, one verdict line each.

Every check prints "[C<k>] <name>: PASS/FAIL" so a bare `pytest -s`
run reads as a scorecard.  Tolerances are written as literal numbers on
purpose; loosening one should look like what it is.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from priondyn import (Bell, CoefficientSet, ScaledBell, SizeGrid,
                      adjoint_eigenpair, bimodality_report,
                      build_steady_state, compare_continuum,
                      default_calibration, detect_modes, growth_rate,
                      incubation_time, integrate, principal_eigenpair,
                      scan_lambda, seed_state, stability_experiment)
from priondyn.cli import main as cli_main
from priondyn.reference import (dilated_equilibrium_profile,
                                incubation_time_log_law, loss_rate_constant)
from priondyn.coefficients import Affine

from oracle import adjoint_profile, affine_family_loss_rate

CONST = CoefficientSet(production=2400.0, clearance=4.0)
BELL_001 = CoefficientSet(production=2400.0, clearance=4.0,
                          conversion=Bell(0.001, 0.01, 2.0, width_sq=0.1))
BELL_01 = CoefficientSet(production=2400.0, clearance=4.0,
                         conversion=Bell(0.001, 0.1, 2.0, width_sq=0.1))


def _verdict(cid, name, body):
    try:
        body()
    except BaseException:
        print("[%s] %s: FAIL" % (cid, name))
        raise
    print("[%s] %s: PASS" % (cid, name))


# --- shared expensive runs -------------------------------------------------

@pytest.fixture(scope="session")
def steady800():
    return build_steady_state(CONST, SizeGrid.uniform(30.0, 800))


@pytest.fixture(scope="session")
def bump_run():
    grid = SizeGrid.uniform(60.0, 800)
    initial = seed_state(BELL_001, grid, scale=1e-4, v_init=600.0)
    return integrate(BELL_001, grid, initial, t_end=200.0,
                     snapshot_times=(96.0,))


# --- C1: frozen-level loss rates -------------------------------------------

def test_c01_loss_rate_anchors():
    def body():
        t0 = time.perf_counter()
        grid = SizeGrid.uniform(30.0, 800)
        for v in (10.0, 100.0, 600.0):
            got = principal_eigenpair(CONST, grid, v).lambda_eig
            want = loss_rate_constant(0.001, 0.03, 0.05, v)
            assert abs(got - want) <= 0.01 * abs(want)
        errs = []
        for n in (100, 200, 400):
            g = SizeGrid.uniform(30.0, n)
            lam = principal_eigenpair(CONST, g, 100.0).lambda_eig
            errs.append(abs(lam - loss_rate_constant(0.001, 0.03, 0.05, 100.0)))
        order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
        assert order >= 0.8
        assert time.perf_counter() - t0 < 10.0
    _verdict("C1", "frozen-level loss rates", body)


# --- C2: coexistence equilibrium -------------------------------------------

def test_c02_equilibrium_anchors(steady800):
    def body():
        t0 = time.perf_counter()
        assert steady800.exists
        # closed forms of CONST: v_eq = decay0**2/(conv0*slope),
        # count = (production/v_eq - clearance)/conv0, mean size = decay0/slope
        assert abs(steady800.v_inf - 83.33333333333334) <= 0.01 * 83.33333333333334
        assert abs(steady800.rho_inf - 24800.0) <= 0.02 * 24800.0
        com = steady800.center_of_mass()
        assert abs(com - 1.6666666666666667) <= 0.01 * 1.6666666666666667
        assert time.perf_counter() - t0 < 10.0
    _verdict("C2", "coexistence equilibrium", body)


# --- C3: equilibrium profile shape -----------------------------------------

def test_c03_equilibrium_profile(steady800):
    def body():
        grid = steady800.grid
        shape = steady800.u_inf / steady800.rho_inf
        want = dilated_equilibrium_profile(grid.centers, 0.03, 0.05)
        l1 = float(np.abs(shape - want) @ grid.widths)
        assert l1 <= 0.02
    _verdict("C3", "equilibrium profile shape", body)


# --- C4: adjoint weight and the affine extension ---------------------------

def test_c04_adjoint_and_affine():
    def body():
        grid = SizeGrid.uniform(30.0, 800)
        adj = adjoint_eigenpair(CONST, grid, 600.0)
        x = grid.centers
        window = x <= 0.8 * 30.0
        want = adjoint_profile(x, 0.001, 0.03, 600.0)
        rel = np.abs(adj.phi_vec - want) / want
        assert rel[window].max() <= 0.02

        coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                                conversion=Affine(0.001, 0.0005),
                                fragmentation=Affine(0.01, 0.03))
        sol = principal_eigenpair(coeffs, SizeGrid.uniform(45.0, 1200), 100.0)
        want2 = affine_family_loss_rate(0.001, 0.0005, 0.01, 0.03, 0.05, 100.0)
        assert abs(sol.lambda_eig - want2) <= 0.02 * abs(want2)
    _verdict("C4", "adjoint weight and affine family", body)


# --- C5: conservation books over a long run --------------------------------

def test_c05_conservation_books(bump_run):
    def body():
        resid = np.asarray(bump_run.conservation_residuals)
        assert resid.size == bump_run.steps
        assert resid.max() <= 1e-8
    _verdict("C5", "conservation books, 200-day run", body)


# --- C6: time-domain growth matches the eigen rate -------------------------

def test_c06_growth_rate_consistency(bump_run):
    def body():
        fit = growth_rate(bump_run, window=(15.0, 40.0))
        eig = principal_eigenpair(BELL_001, bump_run.grid, 600.0).lambda_eig
        assert abs(fit.rate - (-eig)) <= 0.02 * abs(eig)
        assert fit.v_drift < 0.05
    _verdict("C6", "growth rate, fit vs eigen", body)


# --- C7: incubation log law ------------------------------------------------

def test_c07_incubation_log_law():
    def body():
        grid = SizeGrid.uniform(60.0, 400)
        lam = loss_rate_constant(0.001, 0.03, 0.05, 600.0)

        initial = seed_state(CONST, grid, scale=1e-6, v_init=600.0)
        traj = integrate(CONST, grid, initial, t_end=100.0)
        rho0 = traj.rho_series[0]
        res = incubation_time(traj, threshold=1e3 * rho0, inoculation=rho0)
        assert res.t_incubation is not None
        assert abs(res.t_incubation - 82.1) <= 0.10 * 82.1
        predicted = incubation_time_log_law(lam, 1e3)
        assert abs(res.t_incubation - predicted) <= 0.10 * predicted

        # dose response: T(d) = T(1) - ln(d)/|loss|, slope -1/|loss|
        doses = (0.25, 1.0, 4.0)
        t_incs = []
        threshold = 1e3 * rho0
        for d in doses:
            ini = seed_state(CONST, grid, scale=1e-6 * d, v_init=600.0)
            tr = integrate(CONST, grid, ini, t_end=120.0)
            t_incs.append(incubation_time(tr, threshold=threshold,
                                          inoculation=d * rho0).t_incubation)
        slope = np.polyfit(np.log(doses), t_incs, 1)[0]
        assert abs(slope - (-1.0 / abs(lam))) <= 0.10 / abs(lam)
    _verdict("C7", "incubation log law and dose slope", body)


# --- C8: bimodality and bump translation -----------------------------------

def test_c08_bimodality():
    def body():
        grid = SizeGrid.uniform(60.0, 800)
        ss = build_steady_state(BELL_01, grid)
        rep = bimodality_report(ss)
        assert rep.n_modes == 2
        assert rep.necessary_condition_met is True

        control = build_steady_state(CONST, SizeGrid.uniform(30.0, 800))
        assert bimodality_report(control).n_modes == 1

        # translate the bump across [0.5, 4] mean sizes: the split is
        # strongest with the peak nearest the measured center of mass
        # and fades with distance
        centers = (0.833, 1.667, 2.5, 3.333, 6.667)
        fractions, coms = [], []
        import dataclasses
        for m in centers:
            cs = dataclasses.replace(
                BELL_01, conversion=Bell(0.001, 0.1, m, width_sq=0.1))
            s = build_steady_state(cs, grid)
            rep = bimodality_report(s)
            fractions.append(rep.secondary_mass_fraction)
            coms.append(s.center_of_mass())
            assert abs(coms[-1] - 1.6666666666666667) <= 0.01 * 1.6666666666666667
        nearest = int(np.argmin([abs(m - np.mean(coms)) for m in centers]))
        assert int(np.argmax(fractions)) == nearest
        assert fractions[-1] < fractions[nearest]  # far peak splits weakly
    _verdict("C8", "two-hump profiles and bump translation", body)


# --- C9: fixed-area narrowing sweep ----------------------------------------

def test_c09_tightness_sweep():
    def body():
        t0 = time.perf_counter()
        grid = SizeGrid.uniform(60.0, 800)
        alphas = 10.0 ** np.linspace(-3.0, 0.0, 16)
        rates, n_modes = [], []
        for a in alphas:
            cs = CoefficientSet(production=2400.0, clearance=4.0,
                                conversion=ScaledBell(0.001, a, 8.0))
            sol = principal_eigenpair(cs, grid, 600.0)
            rates.append(-sol.lambda_eig)
            idx, _ = detect_modes(sol.u_vec)
            n_modes.append(max(1, idx.size))
        k = int(np.argmax(rates))
        assert 0 < k < len(alphas) - 1  # growth peaks strictly inside
        onset = next(i for i, m in enumerate(n_modes) if m >= 2)
        assert alphas[onset] > alphas[k]  # splitting begins past the peak
        assert time.perf_counter() - t0 < 120.0
    _verdict("C9", "narrowing sweep: interior max, late split", body)


# --- C10: stability dichotomy ----------------------------------------------

def test_c10_stability_dichotomy():
    def body():
        low = CoefficientSet(production=240.0, clearance=4.0)
        res = stability_experiment(low, SizeGrid.uniform(30.0, 200),
                                   epsilon=1e-3, t_end=400.0)
        assert res.verdict == "stable"

        grid = SizeGrid.uniform(60.0, 400)
        initial = seed_state(CONST, grid, scale=1e-3, v_init=600.0)
        traj = integrate(CONST, grid, initial, t_end=800.0)
        v_end = traj.v_series[-1]
        assert abs(v_end - 250.0 / 3.0) <= 0.02 * 250.0 / 3.0

        scan = scan_lambda(CONST, SizeGrid.uniform(30.0, 400),
                           [0.0, 60.0, 83.33, 250.0, 600.0])
        assert scan.decreasing  # one sign change certified by monotonicity
    _verdict("C10", "stability dichotomy", body)


# --- C11: integer-chain cross-check ----------------------------------------

def test_c11_discrete_cross_check():
    def body():
        out = compare_continuum(default_calibration())
        assert out["uninfected_max_rel_diff_v"] <= 1e-12
        assert out["growth_rel_diff"] <= 0.05
    _verdict("C11", "integer-chain cross-check", body)


# --- C12: byte-level determinism -------------------------------------------

def test_c12_determinism(tmp_path):
    def body():
        sim = "\n".join([
            "experiment = simulate",
            "simulate.t_end = 6.0",
            "simulate.seed_scale = 0.001",
            "simulate.snapshot_times = 3.0",
            "simulate.fit_start = 2.0",
            "simulate.fit_end = 5.0",
            "simulate.record_every = 4",
            "grid.xmax = 60.0",
            "grid.n = 150",
            "",
        ])
        sw = "\n".join([
            "experiment = sweep",
            "sweep.axis = tightness",
            "sweep.values = 0.05, 0.2, 0.8",
            "sweep.v_eval = 600.0",
            "model.conversion.shape = scaled_bell",
            "model.conversion.base = 0.001",
            "model.conversion.tightness = 0.1",
            "model.conversion.center = 8.0",
            "grid.xmax = 60.0",
            "grid.n = 150",
            "",
        ])
        for name, body_text in (("simulate", sim), ("sweep", sw)):
            cfg = tmp_path / (name + ".cfg")
            cfg.write_text(body_text)
            d1 = tmp_path / (name + "-a")
            d2 = tmp_path / (name + "-b")
            assert cli_main([name, "--config", str(cfg), "--out", str(d1)]) == 0
            assert cli_main([name, "--config", str(cfg), "--out", str(d2)]) == 0
            b1 = {p.name: p.read_bytes() for p in sorted(d1.iterdir())}
            b2 = {p.name: p.read_bytes() for p in sorted(d2.iterdir())}
            assert b1 == b2
    _verdict("C12", "byte-level determinism", body)
