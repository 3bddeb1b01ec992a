"""Seed a healthy pool with a few polymers and time the outbreak.

While the seed is small the monomer level barely moves, so the count
grows at the frozen-level rate; the time to cross a detection threshold
then follows a logarithmic dose law.  The integrator keeps a per-step
mass book the whole way.

Run: python3 demos/outbreak_timeline.py
"""

import numpy as np

from priondyn import (CoefficientSet, SizeGrid, growth_rate, incubation_time,
                      integrate, seed_state)
from priondyn.reference import incubation_time_log_law, loss_rate_constant

coeffs = CoefficientSet(production=2400.0, clearance=4.0)
grid = SizeGrid.uniform(60.0, 400)

initial = seed_state(coeffs, grid, scale=1e-6, v_init=600.0)
traj = integrate(coeffs, grid, initial, t_end=100.0)

resid = max(traj.conservation_residuals)
print("steps %d, rejections %d, worst mass-book residual %.2e"
      % (traj.steps, traj.rejections, resid))

fit = growth_rate(traj, window=(15.0, 40.0))
lam = loss_rate_constant(0.001, 0.03, 0.05, 600.0)
print("fitted growth %.6f vs frozen-level %.6f  (drift %.2e, R2 %.6f)"
      % (fit.rate, -lam, fit.v_drift, fit.r_squared))

rho0 = traj.rho_series[0]
res = incubation_time(traj, threshold=1e3 * rho0, inoculation=rho0)
print("threshold crossed at t = %.2f  (log law predicts %.2f)"
      % (res.t_incubation, incubation_time_log_law(lam, 1e3)))

# quadruple the dose and the crossing comes earlier by ln(4)/|loss|
big = seed_state(coeffs, grid, scale=4e-6, v_init=600.0)
traj4 = integrate(coeffs, grid, big, t_end=100.0)
res4 = incubation_time(traj4, threshold=1e3 * rho0, inoculation=4.0 * rho0)
print("4x dose: t = %.2f, shift %.2f vs ln(4)/|loss| = %.2f"
      % (res4.t_incubation, res.t_incubation - res4.t_incubation,
         np.log(4.0) / abs(lam)))
print("pure log law at ratio 1000:",
      "%.2f" % incubation_time_log_law(lam, 1e3))
