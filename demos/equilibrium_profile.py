"""Build the coexistence equilibrium and inspect its shape.

The monomer level settles where the loss rate crosses zero; the polymer
count then follows from the monomer budget.  With flat transport the
stationary profile is a dilation of a universal hump, and a localized
transport speedup splits it in two.

Run: python3 demos/equilibrium_profile.py
"""

import numpy as np

from priondyn import (Bell, CoefficientSet, SizeGrid, bimodality_report,
                      build_steady_state, stationary_profile_check)
from priondyn.reference import dilated_equilibrium_profile

flat = CoefficientSet(production=2400.0, clearance=4.0)
grid = SizeGrid.uniform(30.0, 800)
ss = build_steady_state(flat, grid)

print("flat transport")
print("  monomer level : %.4f  (uninfected would sit at %.1f)" % (ss.v_inf, ss.vbar))
print("  polymer count : %.1f" % ss.rho_inf)
print("  mean size     : %.5f" % ss.center_of_mass())

shape = ss.u_inf / ss.rho_inf
closed = dilated_equilibrium_profile(grid.centers, 0.03, 0.05)
l1 = float(np.abs(shape - closed) @ grid.widths)
print("  L1 gap to the dilated closed form: %.3e" % l1)

chk = stationary_profile_check(ss)
print("  stationary-form residual: %.3e   edge-flux residual: %.3e"
      % (chk.ode_residual_norm, chk.flux_residual))

# now add a strong transport bump near x = 2 and watch the profile split
bumpy = CoefficientSet(production=2400.0, clearance=4.0,
                       conversion=Bell(0.001, 0.1, 2.0, width_sq=0.1))
wide = SizeGrid.uniform(60.0, 800)
ss2 = build_steady_state(bumpy, wide)
rep = bimodality_report(ss2)

print()
print("bell transport bump at x = 2")
print("  monomer level : %.4f" % ss2.v_inf)
print("  modes         : %d at %s" % (rep.n_modes,
                                      ["%.2f" % m for m in rep.mode_locations]))
print("  curvature condition met:", rep.necessary_condition_met)
print("  mass share beyond the valley: %.3f" % rep.secondary_mass_fraction)
