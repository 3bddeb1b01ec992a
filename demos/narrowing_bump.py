"""Narrow a fixed-area transport bump and watch the growth rate turn over.

Spreading the same transport budget thinly helps everywhere a little;
concentrating it into a spike helps almost nowhere.  In between sits a
best width.  Past the optimum the eigenprofile itself splits in two,
and the split begins only after the growth peak.

Run: python3 demos/narrowing_bump.py
"""

import numpy as np

from priondyn import (CoefficientSet, ScaledBell, SizeGrid, detect_modes,
                      principal_eigenpair)

grid = SizeGrid.uniform(60.0, 800)
alphas = 10.0 ** np.linspace(-3.0, 0.0, 16)

print("tightness   growth rate    modes")
rates, modes = [], []
for a in alphas:
    coeffs = CoefficientSet(production=2400.0, clearance=4.0,
                            conversion=ScaledBell(0.001, a, 8.0))
    sol = principal_eigenpair(coeffs, grid, 600.0)
    idx, _ = detect_modes(sol.u_vec)
    rates.append(-sol.lambda_eig)
    modes.append(idx.size)
    print("%9.5f   %+.8f   %d" % (a, rates[-1], modes[-1]))

k = int(np.argmax(rates))
onset = next(i for i, m in enumerate(modes) if m >= 2)
print()
print("best tightness %.5f (strictly inside the sweep: %s)"
      % (alphas[k], 0 < k < len(alphas) - 1))
print("profile first splits at tightness %.5f, after the optimum: %s"
      % (alphas[onset], alphas[onset] > alphas[k]))
