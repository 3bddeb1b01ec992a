"""Scan the frozen-level loss rate and compare with the closed form.

At a frozen monomer level v the polymer ensemble decays (or grows) at
the principal loss rate of the transport-splitting-decay generator.
For flat transport and origin-anchored linear splitting that rate is
known exactly, which makes this the first thing worth checking on any
new grid.

Run: python3 demos/loss_rate_scan.py
"""

import numpy as np

from priondyn import CoefficientSet, SizeGrid, scan_lambda
from priondyn.reference import loss_rate_constant

coeffs = CoefficientSet(production=2400.0, clearance=4.0)
grid = SizeGrid.uniform(30.0, 800)

levels = [0.0, 10.0, 40.0, 83.33, 100.0, 300.0, 600.0]
scan = scan_lambda(coeffs, grid, levels)

print("level      loss rate     closed form   rel err")
for v, lam in zip(scan.v_values, scan.lambda_values):
    want = loss_rate_constant(0.001, 0.03, 0.05, v)
    rel = abs(lam - want) / max(abs(want), 1e-300)
    print("%6.2f   %+.8f   %+.8f   %.2e" % (v, lam, want, rel))

print()
print("monotone decreasing:", scan.decreasing)
print("sign at largest level:", scan.sign_at_largest)
print("loss rate at v=0 (the decay floor, 0.05):", scan.lambda_values[0])

# the crossing of zero marks the invasion threshold: below it seeds die
# out, above it they take off
signs = np.sign(scan.lambda_values)
flip = np.argmax(signs < 0)
print("first growing level in the ladder: v = %g" % scan.v_values[flip])
