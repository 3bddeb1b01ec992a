"""Check the continuum solver against an integer-size chain.

The chain tracks every polymer size as its own variable and needs no
grid, kernel, or boundary choices, so it is a genuinely independent
witness.  With matched constant rates the two models must agree on the
uninfected monomer path exactly and on the seeded growth rate closely.

Run: python3 demos/chain_cross_check.py
"""

from priondyn import compare_continuum, default_calibration

params = default_calibration()
print("chain: sizes %d..%d, conversion %g, fragmentation %g, decay %g"
      % (params.n0, params.n_max, params.conversion,
         params.fragmentation, params.decay))

out = compare_continuum(params)

steps = out["steps"]
print("step dt %g: chain %d + %d steps, continuum %d + %d, uninfected + seeded"
      % (out["dt"], steps["chain_uninfected"], steps["chain_seeded"],
         steps["continuum_uninfected"], steps["continuum_seeded"]))
print()
print("uninfected monomer path, max rel diff: %.3e  (same stepper, same dt)"
      % out["uninfected_max_rel_diff_v"])
print("growth rate  chain     : %.6f" % out["growth_rate_discrete"])
print("growth rate  continuum : %.6f" % out["growth_rate_continuum"])
print("growth rate  closed    : %.6f" % out["growth_rate_closed_form"])
print("relative gap           : %.4f" % out["growth_rel_diff"])
print("mean size  chain %.1f  vs dominant-mode %.1f"
      % (out["mean_size_discrete"], out["mean_size_eigenmode"]))
print("chain mass book residual: %.2e   top-bin share: %.2e"
      % (out["mass_residual_max"], out["top_bin_share"]))
print()
print(out["structural_note"])
