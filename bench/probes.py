"""Fixed per-layer timings, the same in the traced run of every workload.

Each probe calls one public function on fixed inputs: the fig3 bump
(conversion 0.001 + 0.1*exp(-(x-2)**2/0.1), xmax 60) at level v=600, the
flat fig2 ladder for the scan.  Times are medians over a few calls; the
n=1600 and n=3200 solves run once each because one n=3200 solve takes
seconds.  The n=3200 solve runs under ``tracemalloc`` (NumPy reports its
buffers to it) to give the memory that one solve adds.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc

PROBE_LEVEL = 600.0
SOLVE_REPEATS = {400: 5, 800: 3, 1600: 1, 3200: 1}
FIG2_LEVELS = (10.0, 40.0, 83.33, 100.0, 300.0, 600.0)
APPLY_BATCH = 200


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(statistics.median(times))


def run_probes(api) -> dict:
    """Return the probe metrics; see the module docstring for the inputs."""
    coef, grid = api.coefficients, api.grid.SizeGrid
    bump = coef.CoefficientSet(production=2400.0, clearance=4.0,
                               conversion=coef.Bell(0.001, 0.1, 2.0, 0.1))
    flat = coef.CoefficientSet(production=2400.0, clearance=4.0)
    grids = {n: grid.uniform(60.0, n) for n in SOLVE_REPEATS}
    m: dict = {}

    m["kernel.weights_s"] = _median_seconds(
        lambda: api.kernel.kernel_weights("uniform", grids[3200]), 3)
    m["operator.parts_s.n800"] = _median_seconds(
        lambda: api.operator.transport_reaction_parts(bump, grids[800]), 5)
    m["operator.parts_s.n3200"] = _median_seconds(
        lambda: api.operator.transport_reaction_parts(bump, grids[3200]), 3)

    op = api.operator.assemble(bump, grids[800], PROBE_LEVEL)
    u = grids[800].centers.copy()

    def batch():
        for _ in range(APPLY_BATCH):
            op.apply(u)

    m["operator.apply_us"] = 1e6 * _median_seconds(batch, 5) / APPLY_BATCH

    for n, repeats in SOLVE_REPEATS.items():
        def solve(n=n):
            api.eigen.principal_eigenpair(bump, grids[n], PROBE_LEVEL)
        if n == 3200:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            m["eigen.solve_s.n3200"] = _median_seconds(solve, repeats)
            m["eigen.peak_mb.n3200"] = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
            tracemalloc.stop()
        else:
            m["eigen.solve_s.n%d" % n] = _median_seconds(solve, repeats)
    m["eigen.scaling_exp"] = (math.log(m["eigen.solve_s.n3200"] / m["eigen.solve_s.n800"])
                              / math.log(4.0))
    m["eigen.adjoint_s"] = _median_seconds(
        lambda: api.eigen.adjoint_eigenpair(bump, grids[800], PROBE_LEVEL), 3)
    flat_grid = grid.uniform(30.0, 800)
    m["eigen.scan_s"] = _median_seconds(
        lambda: api.eigen.scan_lambda(flat, flat_grid, FIG2_LEVELS), 3)
    return m
