"""Compare two output trees of the same runs, written under different BLAS
kernels.

OpenBLAS picks its kernel at run time, and kernels may round sums and
products differently, so the bytes of a record are reproducible on one
machine only.  What must hold across machines: both trees hold the same
files, counters, flags, labels and the config echo are equal exactly, and
every other number lies within the bound its key declares.  A JSON record
is compared leaf by leaf, keyed by the name of its innermost field; a CSV
file column by column, keyed by the column's header.

Run from the repository root as

    python tests/blas_compare.py REFERENCE OTHER

to print each difference and exit 1 when there is any.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

# deterministic counts: equal exactly, whatever the kernel
COUNTERS = {"iterations", "shifted_solves", "root_evaluations", "root_iterations",
            "root_sign_tests", "steps", "rejections", "rhs_evaluations",
            "dt_max", "event", "polymer", "partitioned_steps", "max_partition_cells",
            "n_modes", "n_failed", "sign_at_largest"}
# key -> (kind, bound).  A relative bound is taken against the largest
# magnitude in the value, so a profile's tail is held to its peak's scale.
# Residual diagnostics and the root's loss rate sit at the rounding level,
# where their relative change means nothing, so they are bounded absolutely.
BOUNDS = {
    "loss_rates": ("rel", 1e-10), "growth_rates": ("rel", 1e-10),
    "loss_rate": ("rel", 1e-10), "growth_rate": ("rel", 1e-10),
    "residuals": ("abs", 1e-12), "residual": ("abs", 1e-12),
    "max_conservation_residual": ("abs", 1e-12), "root_loss_rate": ("abs", 1e-12),
}
RESULT_BOUND = ("rel", 1e-12)  # every other number: results, profiles, fluxes


def _numbers(value):
    """The numbers of a leaf (a number or a list of them), else None."""
    items = value if isinstance(value, list) else [value]
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items):
        return [float(x) for x in items]
    return None


def compare_values(where: str, key: str, ref, other) -> list:
    """Differences between two leaves stored under ``key``."""
    a, b = _numbers(ref), _numbers(other)
    if key in COUNTERS or a is None or b is None or len(a) != len(b):
        return [] if ref == other else ["%s: %r != %r" % (where, ref, other)]
    kind, bound = BOUNDS.get(key, RESULT_BOUND)
    scale = max([abs(x) for x in a] + [0.0]) if kind == "rel" else 1.0
    worst = max([abs(x - y) for x, y in zip(a, b)] + [0.0])
    if worst <= bound * scale:
        return []
    return ["%s: differs by %.3g, over %s bound %g%s" % (
        where, worst, kind, bound, " of %.3g" % scale if kind == "rel" else "")]


def _compare_json(where: str, key: str, ref, other) -> list:
    if isinstance(ref, dict) and isinstance(other, dict):
        if key in ("config", "provenance") or ref.keys() != other.keys():
            return [] if ref == other else ["%s: %r != %r" % (where, ref, other)]
        return [d for k in ref for d in _compare_json("%s.%s" % (where, k), k,
                                                      ref[k], other[k])]
    if (isinstance(ref, list) and isinstance(other, list) and len(ref) == len(other)
            and any(isinstance(x, (dict, list)) for x in ref + other)):
        return [d for i, (x, y) in enumerate(zip(ref, other))
                for d in _compare_json("%s[%d]" % (where, i), key, x, y)]
    return compare_values(where, key, ref, other)


def _columns(path: Path) -> dict:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}


def compare_trees(reference: Path, other: Path) -> list:
    """Every difference between two output trees, one line each."""
    ref_files = sorted(p.relative_to(reference) for p in reference.rglob("*") if p.is_file())
    other_files = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
    if ref_files != other_files:
        return ["file lists differ: %s != %s" % ([str(p) for p in ref_files],
                                                 [str(p) for p in other_files])]
    diffs = []
    for rel in ref_files:
        if rel.suffix == ".json":
            diffs += _compare_json(str(rel), "", json.loads((reference / rel).read_text()),
                                   json.loads((other / rel).read_text()))
        elif rel.suffix == ".csv":
            a, b = _columns(reference / rel), _columns(other / rel)
            if a.keys() != b.keys():
                diffs.append("%s: columns %s != %s" % (rel, list(a), list(b)))
                continue
            diffs += [d for name in a
                      for d in compare_values("%s:%s" % (rel, name), name, a[name], b[name])]
        else:
            diffs.append("%s: no rule to compare this file" % rel)
    return diffs


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/blas_compare.py REFERENCE OTHER")
    found = compare_trees(Path(sys.argv[1]), Path(sys.argv[2]))
    print("\n".join(found) or "no differences beyond the declared bounds")
    sys.exit(1 if found else 0)
