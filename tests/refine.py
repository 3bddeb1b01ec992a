"""Run every shipped config on refined grids and check that its counters
grow no faster than the grid.

Each ``configs/<name>.cfg`` runs through ``priondyn.cli.main`` at its own
``grid.n`` and at two and four times that, all in this one process, with
outputs in a temporary directory.  Prints each record's counters (the
deterministic counts that ``tests/blas_compare.py`` names, read from the
record's diagnostics) and the wall time of each run.  Beside them it prints
each record's headline numbers (HEADLINES, read from its results), their
change from the coarser grid and, from the third grid on, the observed
order log2(|d1|/|d2|) of two successive changes d1 and d2; a change or an
order that cannot be taken (a value missing or not finite, a change of 0)
prints as null.  Exits 1 when a run
fails or a counter grows more than GROWTH times per doubling of n, a
count of 0 taken as 1: a solver whose work grows faster than the grid
has left its scaling, as fig5's explicit fallback once did, taking 16
times the steps at n = 3200 that it took at 1600.

Run from the repository root as

    PYTHONPATH=src python tests/refine.py [fig2 fig5 ...]

(all shipped configs by default).
"""

from __future__ import annotations

import json
import math
import re
import sys
import tempfile
import time
from pathlib import Path

from blas_compare import COUNTERS

from priondyn.cli import main as cli_main
from priondyn.config import parse_config

ROOT = Path(__file__).resolve().parent.parent
GROWTH = 2.5
DOUBLINGS = 2
# results keys that carry a record's science, as scalars or lists
HEADLINES = ("v_inf", "rho_inf", "loss_rates", "loss_rate", "t_incubation", "n_modes")


def counters(diagnostics: dict, prefix: str = "") -> dict:
    """The counters among a record's diagnostics, nested keys joined by dots."""
    found = {}
    for key, value in diagnostics.items():
        if isinstance(value, dict):
            found.update(counters(value, prefix + key + "."))
        elif key in COUNTERS:
            found[prefix + key] = value
    return found


def pairwise(f, a, b):
    """f(a, b), taken elementwise over lists of one length; None where a
    value is missing or not a finite number, or where f returns None."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [pairwise(f, x, y) for x, y in zip(a, b)]
    finite = [isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
              for x in (a, b)]
    return f(a, b) if all(finite) else None


def change(coarse, fine):
    return pairwise(lambda a, b: b - a, coarse, fine)


def order(d1, d2):
    return pairwise(lambda a, b: math.log2(abs(a) / abs(b)) if a and b else None, d1, d2)


def across(f, first: dict, second: dict) -> dict:
    """f over the headline numbers that two levels' records share."""
    return {record: {key: f(values[key], second[record][key])
                     for key in values if key in second.get(record, {})}
            for record, values in first.items() if values and record in second}


def short(value):
    """value with each float rounded to 6 significant digits, for printing."""
    if isinstance(value, dict):
        return {k: short(v) for k, v in value.items()}
    if isinstance(value, list):
        return [short(v) for v in value]
    return float("%.6g" % value) if isinstance(value, float) else value


def run(name: str, n: int, out: Path) -> tuple:
    """(exit code, wall seconds, {record: counters}, {record: headline
    numbers}) of one config at grid.n = n."""
    text, count = re.subn(r"(?m)^grid\.n *=.*$", "grid.n = %d" % n,
                          (ROOT / "configs" / ("%s.cfg" % name)).read_text())
    if count != 1:
        raise ValueError("%s.cfg sets grid.n %d times, not once" % (name, count))
    cfg = out / ("%s-%d.cfg" % (name, n))
    cfg.write_text(text)
    target = out / ("%s-%d" % (name, n))
    t0 = time.perf_counter()
    code = cli_main([parse_config(text).experiment, "--config", str(cfg),
                     "--out", str(target)])
    wall = time.perf_counter() - t0
    # file names carry a digest of the config, which changes with n
    loaded = {re.sub(r"-[0-9a-f]{10}", "", path.stem): json.loads(path.read_text())
              for path in sorted(target.glob("*.json"))}
    records = {record: counters(data.get("diagnostics", {}))
               for record, data in loaded.items()}
    results = {record: {key: data["results"][key] for key in HEADLINES
                        if key in data.get("results", {})}
               for record, data in loaded.items()}
    return code, wall, records, results


def growth_failures(coarse: dict, fine: dict) -> list:
    """Each counter of ``fine`` that grew more than GROWTH times over ``coarse``."""
    bad = []
    for record, values in fine.items():
        for key, value in values.items():
            before = coarse.get(record, {}).get(key)
            if before is None:
                bad.append("%s %s: not written at the coarser grid" % (record, key))
                continue
            pairs = zip(before, value) if isinstance(value, list) else [(before, value)]
            for a, b in pairs:
                if max(b, 1) > GROWTH * max(a, 1):
                    bad.append("%s %s: %s -> %s" % (record, key, a, b))
    return bad


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:])
    names = names or sorted(p.stem for p in (ROOT / "configs").glob("*.cfg"))
    bad = []
    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            base = parse_config((ROOT / "configs" / ("%s.cfg" % name)).read_text()).n
            previous = None
            levels, changes = [], []
            for n in (base << k for k in range(DOUBLINGS + 1)):
                code, wall, records, results = run(name, n, Path(tmp))
                print("%-14s n=%-6d exit %d  %7.2f s" % (name, n, code, wall), flush=True)
                for record, values in records.items():
                    if values:
                        print("    %-24s %s" % (record, json.dumps(values)), flush=True)
                levels.append(results)
                shown = {"": results}
                if len(levels) >= 2:
                    changes.append(across(change, levels[-2], levels[-1]))
                    shown["change"] = changes[-1]
                if len(changes) >= 2:
                    shown["order"] = across(order, *changes[-2:])
                for label, table in shown.items():
                    for record, values in table.items():
                        if values:
                            print("    %-24s %s" % ((label + " " + record).strip(),
                                                    json.dumps(short(values))), flush=True)
                if code != 0:
                    bad.append("%s at n=%d: exit %d" % (name, n, code))
                if previous is not None:
                    bad += ["%s at n=%d: %s" % (name, n, line)
                            for line in growth_failures(previous, records)]
                previous = records
    print("total %.2f s" % (time.perf_counter() - t_start))
    print("\n".join(bad) or "every run succeeded; no counter grew more than %g times "
          "per doubling" % GROWTH)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
