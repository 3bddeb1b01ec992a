"""Repeat each workload and compare the spread of every metric with its bound.

Usage, from the repository root:

    python3 bench/steadiness.py --runs 10 --first-seed 1 [--workloads outbreak ...]

Each run is ``bench/run.py`` in a fresh process with its own seed, one
after another.  For every end-to-end metric the table gives the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1)/median and the bound from ``BENCHMARK.json``.  A spread
under a third of its bound is marked ok; ``setup_s`` is reported but its
spread is not held to the bound.  The share of failed operations must be
the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode,
                                                          proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed
    return result


def summarize(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = run_once(workload, seed, args.seconds)
            print("%s seed %d: correct=%s attempted=%d failed=%d elapsed %.1f s %s"
                  % (workload, seed, r["correct"], r["attempted"], r["failed"], r["elapsed"],
                     " ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())),
                  flush=True)
            results.append(r)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print("%s: %d runs, all correct: %s, failed shares: %s, mean elapsed %.1f s"
              % (workload, len(results), correct, sorted(shares),
                 statistics.mean(r["elapsed"] for r in results)))
        print("  %-12s %12s %12s %12s %8s %8s  %s" % ("metric", "median", "q1", "q3",
                                                     "spread", "bound", "verdict"))
        for name, bound in bounds.items():
            med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in results])
            ok = name == "setup_s" or spread <= bound / 3.0
            steady &= ok and correct and len(shares) == 1
            print("  %-12s %12.5g %12.5g %12.5g %8.4f %8.4f  %s"
                  % (name, med, q1, q3, spread, bound,
                     "ok" if ok else "SPREAD ABOVE A THIRD OF THE BOUND"))
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
