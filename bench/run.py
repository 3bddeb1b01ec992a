"""Benchmark of priondyn: three workloads, timed end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload eigen-ladder --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are ``setup_s``, ``wall_s`` and ``peak_rss_mb``; with
``--trace 1`` they are the per-layer metrics (see README.md).  Progress
goes to standard error.

The program is imported from ``src/`` next to this directory and runs in
this one process, with BLAS and OpenMP pools held at one thread (set below,
before NumPy loads).  A run repeats whole rounds of the workload until
``--seconds`` have passed, so every run attempts the same operations a
whole number of times; a traced run does one round.  Outputs go under
``bench/out/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# One thread per pool, set before NumPy loads: two OpenBLAS threads on a
# 2-core machine made one n=800 eigen solve take 0.15-0.35 s against
# 0.11-0.14 s with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_CHILDREN = 2
SETUP_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    """The package sources or the shipped configs are not in this checkout."""


def load_program() -> SimpleNamespace:
    """Import priondyn from ``src/`` of this checkout, and nowhere else."""
    src = ROOT / "src"
    if not (src / "priondyn" / "__init__.py").is_file():
        raise ProgramMissing("no package sources at %s" % src)
    if not (ROOT / "configs").is_dir():
        raise ProgramMissing("no shipped configs at %s" % (ROOT / "configs"))
    sys.path.insert(0, str(src))
    import priondyn
    from priondyn import (cli, coefficients, config, discrete, dynamics, eigen,
                          grid, kernel, operator, records, steady)
    if Path(priondyn.__file__).resolve().parent != (src / "priondyn").resolve():
        raise ProgramMissing("priondyn imported from %s, not %s" % (priondyn.__file__, src))
    return SimpleNamespace(cli=cli, coefficients=coefficients, config=config,
                           discrete=discrete, dynamics=dynamics, eigen=eigen,
                           grid=grid, kernel=kernel, operator=operator,
                           records=records, steady=steady)


def run_round(ops) -> tuple:
    """Run every operation once; return (seconds, results by name)."""
    for op in ops:
        if op.out is not None:
            shutil.rmtree(op.out, ignore_errors=True)
    results, seconds = {}, {}
    t0 = time.perf_counter()
    for op in ops:
        t_op = time.perf_counter()
        try:
            results[op.name] = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            results[op.name] = exc
        seconds[op.name] = time.perf_counter() - t_op
    wall = time.perf_counter() - t0
    log("  " + "  ".join("%s %.2f" % kv for kv in seconds.items()))
    return wall, results


def process_age() -> float:
    """Seconds since this process started (the start is known to 10 ms)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")   # field 22 of proc(5)
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def child_setups(workload: str, seed: int) -> list:
    """Set-up times of fresh processes that import the package and write the configs.

    The children run side by side, one per core of the 2-core machine,
    while this process waits, so two more samples cost one set-up.
    """
    procs = [subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--setup-only", str(k)],
                              cwd=str(ROOT), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for k in range(SETUP_CHILDREN)]
    try:
        outputs = [proc.communicate(timeout=SETUP_TIMEOUT_S) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    for proc, (out, err) in zip(procs, outputs):
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed: %s" % err.strip())
    return [float(out.split()[-1]) for out, _ in outputs]


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, default=None, metavar="K",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        api = load_program()
    except (ProgramMissing, ImportError) as exc:
        log("cannot load the program: %s" % exc)
        return 2
    import_s = process_age()

    if args.setup_only is not None:
        work = OUT / args.workload / ("setup-%d" % args.setup_only)
        shutil.rmtree(work, ignore_errors=True)
        workloads.build(args.workload, ROOT, work, args.seed, api)
        print(process_age())
        return 0

    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    work = OUT / args.workload / "main"
    ops = workloads.build(args.workload, ROOT, work, args.seed, api)
    setup_times = [process_age()]
    if not args.trace:
        setup_times += child_setups(args.workload, args.seed)
    log("%s seed %d: %d operations, set-up %s s"
        % (args.workload, args.seed, len(ops), ", ".join("%.3f" % t for t in setup_times)))

    failure_type = api.eigen.EigenConvergenceError
    problems: list = []
    walls: list = []
    attempted = n_failed = 0

    def account(wall, results):
        nonlocal attempted, n_failed
        walls.append(wall)
        attempted += len(ops)
        round_failed = sum(op.failed(results[op.name]) for op in ops)
        n_failed += round_failed
        problems.extend(checks.check_round(ops, results, failure_type))
        log("round %d: %.3f s, %d failed" % (len(walls), wall, round_failed))

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(api)
        try:
            account(*run_round(ops))
        finally:
            tracer.uninstall()
        if tracer.missing:
            log("not traced (absent): %s" % ", ".join(tracer.missing))
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["records.bytes"] = tree_bytes(work / "runs")
        metrics["setup.import_s"] = import_s
        metrics["trace.overhead_s"] = len(tracer.spans) * tracing.span_cost()
        metrics.update(probes.run_probes(api))
        (OUT / args.workload / "trace.json").write_text(json.dumps(
            {"metrics": metrics, "integrations": tracing.per_item(tracer.spans)}, indent=1))
    else:
        t_measure = time.perf_counter()
        while True:
            account(*run_round(ops))
            if time.perf_counter() - t_measure >= args.seconds:
                break
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    for p in problems:
        log("CHECK FAILED: %s" % p)
    spec = tracing.UNITS if args.trace else E2E_UNITS
    out = {"correct": not problems, "attempted": attempted, "failed": n_failed,
           "metrics": {name: {"value": metrics[name], "unit": unit}
                       for name, unit in spec.items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
