"""Time every shipped config through the command line, one after another.

Usage, from the repository root:

    python3 bench/shipped.py [fig2 fig5 ...]

Runs ``priondyn.cli.main`` on each ``configs/<name>.cfg`` (all of them by
default) in this one process, with the same one-thread BLAS setting as
``run.py``, writing under ``bench/out/shipped/``.  Prints one line per
config: exit code and wall seconds.  These are reference figures for the
README, not a benchmark workload: fig5 alone runs for minutes.
"""

import run  # first: sets the thread pools before NumPy loads

import sys  # noqa: E402
import time  # noqa: E402


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:])
    names = names or sorted(p.stem for p in (run.ROOT / "configs").glob("*.cfg"))
    api = run.load_program()
    worst = 0
    for name in names:
        cfg = run.ROOT / "configs" / ("%s.cfg" % name)
        command = api.config.parse_config(cfg.read_text()).experiment
        t0 = time.perf_counter()
        code = api.cli.main([command, "--config", str(cfg),
                             "--out", str(run.OUT / "shipped" / name)])
        print("%-14s exit %d  %8.2f s" % (name, code, time.perf_counter() - t0), flush=True)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
