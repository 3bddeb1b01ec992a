"""The benchmark's workloads: which configs run, on which grids, at which levels.

Every workload is a list of operations.  Most operations drive the package
through ``priondyn.cli.main`` on a config written from a shipped
``configs/*.cfg``; an operation that is a single public call is used where
it keeps one expected failure from taking other results down.

Seed 0 runs the shipped values.  Any other seed jitters monomer levels,
bump amplitudes, splitting slopes, the monomer production and bump centres
within the ranges below, chosen so every check still holds; the two
operations that fail today (the bump solve at v=8 on n=1600 and n=3200) and
every grid size are never jittered, so the share of failed operations is
the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# relative jitter of levels, amplitudes, slopes and production; absolute
# jitter of bump centres (fig4 centres are 0.833 apart, the centre of mass
# sits at 1.667, so 0.05 keeps the nearest centre the nearest)
REL_JITTER = 0.02
CENTRE_JITTER = 0.05

FLAT_LEVELS = (8.0, 600.0, 2000.0)           # xmax 30 holds 1% up to v~2000
BUMP_LEVELS = (8.0, 64.0, 600.0, 4000.0)
LADDER_GRIDS = (400, 800, 1600, 3200)
BUMP_LADDER_GRIDS = (400, 800, 1600)
# the bump solve at v=8 exhausts its iteration budget on these grids today;
# the n=1600 ladder therefore starts at the next level
FAILING_BUMP_LEVEL = 8.0
FAILING_BUMP_GRIDS = (1600, 3200)
FIG5_AMPLITUDES = (0.001, 0.01)               # the 0.1 item alone runs ~100 s

WORKLOADS = ("eigen-ladder", "coexistence", "outbreak")


@dataclass
class Op:
    """One operation of a workload round.

    ``run`` performs it and returns what the checks read: the CLI exit
    code (outputs are then under ``out``) or the public call's result.  It
    raises, or returns a nonzero exit code, when the operation fails.
    ``kind`` selects the checks in checks.py; ``params`` holds the inputs
    they compare against (levels, grid size, jittered values).
    """

    name: str
    kind: str
    run: Callable[[], object]
    params: dict
    out: Optional[Path] = None
    expect_fail: bool = False

    def failed(self, result) -> bool:
        return isinstance(result, BaseException) or (self.out is not None and result != 0)


class Jitter:
    """Seeded input perturbation; seed 0 returns every value unchanged."""

    def __init__(self, seed: int):
        self.active = seed != 0
        self.rng = random.Random(seed)

    def rel(self, x: float, width: float = REL_JITTER) -> float:
        if not self.active:
            return float(x)
        return float(x) * (1.0 + self.rng.uniform(-width, width))

    def shift(self, x: float, width: float = CENTRE_JITTER) -> float:
        if not self.active:
            return float(x)
        return float(x) + self.rng.uniform(-width, width)


def fmt(x: float) -> str:
    return repr(float(x))


def fmt_list(xs) -> str:
    return ", ".join(fmt(x) for x in xs)


def derive(base_text: str, **overrides: str) -> str:
    """Config text with some keys replaced or added.

    Keys are written with '__' for '.', e.g. ``grid__n="1600"``.  Comments
    and untouched lines are kept.
    """
    wanted = {k.replace("__", "."): v for k, v in overrides.items()}
    lines = []
    for line in base_text.splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if key in wanted:
            lines.append("%s = %s" % (key, wanted.pop(key)))
        else:
            lines.append(line)
    lines.extend("%s = %s" % kv for kv in wanted.items())
    return "\n".join(lines) + "\n"


def read_shipped(root: Path, name: str) -> str:
    return (root / "configs" / ("%s.cfg" % name)).read_text()


def _values(text: str, key: str) -> tuple:
    for line in text.splitlines():
        k, _, v = line.split("#", 1)[0].partition("=")
        if k.strip() == key:
            return tuple(float(p) for p in v.split(",") if p.strip())
    raise KeyError(key)


class Builder:
    """Writes the configs of one workload and makes its operations."""

    def __init__(self, root: Path, work: Path, seed: int, api):
        self.root = root
        self.work = work
        self.jit = Jitter(seed)
        self.api = api
        (work / "configs").mkdir(parents=True, exist_ok=True)
        self.ops: list = []

    def cli(self, name: str, kind: str, command: str, text: str, **params):
        cfg = self.work / "configs" / ("%s.cfg" % name)
        cfg.write_text(derive(text, threads="1"))
        out = self.work / "runs" / name
        api = self.api

        def run():
            return api.cli.main([command, "--config", str(cfg), "--out", str(out)])

        self.ops.append(Op(name=name, kind=kind, run=run, params=params, out=out))

    def call(self, name: str, kind: str, run: Callable[[], object],
             expect_fail: bool = False, **params):
        self.ops.append(Op(name=name, kind=kind, run=run, params=params,
                           expect_fail=expect_fail))


def eigen_ladder(b: Builder) -> None:
    fig2 = read_shipped(b.root, "fig2")
    shipped_fig3 = read_shipped(b.root, "fig3")
    fig3 = derive(shipped_fig3, experiment="eigen")
    flat_levels = [b.jit.rel(v) for v in FLAT_LEVELS]
    bump_levels = [b.jit.rel(v) for v in BUMP_LEVELS]
    for n in LADDER_GRIDS:
        b.cli("flat-n%d" % n, "flat-ladder", "eigen",
              derive(fig2, grid__n=str(n), eigen__v_values=fmt_list(flat_levels)),
              n=n, levels=flat_levels)
    for n in BUMP_LADDER_GRIDS:
        levels = bump_levels if n not in FAILING_BUMP_GRIDS else bump_levels[1:]
        b.cli("bump-n%d" % n, "bump-ladder", "eigen",
              derive(fig3, grid__n=str(n), eigen__v_values=fmt_list(levels)),
              n=n, levels=levels)
    api = b.api
    coeffs = api.config.parse_config(shipped_fig3).coeffs
    for n in FAILING_BUMP_GRIDS:
        grid = api.grid.SizeGrid.uniform(60.0, n)
        b.call("bump-v8-n%d" % n, "bump-v8",
               lambda grid=grid: api.eigen.principal_eigenpair(
                   coeffs, grid, FAILING_BUMP_LEVEL),
               expect_fail=True)
    for name in ("fig2", "fig2-bell"):
        text = read_shipped(b.root, name)
        levels = sorted(b.jit.rel(v) for v in _values(text, "eigen.v_values"))
        b.cli(name, "flat-scan" if name == "fig2" else "bump-scan", "eigen",
              derive(text, eigen__v_values=fmt_list(levels)), levels=levels)
    fig7 = read_shipped(b.root, "fig7")
    b.cli("fig7", "narrowing", "sweep",
          derive(fig7, sweep__v_eval=fmt(b.jit.rel(_values(fig7, "sweep.v_eval")[0]))))


def coexistence(b: Builder) -> None:
    fig3 = read_shipped(b.root, "fig3")
    centre = b.jit.shift(_values(fig3, "model.conversion.center")[0])
    b.cli("fig3", "two-hump", "steady", derive(fig3, model__conversion__center=fmt(centre)),
          centre=centre, production=2400.0)
    control = read_shipped(b.root, "fig3-control")
    production = b.jit.rel(2400.0)
    b.cli("fig3-control", "control", "steady",
          derive(control, model__production=fmt(production)), production=production)
    fig4 = read_shipped(b.root, "fig4")
    centres = [b.jit.shift(c) for c in _values(fig4, "sweep.values")]
    b.cli("fig4", "translation", "sweep", derive(fig4, sweep__values=fmt_list(centres)),
          centres=centres)


def outbreak(b: Builder) -> None:
    fig6 = read_shipped(b.root, "fig6")
    slopes = [b.jit.rel(s) for s in _values(fig6, "sweep.values")]
    b.cli("fig6", "flat-outbreak", "sweep", derive(fig6, sweep__values=fmt_list(slopes)),
          slopes=slopes)
    fig5 = read_shipped(b.root, "fig5")
    amps = [b.jit.rel(a) for a in FIG5_AMPLITUDES]
    b.cli("fig5", "bump-outbreak", "sweep", derive(fig5, sweep__values=fmt_list(amps)),
          amplitudes=amps)
    api = b.api
    b.call("chain-twin", "chain-twin",
           lambda: api.discrete.compare_continuum(api.discrete.default_calibration()),
           calibration=api.discrete.default_calibration())


BUILDERS = {"eigen-ladder": eigen_ladder, "coexistence": coexistence,
            "outbreak": outbreak}


def build(workload: str, root: Path, work: Path, seed: int, api) -> list:
    """Write the workload's configs under ``work`` and return its operations."""
    b = Builder(root, work, seed, api)
    BUILDERS[workload](b)
    return b.ops
