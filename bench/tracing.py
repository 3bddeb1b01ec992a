"""In-memory spans around the package's public functions, and layer metrics.

The tracer wraps each target function in the module that defines it and in
every ``priondyn`` module that imported it by name, so calls made inside the
package are seen too.  Spans stay in a list until the round ends; nothing is
written while it runs.  ``uninstall`` puts every original back.

One private function is wrapped: ``eigen._principal_on_matrix``, the solve
every public eigen path goes through.  It is the only place the iteration
count of the solves inside ``find_v_inf`` can be read.  If a later version
drops it, the trace carries on without those counts and reports the names
it could not wrap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    error: Optional[str] = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _solve_info(args, kwargs, result, exc, max_iter_default):
    if exc is None:
        return {"iterations": int(result[4])}
    if type(exc).__name__ == "EigenConvergenceError":
        return {"iterations": int(kwargs.get("max_iter", max_iter_default))}
    return {}


def _integrate_info(args, kwargs, result, exc):
    if exc is not None:
        return {}
    coeffs, initial = args[0], args[2]
    t_end = args[3] if len(args) > 3 else kwargs["t_end"]
    return {"steps": result.steps, "rejections": result.rejections,
            "days": float(t_end - initial.t),
            "bump": not hasattr(coeffs.conversion, "value")}


def targets(api) -> list:
    """(owner, attribute, span name, info function) for every wrapped call."""
    max_iter = getattr(api.eigen, "DEFAULT_MAX_ITER", 200)
    return [
        (api.kernel, "kernel_weights", "kernel.weights", None),
        (api.operator, "transport_reaction_parts", "operator.parts", None),
        (api.operator, "assemble", "operator.assemble", None),
        (api.operator, "assemble_adjoint", "operator.assemble_adjoint", None),
        (api.eigen, "_principal_on_matrix", "eigen.solve",
         lambda a, k, r, e: _solve_info(a, k, r, e, max_iter)),
        (api.eigen, "principal_eigenpair", "eigen.principal", None),
        (api.eigen, "adjoint_eigenpair", "eigen.adjoint", None),
        (api.eigen, "scan_lambda", "eigen.scan", None),
        (api.steady, "find_v_inf", "steady.root",
         lambda a, k, r, e: {} if e else {"evaluations": r.evaluations}),
        (api.steady, "build_steady_state", "steady.build", None),
        (api.steady, "bimodality_report", "steady.report", None),
        (api.dynamics, "integrate", "dynamics.integrate", _integrate_info),
        (api.dynamics, "sweep", "dynamics.sweep", None),
        (api.discrete, "integrate_discrete", "discrete.integrate",
         lambda a, k, r, e: {} if e else {"steps": r.steps}),
        (api.discrete, "compare_continuum", "discrete.compare", None),
        (api.config, "parse_config", "config.parse", None),
        (api.records, "write_csv", "records.write_csv", None),
        (api.records.ExperimentRecord, "to_json", "records.to_json", None),
        (api.cli, "main", "cli.main", None),
    ]


class Tracer:
    """Collects spans from wrapped calls; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                span.error = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if info is not None:
                    span.info = info(args, kwargs, result, exc)

        return traced

    def install(self, api) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "priondyn" or name.startswith("priondyn.")]
        for owner, attr, name, info in targets(api):
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append("%s.%s" % (getattr(owner, "__name__", owner), attr))
                continue
            wrapped = self.wrap(name, orig, info)
            if isinstance(owner, type):
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


def span_cost(calls: int = 10000, repeats: int = 3) -> float:
    """Seconds one wrapper adds to a call: a traced no-op against a bare one.

    The traced round's overhead is this times its span count.  Taking the
    difference of a traced and an untraced round instead would measure
    run-to-run noise: four such differences on rounds of 22-41 s read
    -0.19, -0.12, +0.24 and +2.8 s.
    """
    def noop():
        return None

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    traced = Tracer().wrap("noop", noop, None)
    return max(best(traced) - best(noop), 0.0) / calls


# every per-layer metric of the traced run, with its unit; the layer
# metrics come from the traced round, the rest from probes.py and run.py
UNITS = {
    "kernel.weights_s": "s", "kernel.calls": "count", "kernel.self_s": "s",
    "operator.parts_s.n800": "s", "operator.parts_s.n3200": "s",
    "operator.parts_calls": "count", "operator.apply_us": "us", "operator.self_s": "s",
    "eigen.solve_s.n400": "s", "eigen.solve_s.n800": "s", "eigen.solve_s.n1600": "s",
    "eigen.solve_s.n3200": "s", "eigen.solves": "count", "eigen.failed_solves": "count",
    "eigen.iterations.median": "count", "eigen.iterations.max": "count",
    "eigen.scaling_exp": "1", "eigen.peak_mb.n3200": "MB", "eigen.adjoint_s": "s",
    "eigen.scan_s": "s", "eigen.self_s": "s",
    "steady.root_s": "s", "steady.root_evals": "count", "steady.build_self_s": "s",
    "steady.report_s": "s", "steady.self_s": "s",
    "dynamics.integrate_s": "s", "dynamics.steps": "count", "dynamics.rejections": "count",
    "dynamics.us_per_step": "us", "dynamics.steps_per_day": "1/d",
    "dynamics.sweep_self_s": "s", "dynamics.self_s": "s",
    "discrete.integrate_s": "s", "discrete.steps": "count", "discrete.us_per_step": "us",
    "discrete.compare_self_s": "s", "discrete.self_s": "s",
    "config.parse_s": "s", "records.write_s": "s", "records.bytes": "B", "cli.self_s": "s",
    "setup.import_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def _median(xs, empty=0.0):
    return float(statistics.median(xs)) if xs else empty


def layer_metrics(spans: list) -> dict:
    """Per-layer self times, counts and rates of one traced round.

    A layer idle in the round reports 0 for its counts and times.
    """
    children: dict = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)

    def self_time(i):
        return spans[i].seconds - sum(spans[c].seconds for c in children[i])

    def minus(i, prefixes):
        """Duration of span i less that of its nearest descendants named by prefixes."""
        cut, todo = 0.0, list(children[i])
        while todo:
            c = todo.pop()
            if spans[c].name.startswith(prefixes):
                cut += spans[c].seconds
            else:
                todo.extend(children[c])
        return spans[i].seconds - cut

    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    m: dict = {}
    for layer in ("kernel", "operator", "eigen", "steady", "dynamics", "discrete"):
        m["%s.self_s" % layer] = sum(self_time(i) for i, s in enumerate(spans)
                                     if s.name.split(".")[0] == layer)
    m["kernel.calls"] = len(idx("kernel.weights"))
    m["operator.parts_calls"] = len(idx("operator.parts"))
    iters = [spans[i].info["iterations"] for i in idx("eigen.solve")
             if "iterations" in spans[i].info]
    m["eigen.solves"] = len(iters)
    m["eigen.iterations.median"] = _median(iters)
    m["eigen.iterations.max"] = max(iters) if iters else 0
    m["eigen.failed_solves"] = sum(1 for i in idx("eigen.solve") if spans[i].error)

    roots = idx("steady.root")
    m["steady.root_s"] = _median([spans[i].seconds for i in roots])
    m["steady.root_evals"] = _median([spans[i].info["evaluations"] for i in roots
                                      if "evaluations" in spans[i].info])
    m["steady.build_self_s"] = sum(minus(i, ("steady.root",)) for i in idx("steady.build"))
    m["steady.report_s"] = _median([spans[i].seconds for i in idx("steady.report")])

    integ = [spans[i] for i in idx("dynamics.integrate") if spans[i].info]
    steps = sum(s.info["steps"] for s in integ)
    m["dynamics.integrate_s"] = sum(spans[i].seconds for i in idx("dynamics.integrate"))
    m["dynamics.steps"] = steps
    m["dynamics.rejections"] = sum(s.info["rejections"] for s in integ)
    m["dynamics.us_per_step"] = 1e6 * m["dynamics.integrate_s"] / steps if steps else 0.0
    bump = [s for s in integ if s.info["bump"]]
    bump_days = sum(s.info["days"] for s in bump)
    m["dynamics.steps_per_day"] = (sum(s.info["steps"] for s in bump) / bump_days
                                   if bump_days else 0.0)
    m["dynamics.sweep_self_s"] = sum(minus(i, ("dynamics.integrate",))
                                     for i in idx("dynamics.sweep"))

    chain = [spans[i] for i in idx("discrete.integrate")]
    chain_steps = sum(s.info.get("steps", 0) for s in chain)
    m["discrete.integrate_s"] = sum(s.seconds for s in chain)
    m["discrete.steps"] = chain_steps
    m["discrete.us_per_step"] = (1e6 * m["discrete.integrate_s"] / chain_steps
                                 if chain_steps else 0.0)
    m["discrete.compare_self_s"] = sum(
        minus(i, ("discrete.integrate", "dynamics.integrate"))
        for i in idx("discrete.compare"))

    m["config.parse_s"] = sum(spans[i].seconds for i in idx("config.parse"))
    m["records.write_s"] = sum(self_time(i) for i in idx("records.write_csv")
                               + idx("records.to_json"))
    m["cli.self_s"] = sum(self_time(i) for i in idx("cli.main"))
    m["trace.spans"] = len(spans)
    return m


def per_item(spans: list) -> list:
    """One row per integration, for the trace file."""
    rows = []
    for s in spans:
        if s.name in ("dynamics.integrate", "discrete.integrate") and s.info:
            rows.append(dict(s.info, span=s.name, seconds=s.seconds))
    return rows
