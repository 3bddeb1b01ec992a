"""Plain-text run configuration: flat dotted keys, strict schema.

Format, one assignment per line::

    # monomer side
    experiment = simulate
    model.production = 2400
    model.clearance = 4
    model.conversion.shape = bell
    model.conversion.base = 0.001
    model.conversion.amplitude = 0.01
    model.conversion.center = 2
    model.conversion.width_sq = 0.1
    simulate.t_end = 200

Comments start with '#'.  Lists are comma-separated.  Unknown keys are
rejected, and so is a run-section key (eigen.*, simulate.*, sweep.*) that
the run does not read; every violation is collected and reported with its
line number rather than stopping at the first.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from .coefficients import SHAPES, Affine, CoefficientSet, CoefficientShape, Constant
from .grid import SizeGrid

__all__ = ["RunConfig", "ConfigError", "parse_config", "config_echo", "default_xmax",
           "SWEEP_AXES", "sweep_axis_error"]

EXPERIMENTS = ("eigen", "steady", "simulate", "sweep")
# axis -> (summary its items run, rate it edits, shape that rate must have,
# parameter it sets); dose edits the run field seed_scale and no rate
SWEEP_AXES = {
    "bell_amplitude": ("outbreak", "conversion", "bell", "amplitude"),
    "frag_slope": ("outbreak", "fragmentation", "affine", "slope"),
    "tightness": ("level", "conversion", "scaled_bell", "tightness"),
    "peak_center": ("steady", "conversion", "bell", "center"),
    "dose": ("outbreak", None, None, "seed_scale"),
}


class ConfigError(ValueError):
    """All schema violations found in one pass, each tagged with its line."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


def default_xmax(coeffs: CoefficientSet) -> float:
    """Upper domain end covering the equilibrium profile tail.

    For constant decay with a linear-growth splitting rate the
    equilibrium density decays like exp(-(x*slope/decay0)**2/2); ten mean
    sizes past x0 leave less than 1e-8 of the mass outside.  Other shape
    classes fall back to a wide fixed span of 60 past x0.
    """
    if isinstance(coeffs.decay, Constant) and isinstance(coeffs.fragmentation, Affine) \
            and coeffs.fragmentation.slope > 0.0:
        return coeffs.x0 + 10.0 * coeffs.decay.value / coeffs.fragmentation.slope
    return coeffs.x0 + 60.0


def sweep_axis_error(coeffs: CoefficientSet, axis: str) -> Optional[str]:
    """Why ``axis`` cannot sweep ``coeffs``, or None when it fits."""
    if axis not in SWEEP_AXES:
        return "unknown sweep axis %r" % (axis,)
    _, rate, shape, _ = SWEEP_AXES[axis]
    if rate is None or isinstance(getattr(coeffs, rate), SHAPES[shape]):
        return None
    return "%s sweep requires %s %s %s shape" % (
        axis, "an" if shape[0] in "aeiou" else "a", shape, rate)


def _key(key: str, tag: str, default=None, reads=None):
    """A RunConfig field set by config key ``key``, parsed by ``tag`` and
    read by the commands and sweep axes in ``reads`` (None: every run)."""
    return dataclasses.field(metadata=dict(key=key, tag=tag, default=default, reads=reads))


def _axes(summary: str, but: str = "") -> tuple:
    """The sweep axes whose items run ``summary``, less any that sets ``but``."""
    return tuple(a for a, row in SWEEP_AXES.items() if row[0] == summary and row[3] != but)


_OUTBREAKS = ("simulate",) + _axes("outbreak")  # the runs that integrate


@dataclass
class RunConfig:
    """Validated run description; see module docstring for the file format.

    Each field but coeffs declares its config key, type tag, default and readers.
    Built only by parse_config, which fills every field.
    """

    experiment: str = _key("experiment", "enum:experiment")
    coeffs: CoefficientSet
    xmax: float = _key("grid.xmax", "float")
    n: int = _key("grid.n", "int", 800)
    eigen_v_values: Optional[tuple] = _key("eigen.v_values", "floatlist", reads=("eigen",))
    t_end: float = _key("simulate.t_end", "float", 200.0, _OUTBREAKS)
    v_init: Optional[float] = _key("simulate.v_init", "float", reads=_OUTBREAKS)
    seed_scale: float = _key("simulate.seed_scale", "float", 1.0,
                             ("simulate",) + _axes("outbreak", but="seed_scale"))
    record_every: int = _key("simulate.record_every", "int", 1, _OUTBREAKS)
    snapshot_times: tuple = _key("simulate.snapshot_times", "floatlist", (96.0,), _OUTBREAKS)
    fit_start: float = _key("simulate.fit_start", "float", 15.0, ("simulate",))
    fit_end: float = _key("simulate.fit_end", "float", 40.0, ("simulate",))
    threshold_ratio: float = _key("simulate.threshold_ratio", "float", 1e3, _OUTBREAKS)
    dt_max: Optional[float] = _key("simulate.dt_max", "float", reads=_OUTBREAKS)
    sweep_axis: Optional[str] = _key("sweep.axis", "enum:axis", reads=("sweep",))
    sweep_values: Optional[tuple] = _key("sweep.values", "floatlist", reads=("sweep",))
    sweep_v_eval: Optional[float] = _key("sweep.v_eval", "float", reads=_axes("level"))
    out_dir: str = _key("output.dir", "str", "out")
    timings: bool = _key("output.timings", "bool", False)

    def make_grid(self) -> SizeGrid:
        return SizeGrid.uniform(self.xmax, self.n, x0=self.coeffs.x0)


# key -> (RunConfig field, type tag, default).  The model.* keys feed the
# coefficient set rather than a field, and shapes are handled separately.
# threads fills no field and must be 1: sweeps run serially, and existing
# config files (the benchmark's among them) still set threads = 1
_SCALAR_KEYS = {
    "model.production": (None, "float", 2400.0),
    "model.clearance": (None, "float", 4.0),
    "model.x0": (None, "float", 0.0),
    "threads": (None, "int", 1),
    **{f.metadata["key"]: (f.name, f.metadata["tag"], f.metadata["default"])
       for f in dataclasses.fields(RunConfig) if f.metadata},
}
# run-section key -> the commands and sweep axes whose runs read it
_READERS = {f.metadata["key"]: f.metadata["reads"]
            for f in dataclasses.fields(RunConfig) if f.metadata.get("reads")}

# key -> (bound, strict): the value, or each value of the list, must exceed
# the bound (strict) or reach it, and a bounded list must rise strictly
_BOUNDS = {"model.production": (0, False), "model.clearance": (0, False),
           "model.x0": (0, False), "grid.n": (2, False), "eigen.v_values": (0, False),
           "simulate.t_end": (0, True), "simulate.seed_scale": (0, False),
           "simulate.record_every": (1, False), "simulate.threshold_ratio": (1, True),
           "sweep.v_eval": (0, True)}
# shape parameter -> (bound, strict), as _BOUNDS, for every rate of that shape
_SHAPE_BOUNDS = {"width_sq": (0, True), "tightness": (0, True)}

_SHAPE_PREFIXES = ("model.conversion", "model.fragmentation", "model.decay")


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _bound_error(bound_strict: tuple, vals: tuple, rising: bool) -> Optional[str]:
    """The bound that ``vals`` break, as "must be ..." text, or None when
    each value keeps ``bound_strict`` (and, when ``rising``, they rise)."""
    bound, strict = bound_strict
    if any(v < bound or strict and v == bound for v in vals) \
            or rising and any(a >= b for a, b in zip(vals, vals[1:])):
        return "must be %s %g%s" % ("greater than" if strict else "at least", bound,
                                    " and strictly increasing" if rising else "")
    return None


def _parse_value(tag: str, raw: str, key: str, line_no: int, errors: list):
    raw = raw.strip()
    try:
        if tag == "float":
            return _finite(float(raw))
        if tag == "int":
            return int(raw)
        if tag == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if tag == "floatlist":
            return tuple(_finite(float(p)) for p in raw.split(",") if p.strip() != "")
        if tag == "str":
            return raw
        # the one tag left is enum:experiment or enum:axis
        choices = EXPERIMENTS if tag == "enum:experiment" else SWEEP_AXES
        if raw not in choices:
            raise ValueError("must be one of %s" % (", ".join(choices)))
        return raw
    except ValueError as exc:
        detail = str(exc) if str(exc) != raw else "cannot parse %r as %s" % (raw, tag)
        errors.append("line %d: %s: %s" % (line_no, key, detail))
        return None


def _build_shape(prefix: str, entries: dict, errors: list) -> Optional[CoefficientShape]:
    """entries: param name -> (line_no, raw value).  None when no entry
    sets the shape (CoefficientSet's default then applies) or on error."""
    if not entries:
        return None
    if "shape" not in entries:
        ln = min(ln for ln, _ in entries.values())
        errors.append("line %d: %s.*: shape parameters given without %s.shape"
                      % (ln, prefix, prefix))
        return None
    ln, shape_name = entries.pop("shape")
    if shape_name not in SHAPES:
        errors.append("line %d: %s.shape: unknown shape %r (one of %s)"
                      % (ln, prefix, shape_name, ", ".join(sorted(SHAPES))))
        return None
    wanted = [f.name for f in dataclasses.fields(SHAPES[shape_name])]
    params = {}
    ok = True
    for name, (pln, raw) in entries.items():
        if name not in wanted:
            errors.append("line %d: %s.%s: not a parameter of shape %r"
                          " (takes: %s)"
                          % (pln, prefix, name, shape_name,
                             ", ".join(sorted(wanted))))
            ok = False
            continue
        key = "%s.%s" % (prefix, name)
        val = _parse_value("float", raw, key, pln, errors)
        broken = val is not None and name in _SHAPE_BOUNDS \
            and _bound_error(_SHAPE_BOUNDS[name], (val,), False)
        if broken:
            errors.append("line %d: %s %s, got %s" % (pln, key, broken, raw.strip()))
        if val is None or broken:
            ok = False
        else:
            params[name] = val
    for name in wanted:
        if name not in params and ok:
            errors.append("line %d: %s.%s missing for shape %r"
                          % (ln, prefix, name, shape_name))
            ok = False
    if not ok:
        return None
    return SHAPES[shape_name](**params)


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    errors: list = []
    scalars: dict = {}
    key_lines: dict = {}
    shapes = {p: {} for p in _SHAPE_PREFIXES}

    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append("line %d: expected 'key = value', got %r" % (line_no, stripped))
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        owner = next((p for p in _SHAPE_PREFIXES if key.startswith(p + ".")), None)
        if owner is not None:
            param = key[len(owner) + 1:]
            if param in shapes[owner]:
                errors.append("line %d: %s set twice" % (line_no, key))
            shapes[owner][param] = (line_no, raw)
            continue
        if key not in _SCALAR_KEYS:
            errors.append("line %d: unknown key %r" % (line_no, key))
            continue
        if key in key_lines:
            errors.append("line %d: %s set twice" % (line_no, key))
            continue
        key_lines[key] = line_no
        _, tag, _ = _SCALAR_KEYS[key]
        val = _parse_value(tag, raw, key, line_no, errors)
        if val is not None and key in _BOUNDS:
            listed = tag == "floatlist"
            broken = _bound_error(_BOUNDS[key], val if listed else (val,), listed)
            if broken:
                errors.append("line %d: %s %s, got %s" % (line_no, key, broken, raw))
        if val is not None:
            scalars[key] = val

    built_shapes = {p[len("model."):]: _build_shape(p, dict(v), errors)
                    for p, v in shapes.items()}

    def get(key):
        return scalars.get(key, _SCALAR_KEYS[key][2])

    if "experiment" not in scalars:
        errors.append("config: missing required key 'experiment'")

    if get("threads") != 1:
        errors.append("config: threads must be 1 (sweeps run serially), got %d"
                      % get("threads"))
    for key in ("eigen.v_values", "sweep.values"):
        if get(key) == ():
            errors.append("config: %s must list at least one value" % key)
    dt_max, dt_floor = get("simulate.dt_max"), 1e-14 * max(1.0, get("simulate.t_end"))
    if dt_max is not None and not dt_max >= dt_floor:  # integrate's smallest step
        errors.append("config: simulate.dt_max must be at least 1e-14*max(1, "
                      "simulate.t_end) = %g, got %g" % (dt_floor, dt_max))
    exp = scalars.get("experiment")
    axis = get("sweep.axis") if exp == "sweep" else None
    if exp is not None and (exp != "sweep" or axis is not None):
        run = exp if axis is None else axis + " sweep"
        for key, line_no in key_lines.items():
            reads = _READERS.get(key)
            if reads and exp not in reads and axis not in reads:
                errors.append("line %d: %s is not read by %s runs" % (line_no, key, run))
    for key in ("simulate.v_init", "sweep.v_eval"):  # both default to vbar
        if get(key) is None and (exp in _READERS[key] or axis in _READERS[key]):
            if get("model.clearance") == 0.0:
                errors.append("config: %s is required at zero clearance, where "
                              "vbar is infinite" % key)
            elif key == "sweep.v_eval" and get("model.production") == 0.0:
                # a level solve at 0 has no profile; an integration may start there
                errors.append("line %d: %s is required at zero production, where "
                              "vbar is 0" % (key_lines["model.production"], key))
    if axis is not None and get("sweep.values"):
        # each value is held to the bound of the key that the axis's edit sets
        _, rate, _, param = SWEEP_AXES[axis]
        if rate is None:
            edited = next(k for k, (f, _, _) in _SCALAR_KEYS.items() if f == param)
            bounds = _BOUNDS.get(edited)
        else:
            edited, bounds = "model.%s.%s" % (rate, param), _SHAPE_BOUNDS.get(param)
        broken = bounds and _bound_error(bounds, get("sweep.values"), False)
        if broken:
            errors.append("line %d: sweep.values %s, the bound of %s that a %s "
                          "sweep sets, got %s" % (
                              key_lines["sweep.values"], broken, edited, axis,
                              ", ".join("%g" % v for v in get("sweep.values"))))
    for run, key in (("eigen", "eigen.v_values"), ("sweep", "sweep.axis"),
                     ("sweep", "sweep.values")):
        if exp == run and get(key) is None:
            errors.append("config: experiment %r requires %s" % (run, key))
    if errors:
        raise ConfigError(errors)

    coeffs = CoefficientSet(
        production=get("model.production"), clearance=get("model.clearance"),
        x0=get("model.x0"),
        **{rate: shape for rate, shape in built_shapes.items() if shape is not None})
    mismatch = sweep_axis_error(coeffs, axis) if exp == "sweep" else None
    if mismatch:
        raise ConfigError(["config: " + mismatch])

    xmax = get("grid.xmax")
    if xmax is None:
        xmax = default_xmax(coeffs)
    # cells at least 1e-150 wide keep the products of their centres normal
    # floats, and at least 2**-26*x0 wide keep neighbouring centres apart
    floor = coeffs.x0 + get("grid.n") * max(1e-150, 2.0 ** -26 * coeffs.x0)
    if not xmax >= floor:
        raise ConfigError(["config: grid.xmax must be at least model.x0 + grid.n*max("
                           "1e-150, 2**-26*model.x0) = %.17g, got %.17g" % (floor, xmax)])

    fields = {f: get(key) for key, (f, _, _) in _SCALAR_KEYS.items() if f}
    fields["xmax"] = xmax
    return RunConfig(coeffs=coeffs, **fields)


def _shape_echo(shape) -> dict:
    """Rate shape as a plain dict for config echoes."""
    name = next(k for k, cls in SHAPES.items() if type(shape) is cls)
    return {"shape": name, **dataclasses.asdict(shape)}


def config_echo(cfg: RunConfig) -> dict:
    """Flatten a run configuration into a serializable dict.

    The model and grid are echoed in full.  A key of a run section
    (eigen.*, simulate.*, sweep.*) is echoed under its section, named by
    its suffix, when its value differs from its default; a sweep, for one,
    reads simulate.* keys.  A run accepts only the keys it reads, so each
    echoed key changes the run and a key set to its default changes
    nothing.  output.* only places files and is left out.  The echo's digest names the output
    files, so a change here renames them.
    """
    c = cfg.coeffs
    echo = {
        "experiment": cfg.experiment,
        "model": {
            "production": c.production, "clearance": c.clearance, "x0": c.x0,
            "conversion": _shape_echo(c.conversion),
            "fragmentation": _shape_echo(c.fragmentation),
            "decay": _shape_echo(c.decay),
        },
        "grid": {"xmax": cfg.xmax, "n": cfg.n},
    }
    for key, (f, _, default) in _SCALAR_KEYS.items():
        section, _, name = key.partition(".")
        if section in EXPERIMENTS and getattr(cfg, f) != default:
            echo.setdefault(section, {})[name] = getattr(cfg, f)
    return echo
