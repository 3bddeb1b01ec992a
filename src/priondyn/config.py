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
rejected; every violation is collected and reported with its line number
rather than stopping at the first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .coefficients import SHAPES, Affine, CoefficientSet, CoefficientShape, Constant
from .grid import SizeGrid

__all__ = ["RunConfig", "ConfigError", "parse_config", "config_echo", "default_xmax",
           "SWEEP_AXES", "sweep_axis_error"]

EXPERIMENTS = ("eigen", "steady", "simulate", "sweep", "validate")
# axis -> (rate it edits, shape that rate must have, parameter it sets);
# dose scales the inoculum and edits no rate
SWEEP_AXES = {
    "bell_amplitude": ("conversion", "bell", "amplitude"),
    "frag_slope": ("fragmentation", "affine", "slope"),
    "tightness": ("conversion", "scaled_bell", "tightness"),
    "peak_center": ("conversion", "bell", "center"),
    "dose": None,
}

# key -> (RunConfig field, type tag, default); the model.* keys feed the
# coefficient set rather than a field, and shapes are handled separately.
# threads fills no field and must be 1: sweeps run serially, and existing
# config files (the benchmark's among them) still set threads = 1
_SCALAR_KEYS = {
    "experiment": ("experiment", "enum:experiment", None),
    "model.production": (None, "float", 2400.0),
    "model.clearance": (None, "float", 4.0),
    "model.x0": (None, "float", 0.0),
    "grid.xmax": ("xmax", "float", None),
    "grid.n": ("n", "int", 800),
    "eigen.v_values": ("eigen_v_values", "floatlist", None),
    "eigen.tol": ("eigen_tol", "float", 1e-10),
    "steady.v_max": ("steady_v_max", "float", None),
    "simulate.t_end": ("t_end", "float", 200.0),
    "simulate.v_init": ("v_init", "float", None),
    "simulate.seed_scale": ("seed_scale", "float", 1.0),
    "simulate.record_every": ("record_every", "int", 1),
    "simulate.snapshot_times": ("snapshot_times", "floatlist", (96.0,)),
    "simulate.fit_start": ("fit_start", "float", 15.0),
    "simulate.fit_end": ("fit_end", "float", 40.0),
    "simulate.threshold_ratio": ("threshold_ratio", "float", 1e3),
    "simulate.dt_max": ("dt_max", "float", None),
    "sweep.axis": ("sweep_axis", "enum:axis", None),
    "sweep.values": ("sweep_values", "floatlist", None),
    "sweep.t_end": ("sweep_t_end", "float", 200.0),
    "sweep.probe_time": ("probe_time", "float", 96.0),
    "sweep.v_eval": ("sweep_v_eval", "float", None),
    "sweep.threshold_ratio": ("sweep_threshold_ratio", "float", 1e3),
    "sweep.record_every": ("sweep_record_every", "int", 4),
    "output.dir": ("out_dir", "str", "out"),
    "output.timings": ("timings", "bool", False),
    "seed": ("seed", "int", 0),
    "threads": (None, "int", 1),
}

_SHAPE_PREFIXES = ("model.conversion", "model.fragmentation", "model.decay")


class ConfigError(ValueError):
    """All schema violations found in one pass, each tagged with its line."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


def default_xmax(coeffs: CoefficientSet) -> float:
    """Domain size covering the equilibrium profile tail.

    For constant decay with a linear-growth splitting rate the
    equilibrium density decays like exp(-(x*slope/decay0)**2/2); ten mean
    sizes leave less than 1e-8 of the mass outside.  Other shape classes
    fall back to a wide fixed domain.
    """
    if isinstance(coeffs.decay, Constant) and isinstance(coeffs.fragmentation, Affine) \
            and coeffs.fragmentation.slope > 0.0:
        return 10.0 * coeffs.decay.value / coeffs.fragmentation.slope
    return 60.0


def sweep_axis_error(coeffs: CoefficientSet, axis: str) -> Optional[str]:
    """Why ``axis`` cannot sweep ``coeffs``, or None when it fits."""
    if axis not in SWEEP_AXES:
        return "unknown sweep axis %r" % (axis,)
    if SWEEP_AXES[axis] is None:
        return None
    rate, shape, _ = SWEEP_AXES[axis]
    if isinstance(getattr(coeffs, rate), SHAPES[shape]):
        return None
    return "%s sweep requires %s %s %s shape" % (
        axis, "an" if shape[0] in "aeiou" else "a", shape, rate)


@dataclass
class RunConfig:
    """Validated run description; see module docstring for the file format.

    Built only by parse_config, which fills every field from _SCALAR_KEYS.
    """

    experiment: str
    coeffs: CoefficientSet
    xmax: float
    n: int
    eigen_v_values: Optional[tuple]
    eigen_tol: float
    steady_v_max: Optional[float]
    t_end: float
    v_init: Optional[float]
    seed_scale: float
    record_every: int
    snapshot_times: tuple
    fit_start: float
    fit_end: float
    threshold_ratio: float
    dt_max: Optional[float]
    sweep_axis: Optional[str]
    sweep_values: Optional[tuple]
    sweep_t_end: float
    probe_time: float
    sweep_v_eval: Optional[float]
    sweep_threshold_ratio: float
    sweep_record_every: int
    out_dir: str
    timings: bool
    seed: int

    @property
    def vbar(self) -> float:
        if self.coeffs.clearance == 0.0:
            return float("inf")
        return self.coeffs.production / self.coeffs.clearance

    def make_grid(self) -> SizeGrid:
        return SizeGrid.uniform(self.xmax, self.n, x0=self.coeffs.x0)


def _parse_value(tag: str, raw: str, key: str, line_no: int, errors: list):
    raw = raw.strip()
    try:
        if tag == "float":
            return float(raw)
        if tag == "int":
            return int(raw)
        if tag == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if tag == "floatlist":
            return tuple(float(p) for p in raw.split(",") if p.strip() != "")
        if tag == "str":
            return raw
        if tag.startswith("enum:"):
            choices = EXPERIMENTS if tag == "enum:experiment" else SWEEP_AXES
            if raw not in choices:
                raise ValueError("must be one of %s" % (", ".join(choices)))
            return raw
    except ValueError as exc:
        detail = str(exc) if str(exc) != raw else "cannot parse %r as %s" % (raw, tag)
        errors.append("line %d: %s: %s" % (line_no, key, detail))
        return None
    errors.append("line %d: %s: unhandled value type %s" % (line_no, key, tag))
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
        val = _parse_value("float", raw, "%s.%s" % (prefix, name), pln, errors)
        if val is None:
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
        if key in scalars:
            errors.append("line %d: %s set twice" % (line_no, key))
            continue
        _, tag, _ = _SCALAR_KEYS[key]
        val = _parse_value(tag, raw, key, line_no, errors)
        if val is not None:
            scalars[key] = val

    built_shapes = {p[len("model."):]: _build_shape(p, dict(v), errors)
                    for p, v in shapes.items()}

    def get(key):
        return scalars.get(key, _SCALAR_KEYS[key][2])

    if "experiment" not in scalars:
        errors.append("config: missing required key 'experiment'")

    for key, label in (("model.production", "production"), ("model.clearance", "clearance"),
                       ("model.x0", "x0")):
        if get(key) is not None and get(key) < 0.0:
            errors.append("config: %s must be nonnegative, got %g" % (label, get(key)))
    if get("grid.n") < 2:
        errors.append("config: grid.n must be at least 2, got %d" % get("grid.n"))
    if get("threads") != 1:
        errors.append("config: threads must be 1 (sweeps run serially), got %d"
                      % get("threads"))
    for key in ("simulate.record_every", "sweep.record_every"):
        if get(key) < 1:
            errors.append("config: %s must be at least 1, got %d" % (key, get(key)))
    exp = scalars.get("experiment")
    if exp == "eigen" and get("eigen.v_values") is None:
        errors.append("config: experiment 'eigen' requires eigen.v_values")
    if exp == "sweep":
        if get("sweep.axis") is None:
            errors.append("config: experiment 'sweep' requires sweep.axis")
        if get("sweep.values") is None:
            errors.append("config: experiment 'sweep' requires sweep.values")
    if errors:
        raise ConfigError(errors)

    coeffs = CoefficientSet(
        production=get("model.production"), clearance=get("model.clearance"),
        x0=get("model.x0"),
        **{rate: shape for rate, shape in built_shapes.items() if shape is not None})
    mismatch = sweep_axis_error(coeffs, get("sweep.axis")) if exp == "sweep" else None
    if mismatch:
        raise ConfigError(["config: " + mismatch])

    xmax = get("grid.xmax")
    if xmax is None:
        xmax = default_xmax(coeffs)
    if xmax <= coeffs.x0:
        raise ConfigError(["config: grid.xmax (%g) must exceed model.x0 (%g)"
                           % (xmax, coeffs.x0)])

    fields = {f: get(key) for key, (f, _, _) in _SCALAR_KEYS.items() if f}
    fields["xmax"] = xmax
    return RunConfig(coeffs=coeffs, **fields)


def _shape_echo(shape) -> dict:
    """Rate shape as a plain dict for config echoes."""
    name = next(k for k, cls in SHAPES.items() if type(shape) is cls)
    return {"shape": name, **dataclasses.asdict(shape)}


def config_echo(cfg: RunConfig) -> dict:
    """Flatten a run configuration into a serializable dict.

    The experiment's own section holds every set <experiment>.* key,
    named by its suffix.  A key of another run section (a sweep reads
    simulate.*, steady.* and eigen.* keys) is echoed under its section
    when it differs from its default, so two configs that run differently
    never share an echo; output.* only places files and is left out.  The
    echo's digest names the output files, so a change here renames them.
    """
    c = cfg.coeffs
    echo = {
        "experiment": cfg.experiment,
        "model": {
            "production": c.production, "clearance": c.clearance,
            "x0": c.x0, "kernel": "uniform",
            "conversion": _shape_echo(c.conversion),
            "fragmentation": _shape_echo(c.fragmentation),
            "decay": _shape_echo(c.decay),
        },
        "grid": {"xmax": cfg.xmax, "n": cfg.n},
        "seed": cfg.seed,
    }
    for key, (f, _, default) in _SCALAR_KEYS.items():
        section, _, name = key.partition(".")
        if section not in ("eigen", "steady", "simulate", "sweep"):
            continue
        value = getattr(cfg, f)
        if (value is not None) if section == cfg.experiment else (value != default):
            echo.setdefault(section, {})[name] = value
    return echo
