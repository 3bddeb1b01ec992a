"""Config parsing, error collection, deterministic serialization, and the
boundary between the numerical modules and the experiment layer."""

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import priondyn
from priondyn import (PACKAGE_VERSION, Affine, Bell, ConfigError, Constant,
                      ExperimentRecord, SizeGrid, canonical_json, config,
                      config_echo, default_xmax, grid_hash, parse_config,
                      write_csv)
from priondyn.cli import _digest
from priondyn.coefficients import SHAPES

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

# output-file tags of the shipped configs; an echo or schema edit that
# renames the outputs fails here
SHIPPED_TAGS = {
    "fig2": "48da1ee212", "fig2-bell": "805366053b", "fig3": "8b027e7509",
    "fig3-control": "d8cad2c2cc", "fig4": "19473b89ee", "fig5": "1b99ceccfd",
    "fig6": "eed2c53c67", "fig7": "b776c8fce3",
}


# --- parsing ---------------------------------------------------------------

def test_minimal_config_fills_defaults():
    cfg = parse_config("experiment = steady\n")
    assert cfg.experiment == "steady"
    assert cfg.n == 800
    assert cfg.coeffs.production == 2400.0
    assert cfg.coeffs.clearance == 4.0
    assert isinstance(cfg.coeffs.conversion, Constant)
    assert isinstance(cfg.coeffs.fragmentation, Affine)
    assert cfg.coeffs.fragmentation.intercept == 0.0
    assert isinstance(cfg.coeffs.decay, Constant)
    # default domain scales with the decay-to-splitting ratio
    assert cfg.xmax == pytest.approx(10.0 * 0.05 / 0.03)
    assert cfg.coeffs.vbar == 600.0


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("\n".join([
        "# leading comment",
        "experiment = eigen   # trailing comment",
        "",
        "eigen.v_values = 10, 20",
        "",
    ]))
    assert cfg.experiment == "eigen"
    assert cfg.eigen_v_values == (10.0, 20.0)


def test_error_collection_is_exhaustive():
    bad = "\n".join([
        "experiment = eigen",
        "bogus.key = 1",
        "model.production = -5",
        "grid.n = 1",
        "grid.n = 4",
    ])
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    msg = str(exc.value)
    # every problem reported at once, each with its line
    assert "line 2" in msg and "bogus.key" in msg
    assert "production" in msg
    assert "grid.n" in msg and "set twice" in msg
    assert "eigen.v_values" in msg  # required by the experiment
    assert msg.count("\n") >= 4


@pytest.mark.parametrize("line, message", [
    ("threads = 2", "threads must be 1"),
    ("model.kernel = uniform", "unknown key 'model.kernel'"),
    ("simulate.record_every = 0", "simulate.record_every must be at least 1"),
    ("sweep.record_every = -1", "sweep.record_every must be at least 1"),
    ("steady.v_max = 100", "unknown key 'steady.v_max'"),
])
def test_retired_and_out_of_range_keys_are_named(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config("experiment = steady\n" + line + "\n")


@pytest.mark.parametrize("base", ["experiment = simulate\n",
                                  "experiment = sweep\nsweep.axis = dose\nsweep.values = 1\n"])
@pytest.mark.parametrize("key", sorted(k for k, (_, _, default) in config._SCALAR_KEYS.items()
                                       if default is not None))
def test_a_key_set_to_its_default_changes_nothing(base, key):
    _, tag, default = config._SCALAR_KEYS[key]
    text = ", ".join(map(str, default)) if tag == "floatlist" else str(default)
    plain = parse_config(base)
    explicit = parse_config(base + "%s = %s\n" % (key, text))
    assert explicit == plain
    assert config_echo(explicit) == config_echo(plain)


def test_readme_key_table_lists_every_scalar_key():
    text = (ROOT / "README.md").read_text()
    table = text[text.index("| key | default | read by |"):].split("\n\n", 1)[0]
    keys = {m.group(1) for m in re.finditer(r"^\| `([a-z0-9_.]+)` \|", table, re.M)}
    assert keys == set(config._SCALAR_KEYS)


def test_records_carry_the_packaged_version():
    pyproject = (ROOT / "pyproject.toml").read_text()
    version = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.M).group(1)
    assert PACKAGE_VERSION == version


def test_threads_one_is_still_accepted():
    assert parse_config("experiment = steady\nthreads = 1\n") == \
        parse_config("experiment = steady\n")


def test_shape_parameters_need_a_shape():
    with pytest.raises(ConfigError, match="shape"):
        parse_config("\n".join([
            "experiment = steady",
            "model.conversion.amplitude = 0.1",
        ]))


def test_unknown_shape_parameter_named():
    with pytest.raises(ConfigError, match="tightness") as exc_info:
        parse_config("\n".join([
            "experiment = steady",
            "model.conversion.shape = bell",
            "model.conversion.base = 0.001",
            "model.conversion.amplitude = 0.1",
            "model.conversion.center = 2.0",
            "model.conversion.width_sq = 0.1",
            "model.conversion.tightness = 3.0",
        ]))
    # the message should also say what the shape does accept
    assert "takes: amplitude, base, center, width_sq" in str(exc_info.value)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_every_shape_round_trips_and_knows_its_curvature(name):
    cls = SHAPES[name]
    params = {f.name: 0.5 + 0.25 * k for k, f in enumerate(dataclasses.fields(cls))}
    shape = cls(**params)

    # analytic curvature against a central difference of the shape itself
    x = np.linspace(-2.0, 4.0, 25)
    eps = 1e-3
    fd = (shape(x + eps) - 2.0 * shape(x) + shape(x - eps)) / eps ** 2
    np.testing.assert_allclose(shape.curvature(x), fd, rtol=1e-5, atol=1e-6)

    for rate in ("conversion", "fragmentation", "decay"):
        text = "experiment = steady\nmodel.%s.shape = %s\n" % (rate, name) + "".join(
            "model.%s.%s = %r\n" % (rate, k, v) for k, v in params.items())
        cfg = parse_config(text)
        assert getattr(cfg.coeffs, rate) == shape
        echo = config_echo(cfg)["model"][rate]
        assert echo == {"shape": name, **params}
        again = parse_config("experiment = steady\n" + "".join(
            "model.%s.%s = %s\n" % (rate, k, v) for k, v in echo.items()))
        assert getattr(again.coeffs, rate) == shape


def test_sweep_axis_must_fit_the_configured_shape():
    def parse(axis, *shape_lines):
        return parse_config("\n".join([
            "experiment = sweep", "sweep.axis = " + axis, "sweep.values = 1",
            *shape_lines]))

    with pytest.raises(ConfigError) as exc_info:
        parse("frag_slope", "model.fragmentation.shape = constant",
              "model.fragmentation.value = 0.03")
    assert exc_info.value.errors == [
        "config: frag_slope sweep requires an affine fragmentation shape"]
    with pytest.raises(ConfigError, match="peak_center sweep requires a bell"):
        parse("peak_center")
    # fitting shapes, and dose, which edits no rate
    assert parse("frag_slope").sweep_axis == "frag_slope"
    assert parse("dose").sweep_axis == "dose"


def test_spacing_keys_are_rejected():
    # geometric grids were removed; their keys are unknown like any other
    with pytest.raises(ConfigError) as exc_info:
        parse_config("\n".join([
            "experiment = steady",
            "grid.spacing = geometric",
            "grid.ratio = 1.02",
        ]))
    assert exc_info.value.errors == ["line 2: unknown key 'grid.spacing'",
                                     "line 3: unknown key 'grid.ratio'"]


def test_shipped_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(paths) == 8
    seen = {}
    for p in paths:
        seen[p.name] = parse_config(p.read_text())
    assert seen["fig5.cfg"].sweep_values == (0.001, 0.01, 0.1)
    assert seen["fig6.cfg"].sweep_values == (0.0314, 0.0471, 0.0628)
    assert len(seen["fig7.cfg"].sweep_values) == 16
    assert seen["fig7.cfg"].sweep_v_eval == 600.0
    assert seen["fig2.cfg"].eigen_v_values[-1] == 600.0
    assert isinstance(seen["fig3.cfg"].coeffs.conversion, Bell)


def test_default_xmax_falls_back_without_slope():
    cfg = parse_config("\n".join([
        "experiment = steady",
        "model.fragmentation.shape = affine",
        "model.fragmentation.intercept = 0.01",
        "model.fragmentation.slope = 0.0",
    ]))
    # without a splitting slope there is no tail scale to cover; use the
    # wide fixed fallback
    assert cfg.xmax == 60.0
    # with a slope the domain tracks the mean-size scale even when the
    # intercept is nonzero
    cfg2 = parse_config("\n".join([
        "experiment = steady",
        "model.fragmentation.shape = affine",
        "model.fragmentation.intercept = 0.01",
        "model.fragmentation.slope = 0.03",
    ]))
    assert cfg2.xmax == pytest.approx(10.0 * 0.05 / 0.03)


# --- canonical serialization -----------------------------------------------

def test_canonical_json_is_stable_and_sorted():
    s = canonical_json({"b": 0.1, "a": [1.0, 2.5], "c": {"y": 1, "x": 2}})
    assert s.index('"a"') < s.index('"b"') < s.index('"c"')
    assert "0.10000000000000001" in s
    assert canonical_json({"b": 0.1, "a": [1.0, 2.5], "c": {"x": 2, "y": 1}}) == s


def test_canonical_json_handles_numpy_and_nonfinite():
    s = canonical_json({"v": np.array([1.0, float("nan"), float("inf")]),
                        "n": np.int64(3)})
    parsed = json.loads(s)
    assert parsed["v"][0] == 1.0
    assert parsed["v"][1] is None
    assert parsed["v"][2] is None
    assert parsed["n"] == 3


def test_canonical_json_writes_numpy_booleans_as_json_booleans():
    assert canonical_json(np.bool_(True)) == "true"
    assert canonical_json({"a": np.False_, "b": [np.True_, True]}) == \
        '{"a":false,"b":[true,true]}'


def test_record_round_trip():
    rec = ExperimentRecord(experiment="eigen",
                           config_echo={"experiment": "eigen"},
                           results={"loss": [0.1, -0.2]},
                           diagnostics={"iterations": 7, "timings": {"t": 1.0}})
    back = json.loads(rec.to_json())
    assert back["experiment"] == "eigen"
    assert back["results"]["loss"] == [0.1, -0.2]
    assert "timings" not in back["diagnostics"]
    assert back["provenance"] == {"version": priondyn.__version__}
    # timings only appear on request
    assert "timings" in json.loads(rec.to_json(include_timings=True))["diagnostics"]


def test_write_csv_layout(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, ["a", "b"], [[1.0, 0.5], [2.0, float("nan")]])
    assert out.read_text().splitlines() == ["a,b", "1,2", "0.5,null"]


@pytest.mark.parametrize("header, columns, message", [
    (["a"], [[1.0], [2.0]], "header has 1 names for 2 columns"),
    (["a", "b", "c"], [[1.0], [2.0]], "header has 3 names for 2 columns"),
    (["a"], [], "header has 1 names for 0 columns"),
    ([], [], "header has 0 names for 0 columns"),
    (["a", "b"], [[1.0, 2.0], [3.0]], "not one-dimensional of equal length"),
    (["a"], [[[1.0, 2.0]]], "not one-dimensional of equal length"),
])
def test_write_csv_rejects_mismatched_input(tmp_path, header, columns, message):
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=message):
        write_csv(out, header, columns)
    assert not out.exists()


def _reference_csv(path, header, columns):
    """The cell-at-a-time writer: the oracle for write_csv's bytes."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(columns[0])):
            cells = []
            for c in columns:
                val = c[i]
                if isinstance(val, (float, np.floating)):
                    x = float(val)
                    cells.append("null" if math.isnan(x) or math.isinf(x)
                                 else "%.17g" % x)
                else:
                    cells.append(str(val))
            fh.write(",".join(cells) + "\n")


# NaN, both infinities, signed zero, subnormals and the ends of the range
EDGE_FLOATS = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
    -2.2250738585072014e-308, 1e-307, 1.7976931348623157e308, -1e308])


@st.composite
def csv_columns(draw, n):
    kind = draw(st.sampled_from(["finite", "float", "float32", "int", "bool",
                                 "object"]))
    if kind == "finite":
        return np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      min_size=n, max_size=n)), dtype=float)
    if kind == "float":
        cells = st.one_of(EDGE_FLOATS, st.floats())
        return np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
    if kind == "float32":
        return np.array(draw(st.lists(st.floats(width=32), min_size=n, max_size=n)),
                        dtype=np.float32)
    if kind == "int":
        cells = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)
        return np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.int64)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cells = st.one_of(st.none(), st.text(max_size=6), st.floats(),
                      st.one_of(EDGE_FLOATS, st.floats()).map(np.float64))
    column = np.empty(n, dtype=object)
    column[:] = draw(st.lists(cells, min_size=n, max_size=n))
    return column


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(min_value=0, max_value=50),
       width=st.integers(min_value=1, max_value=5))
def test_write_csv_bytes_match_the_cell_by_cell_writer(tmp_path_factory, data, n,
                                                       width):
    columns = [data.draw(csv_columns(n)) for _ in range(width)]
    header = ["c%d" % k for k in range(width)]
    base = tmp_path_factory.getbasetemp()
    write_csv(base / "fast.csv", header, columns)
    _reference_csv(base / "slow.csv", header, columns)
    assert (base / "fast.csv").read_bytes() == (base / "slow.csv").read_bytes()


def test_grid_hash_sensitivity():
    g1 = SizeGrid.uniform(30.0, 100)
    g2 = SizeGrid.uniform(30.0, 100)
    g3 = SizeGrid.uniform(30.0, 101)
    g4 = SizeGrid.uniform(30.0, 100, x0=0.5)
    assert grid_hash(g1) == grid_hash(g2)
    assert grid_hash(g1) != grid_hash(g3)
    assert grid_hash(g1) != grid_hash(g4)
    assert len(grid_hash(g1)) == 16


def test_config_echo_structure():
    cfg = parse_config("\n".join([
        "experiment = sweep",
        "sweep.axis = tightness",
        "sweep.values = 0.1, 0.2",
        "sweep.v_eval = 600.0",
        "model.conversion.shape = scaled_bell",
        "model.conversion.base = 0.001",
        "model.conversion.tightness = 0.1",
        "model.conversion.center = 8.0",
        "grid.xmax = 60.0",
        "grid.n = 100",
    ]))
    echo = config_echo(cfg)
    assert echo["experiment"] == "sweep"
    assert echo["model"]["conversion"]["shape"] == "scaled_bell"
    assert echo["model"]["production"] == 2400.0
    assert echo["grid"] == {"xmax": 60.0, "n": 100}
    assert echo["sweep"]["axis"] == "tightness"
    assert echo["sweep"]["v_eval"] == 600.0
    assert "simulate" not in echo
    # the echo is serializable as-is
    canonical_json(echo)


def test_config_echo_names_changed_keys_of_other_sections():
    # a sweep item reads simulate.seed_scale; a different seed must not
    # write the same file names as the shipped run
    fig6 = (CONFIG_DIR / "fig6.cfg").read_text()
    echo = config_echo(parse_config(fig6))
    seeded = config_echo(parse_config(fig6 + "simulate.seed_scale = 5\n"))
    assert seeded["simulate"] == {"seed_scale": 5.0}
    assert _digest(seeded) != _digest(echo)
    # a key set to its default, or a new output place, changes nothing
    moved = fig6.replace("output.dir = out/fig6", "output.dir = elsewhere")
    assert config_echo(parse_config(moved + "simulate.seed_scale = 1\n")) == echo
    # a simulate run reads eigen.tol for its loss rate at vbar
    sim = config_echo(parse_config("experiment = simulate\neigen.tol = 1e-8\n"))
    assert sim["eigen"] == {"tol": 1e-8}


def test_shipped_config_output_names_are_pinned():
    tags = {p.stem: _digest(config_echo(parse_config(p.read_text())))
            for p in CONFIG_DIR.glob("*.cfg")}
    assert tags == SHIPPED_TAGS


# --- layering --------------------------------------------------------------

NUMERICAL_MODULES = ("coefficients", "grid", "kernel", "operator", "eigen",
                     "steady", "dynamics", "discrete", "reference")
EXPERIMENT_LAYER = {"config", "records", "cli"}


def _package_imports(module: str) -> set:
    """priondyn submodules a module's source imports, read with ast."""
    path = Path(priondyn.__file__).parent / (module + ".py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ("priondyn." + base).rstrip(".")
            names = ([base] if base != "priondyn" else
                     ["priondyn." + a.name for a in node.names])
        else:
            continue
        found.update(n.split(".")[1] for n in names
                     if n.startswith("priondyn."))
    return found


def test_numerical_modules_import_no_experiment_layer():
    leaks = {m: sorted(_package_imports(m) & EXPERIMENT_LAYER)
             for m in NUMERICAL_MODULES}
    assert {m: names for m, names in leaks.items() if names} == {}
