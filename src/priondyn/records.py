"""Experiment records and deterministic serialization.

Output bytes must be reproducible run-to-run: JSON is emitted with sorted
keys and every float printed as %.17g (enough digits to round-trip a
double exactly), CSV with the same float format.  Wall-clock timings are
kept out of serialized output unless explicitly requested, since they
would break byte-identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import SizeGrid

# CPython's built-in SHA-256 gives the same digests as hashlib without
# loading OpenSSL's libcrypto
try:
    from _sha2 import sha256 as _sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "PACKAGE_VERSION",
    "ExperimentRecord",
    "grid_hash",
    "sha256_hex",
    "canonical_json",
    "write_csv",
]

PACKAGE_VERSION = "0.1.0"


def sha256_hex(*chunks: bytes) -> str:
    """Hex SHA-256 of the concatenated chunks."""
    hsh = _sha256()
    for chunk in chunks:
        hsh.update(chunk)
    return hsh.hexdigest()


def grid_hash(grid: SizeGrid) -> str:
    """Stable fingerprint of a grid's geometry."""
    return sha256_hex(grid.centers.tobytes(), grid.widths.tobytes())[:16]


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return "%.17g" % x


def _canon(obj, parts: list, drop_keys=()):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _canon(obj.tolist(), parts, drop_keys)
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _canon(item, parts, drop_keys)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        first = True
        for key in sorted(obj):
            if key in drop_keys:
                continue
            if not first:
                parts.append(",")
            first = False
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _canon(obj[key], parts, drop_keys)
        parts.append("}")
    else:
        raise TypeError("cannot serialize %r" % type(obj).__name__)


def canonical_json(obj, drop_keys=()) -> str:
    """Deterministic JSON text: sorted keys, %.17g floats, no whitespace."""
    parts: list = []
    _canon(obj, parts, drop_keys=tuple(drop_keys))
    return "".join(parts)


def write_csv(path, header, columns) -> None:
    """Columns of equal length to CSV with %.17g floats, '.' decimal."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns have unequal lengths")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            cells = []
            for c in columns:
                val = c[i]
                if isinstance(val, (float, np.floating)):
                    cells.append(_fmt_float(float(val)))
                else:
                    cells.append(str(val))
            fh.write(",".join(cells) + "\n")


@dataclass
class ExperimentRecord:
    """One experiment's inputs, outputs and health indicators.

    diagnostics may carry a "timings" entry; it is dropped at
    serialization unless include_timings is set, keeping output bytes
    deterministic.
    """

    experiment: str
    config_echo: dict
    results: dict
    diagnostics: dict = dc_field(default_factory=dict)

    def to_json(self, include_timings: bool = False) -> str:
        payload = {
            "experiment": self.experiment,
            "config": self.config_echo,
            "results": self.results,
            "diagnostics": self.diagnostics,
            "provenance": {"version": PACKAGE_VERSION},
        }
        drop = () if include_timings else ("timings",)
        return canonical_json(payload, drop_keys=drop)
