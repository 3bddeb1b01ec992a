"""Rate-function shapes and the parameter bundle consumed by every solver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Constant",
    "Affine",
    "Bell",
    "ScaledBell",
    "CoefficientShape",
    "SHAPES",
    "CoefficientSet",
    "eval_coefficients",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Constant:
    """Size-independent rate."""

    value: float

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)


@dataclass(frozen=True)
class Affine:
    """intercept + slope*x."""

    intercept: float
    slope: float

    def __call__(self, x):
        return self.intercept + self.slope * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Bell:
    """base + amplitude*exp(-(x-center)**2/width_sq).

    width_sq is the denominator of the exponent, not a standard deviation:
    width_sq = 0.1 gives exp(-10*(x-center)**2).
    """

    base: float
    amplitude: float
    center: float
    width_sq: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.base + self.amplitude * np.exp(-((x - self.center) ** 2) / self.width_sq)


@dataclass(frozen=True)
class ScaledBell:
    """base + tightness*g(tightness*(x-center)) with g the standard normal density.

    Peak height scales like tightness/sqrt(2*pi) while the width shrinks like
    1/tightness, so the area under the bump stays 1 for every tightness.
    """

    base: float
    tightness: float
    center: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        s = self.tightness * (x - self.center)
        return self.base + self.tightness * _INV_SQRT_2PI * np.exp(-0.5 * s * s)


CoefficientShape = Union[Constant, Affine, Bell, ScaledBell]

# config name -> shape class.  A shape's parameters are its dataclass fields,
# and a shape is a plain callable: shape(x) samples the rate.
SHAPES = {"constant": Constant, "affine": Affine, "bell": Bell, "scaled_bell": ScaledBell}


@dataclass(frozen=True)
class CoefficientSet:
    """Everything the model needs: scalar sources plus three rate shapes.

    Fragments are placed by the uniform rule (daughters uniform on the
    parent size), the only one implemented.

    Attributes
    ----------
    production : float
        Monomer production rate (constant source).
    clearance : float
        Monomer clearance rate (linear sink).
    x0 : float
        Minimal polymer size; densities vanish at and below it.
    conversion : CoefficientShape
        Size-dependent speed at which polymers consume monomer.
    fragmentation : CoefficientShape
        Size-dependent splitting rate.
    decay : CoefficientShape
        Size-dependent polymer degradation rate.
    """

    production: float
    clearance: float
    x0: float = 0.0
    conversion: CoefficientShape = field(default_factory=lambda: Constant(0.001))
    fragmentation: CoefficientShape = field(default_factory=lambda: Affine(0.0, 0.03))
    decay: CoefficientShape = field(default_factory=lambda: Constant(0.05))

    def __post_init__(self):
        if self.production < 0.0:
            raise ValueError("production must be nonnegative, got %r" % (self.production,))
        if self.clearance < 0.0:
            raise ValueError("clearance must be nonnegative, got %r" % (self.clearance,))
        if self.x0 < 0.0:
            raise ValueError("x0 must be nonnegative, got %r" % (self.x0,))

    @property
    def vbar(self) -> float:
        """Uninfected monomer level production/clearance; inf at zero clearance."""
        if self.clearance == 0.0:
            return float("inf")
        return self.production / self.clearance


def _check_rate(values: np.ndarray, x: np.ndarray, name: str) -> np.ndarray:
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            "%s is %s at x=%.6g (value %.6g); rates must be finite and nonnegative "
            "on the grid" % (name, "negative" if values[i] < 0.0 else "not finite",
                             float(x[i]), float(values[i]))
        )
    return values


@np.errstate(over="ignore", invalid="ignore")
def eval_coefficients(coeffs: CoefficientSet, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample the three rate shapes at the cell centers of SizeGrid ``grid``.

    Returns (conversion, fragmentation, decay) as float arrays.  Raises
    ValueError naming the offending rate and location if any shape is
    negative or not finite at any center.
    """
    x = grid.centers
    conv = _check_rate(np.asarray(coeffs.conversion(x), dtype=float), x, "conversion")
    frag = _check_rate(np.asarray(coeffs.fragmentation(x), dtype=float), x, "fragmentation")
    decay = _check_rate(np.asarray(coeffs.decay(x), dtype=float), x, "decay")
    return conv, frag, decay
