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

    def curvature(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Affine:
    """intercept + slope*x."""

    intercept: float
    slope: float

    def __call__(self, x):
        return self.intercept + self.slope * np.asarray(x, dtype=float)

    def curvature(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


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

    def curvature(self, x):
        d = np.asarray(x, dtype=float) - self.center
        e = np.exp(-d * d / self.width_sq)
        return self.amplitude * e * (4.0 * d * d / self.width_sq ** 2 - 2.0 / self.width_sq)


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

    def curvature(self, x):
        a = self.tightness
        s = a * (np.asarray(x, dtype=float) - self.center)
        g = np.exp(-0.5 * s * s) / np.sqrt(2.0 * np.pi)
        return a ** 3 * (s * s - 1.0) * g


CoefficientShape = Union[Constant, Affine, Bell, ScaledBell]

# config name -> shape class.  A shape's parameters are its dataclass fields;
# shape(x) samples the rate and shape.curvature(x) its second derivative.
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


def _check_nonneg(values: np.ndarray, x: np.ndarray, name: str) -> np.ndarray:
    bad = np.flatnonzero(values < 0.0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            "%s is negative at x=%.6g (value %.6g); rates must be nonnegative on the grid"
            % (name, float(x[i]), float(values[i]))
        )
    return values


def eval_coefficients(coeffs: CoefficientSet, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample the three rate shapes at the grid's cell centers.

    ``grid`` is a SizeGrid (anything with a ``centers`` array works).
    Returns (conversion, fragmentation, decay) as float arrays.  Raises
    ValueError naming the offending rate and location if any shape goes
    negative at any center.
    """
    x = np.asarray(getattr(grid, "centers", grid), dtype=float)
    conv = _check_nonneg(np.asarray(coeffs.conversion(x), dtype=float), x, "conversion")
    frag = _check_nonneg(np.asarray(coeffs.fragmentation(x), dtype=float), x, "fragmentation")
    decay = _check_nonneg(np.asarray(coeffs.decay(x), dtype=float), x, "decay")
    return conv, frag, decay
