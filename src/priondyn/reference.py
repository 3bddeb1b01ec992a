"""Closed-form reference quantities for the constant-coefficient model.

Every formula here is independent of the numerical machinery in the rest of
the package: these are the analytic values the solvers are tested against.
The model family covered is

* conversion speed constant in size (``conv0``),
* fragmentation rate proportional to size (slope ``frag_slope``),
* polymer decay rate constant (``decay0``),
* binary splitting with uniform fragment placement,
* minimal polymer size 0.

plus the affine one-parameter extension handled by
:func:`affine_family_loss_rate`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "loss_rate_constant",
    "adjoint_slope_length",
    "adjoint_profile",
    "unimodal_profile",
    "dilated_equilibrium_profile",
    "affine_family_loss_rate",
    "incubation_time_log_law",
    "initial_seed_profile",
]


def loss_rate_constant(conv0: float, frag_slope: float, decay0: float, v: float) -> float:
    """Principal loss rate for the constant-coefficient family.

    Parameters
    ----------
    conv0 : float
        Size-independent conversion speed.
    frag_slope : float
        Proportionality constant of the size-linear fragmentation rate.
    decay0 : float
        Size-independent polymer decay rate.
    v : float
        Monomer level the linearized polymer equation is frozen at.

    Returns
    -------
    float
        The loss rate; the polymer population evolves like
        ``exp(-loss_rate * t)`` in the frozen-monomer approximation, so
        negative values mean growth.
    """
    return decay0 - math.sqrt(conv0 * frag_slope * v)


def adjoint_slope_length(conv0: float, frag_slope: float, v: float) -> float:
    """Length scale L of the affine adjoint weight ``1 + x/L``."""
    return math.sqrt(conv0 * v / frag_slope)


def adjoint_profile(x, conv0: float, frag_slope: float, v: float):
    """The affine adjoint eigenweight ``1 + x/L`` evaluated on ``x``."""
    return 1.0 + np.asarray(x) / adjoint_slope_length(conv0, frag_slope, v)


# --- the explicit unimodal equilibrium shape -------------------------------
#
# In the rescaled size r the equilibrium density is proportional to
#     shape(r) = (r + r**2/2) * exp(-r - r**2/2)
# Antiderivative of shape: -(1/2)*(1+r)*exp(-r - r**2/2), giving mass 1/2
# on [0, inf).  Antiderivative of (1+r)*shape: -(1+r+r**2/2)*exp(-r-r**2/2),
# giving integral 1; subtracting, the first moment is 1/2 and the mean is
# exactly 1.

UNIMODAL_MASS_EXACT = 0.5


def unimodal_profile(r):
    """Rescaled equilibrium density shape (unnormalized)."""
    r = np.asarray(r, dtype=float)
    return (r + 0.5 * r * r) * np.exp(-r - 0.5 * r * r)


def dilated_equilibrium_profile(x, frag_slope: float, decay0: float):
    """Equilibrium density on the physical size axis, normalized to mass 1.

    The dilation is fixed by requiring the center of mass to equal
    decay0/frag_slope; with the rescaled mean exactly 1 that means
    r = x*frag_slope/decay0, and the mass normalization divides by
    (1/2)*(decay0/frag_slope).
    """
    scale = frag_slope / decay0
    return unimodal_profile(np.asarray(x) * scale) * scale / UNIMODAL_MASS_EXACT


def affine_family_loss_rate(conv0: float, conv_slope: float,
                            frag0: float, frag_slope: float,
                            decay0: float, v: float) -> float:
    """Loss rate for affine conversion and affine fragmentation.

    With conversion ``conv0 + conv_slope*x`` and fragmentation
    ``frag0 + frag_slope*x`` (decay constant), the shifted rate
    z = loss_rate - decay0 solves

        (z + frag0) * (z + v*conv_slope) = v * conv0 * frag_slope

    on the branch z < -v*conv_slope.  Reduces to
    :func:`loss_rate_constant` when conv_slope = frag0 = 0.
    """
    b = frag0 + v * conv_slope
    c = frag0 * v * conv_slope - v * conv0 * frag_slope
    disc = b * b - 4.0 * c
    if disc < 0.0:
        raise ValueError("affine family has no real branch for these rates")
    z = 0.5 * (-b - math.sqrt(disc))
    return decay0 + z


def incubation_time_log_law(loss_rate_at_vbar: float, threshold_ratio: float) -> float:
    """Predicted incubation time: log(ratio)/|loss rate|, growth regime only."""
    if loss_rate_at_vbar >= 0.0:
        raise ValueError("log law applies only when the healthy state is unstable")
    return math.log(threshold_ratio) / (-loss_rate_at_vbar)


# --- standard initial seeding profile --------------------------------------

def initial_seed_profile(x):
    """Small polymer seeding used by the time-domain experiments."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * x / (1.0 + x ** 4)

