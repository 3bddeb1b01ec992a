"""Closed-form reference quantities for the constant-coefficient model.

Every formula here is independent of the numerical machinery in the rest of
the package.  ``loss_rate_constant`` and the equilibrium shape
(``unimodal_profile``, ``dilated_equilibrium_profile``) hold for

* conversion speed constant in size (``conv0``),
* fragmentation rate proportional to size (slope ``frag_slope``),
* polymer decay rate constant (``decay0``),
* binary splitting with uniform fragment placement,
* minimal polymer size x0 = 0.

``incubation_time_log_law`` turns any loss rate into an incubation time,
and ``initial_seed_profile`` is the seeding of the time-domain runs.  The
closed forms only tests use (the adjoint weight, the affine family, the
moment closure at x0 >= 0) and the balance identities live in
``tests/oracle.py``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "loss_rate_constant",
    "unimodal_profile",
    "dilated_equilibrium_profile",
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

