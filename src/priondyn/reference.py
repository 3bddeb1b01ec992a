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
    "growth_rate_constant",
    "adjoint_slope_length",
    "adjoint_profile",
    "equilibrium_monomer_level",
    "equilibrium_polymer_count",
    "mean_size_at_equilibrium",
    "unimodal_profile",
    "unimodal_profile_mass",
    "unimodal_profile_mean",
    "dilated_equilibrium_profile",
    "affine_family_loss_rate",
    "incubation_time_log_law",
    "initial_seed_profile",
    "initial_seed_mass",
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


def growth_rate_constant(conv0: float, frag_slope: float, decay0: float, v: float) -> float:
    """Negative of :func:`loss_rate_constant`; the exponential growth rate."""
    return -loss_rate_constant(conv0, frag_slope, decay0, v)


def adjoint_slope_length(conv0: float, frag_slope: float, v: float) -> float:
    """Length scale L of the affine adjoint weight ``1 + x/L``."""
    return math.sqrt(conv0 * v / frag_slope)


def adjoint_profile(x, conv0: float, frag_slope: float, v: float):
    """The affine adjoint eigenweight ``1 + x/L`` evaluated on ``x``."""
    return 1.0 + np.asarray(x) / adjoint_slope_length(conv0, frag_slope, v)


def equilibrium_monomer_level(conv0: float, frag_slope: float, decay0: float) -> float:
    """Monomer level at which the loss rate vanishes: decay0**2/(conv0*frag_slope)."""
    return decay0 * decay0 / (conv0 * frag_slope)


def equilibrium_polymer_count(production: float, clearance: float,
                              conv0: float, frag_slope: float, decay0: float) -> float:
    """Total polymer count at the coexistence equilibrium.

    From the stationary monomer balance: (production/v_eq - clearance)/conv0,
    with v_eq from :func:`equilibrium_monomer_level`.  Positive exactly when
    v_eq < production/clearance.
    """
    v_eq = equilibrium_monomer_level(conv0, frag_slope, decay0)
    return (production / v_eq - clearance) / conv0


def mean_size_at_equilibrium(frag_slope: float, decay0: float) -> float:
    """Number-averaged polymer size at equilibrium: decay0/frag_slope.

    Independent of the conversion speed; holds for any conversion profile as
    long as decay is constant and fragmentation is size-proportional.
    """
    return decay0 / frag_slope


# --- the explicit unimodal equilibrium shape -------------------------------
#
# In the rescaled size r the equilibrium density is proportional to
#     shape(r) = (r + r**2/2) * exp(-r - r**2/2)
# Antiderivative of shape: -(1/2)*(1+r)*exp(-r - r**2/2), giving mass 1/2
# on [0, inf).  Antiderivative of (1+r)*shape: -(1+r+r**2/2)*exp(-r-r**2/2),
# giving integral 1; subtracting, the first moment is 1/2 and the mean is
# exactly 1.

UNIMODAL_MASS_EXACT = 0.5
UNIMODAL_MEAN_EXACT = 1.0


def unimodal_profile(r):
    """Rescaled equilibrium density shape (unnormalized)."""
    r = np.asarray(r, dtype=float)
    return (r + 0.5 * r * r) * np.exp(-r - 0.5 * r * r)


def unimodal_profile_mass(upper: float = math.inf) -> float:
    """Quadrature of the shape on [0, upper]; exact 1/2 for upper=inf."""
    if math.isinf(upper):
        return UNIMODAL_MASS_EXACT
    from scipy.integrate import quad  # costly import, needed only here
    val, _ = quad(lambda r: float(unimodal_profile(r)), 0.0, upper)
    return val


def unimodal_profile_mean(upper: float = math.inf) -> float:
    """Normalized first moment of the shape on [0, upper]; exact 1 for inf."""
    if math.isinf(upper):
        return UNIMODAL_MEAN_EXACT
    from scipy.integrate import quad  # costly import, needed only here
    m1, _ = quad(lambda r: float(r * unimodal_profile(r)), 0.0, upper)
    return m1 / unimodal_profile_mass(upper)


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
#
# 0.5*x**2/(1 + x**4) integrates to pi/(4*sqrt(2)) on [0, inf).

INITIAL_SEED_MASS_EXACT = math.pi / (4.0 * math.sqrt(2.0))


def initial_seed_profile(x):
    """Small polymer seeding used by the time-domain experiments."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * x / (1.0 + x ** 4)


def initial_seed_mass(upper: float = math.inf) -> float:
    """Quadrature of the seed profile on [0, upper]; pi/(4*sqrt(2)) at inf."""
    if math.isinf(upper):
        return INITIAL_SEED_MASS_EXACT
    from scipy.integrate import quad  # costly import, needed only here
    val, _ = quad(lambda s: float(initial_seed_profile(s)), 0.0, upper)
    return val
