"""Closed forms and balance identities, written without the package.

With constant conversion tau, splitting beta*x through the origin,
constant decay mu, a minimal size x0 and uniform fragment placement, the
polymer count U = int u and mass P = int x*u close exactly together with
the monomer level V (Greer, Pujo-Menjouet & Webb, J. Theor. Biol. 2006):

    dU/dt = beta*(P - 2*x0*U) - mu*U
    dP/dt = tau*V*U - mu*P - beta*x0**2*U
    dV/dt = production - clearance*V - tau*V*U + beta*x0**2*U

A split of a size-y polymer leaves 2*(y - x0)/y surviving daughters on
average and returns beta*x0**2 of mass below x0 per unit of U
(``MomentClosure``).

The other oracles here take plain arrays: cell centres and widths, the
minimal size x0, rates sampled on the centres, the dense generator.

* ``adjoint_profile``: the affine adjoint weight 1 + x/L of the
  constant-rate model at x0 = 0.
* ``affine_family_loss_rate``: the loss rate with affine conversion and
  affine splitting.
* ``eigenvalue_from_moments``: the loss rate recovered from a profile
  through the count and the mass balance.
* ``macroscopic_balance``: the mass that one application of the dense
  generator moves, closed by the outflow flux and the fragment mass
  below x0 (``below_cutoff_mass_share``).

This module imports nothing from ``priondyn`` (an ``ast`` test holds it
to that), so the tests that compare the solver with it never check the
solver against itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MomentClosure",
    "adjoint_slope_length",
    "adjoint_profile",
    "affine_family_loss_rate",
    "MomentEstimates",
    "eigenvalue_from_moments",
    "BalanceResult",
    "below_cutoff_mass_share",
    "macroscopic_balance",
]


@dataclass(frozen=True)
class MomentClosure:
    tau: float
    beta: float
    mu: float
    production: float
    clearance: float
    x0: float = 0.0

    def loss_rate(self, v: float) -> float:
        """Loss rate of the frozen-level (U, P) system at monomer level v."""
        return self.mu + self.beta * self.x0 - np.sqrt(self.beta * self.tau * v)

    def v_inf(self) -> float:
        """The level where the loss rate crosses zero."""
        return (self.mu + self.beta * self.x0) ** 2 / (self.beta * self.tau)

    def rho_inf(self) -> float:
        """Steady count that closes the monomer balance at v_inf."""
        v = self.v_inf()
        return ((self.production - self.clearance * v)
                / (self.tau * v - self.beta * self.x0 ** 2))

    def rhs(self, t: float, y) -> list:
        """Right-hand side of the moment ODE for y = (U, P, V)."""
        u, p, v = y
        returned = self.beta * self.x0 ** 2 * u
        return [self.beta * (p - 2.0 * self.x0 * u) - self.mu * u,
                self.tau * v * u - self.mu * p - returned,
                self.production - self.clearance * v - self.tau * v * u + returned]


def adjoint_slope_length(conv0: float, frag_slope: float, v: float) -> float:
    """Length scale L of the affine adjoint weight ``1 + x/L``."""
    return math.sqrt(conv0 * v / frag_slope)


def adjoint_profile(x, conv0: float, frag_slope: float, v: float):
    """The affine adjoint eigenweight ``1 + x/L`` evaluated on ``x``."""
    return 1.0 + np.asarray(x) / adjoint_slope_length(conv0, frag_slope, v)


def affine_family_loss_rate(conv0: float, conv_slope: float,
                            frag0: float, frag_slope: float,
                            decay0: float, v: float) -> float:
    """Loss rate for affine conversion and affine fragmentation.

    With conversion ``conv0 + conv_slope*x`` and fragmentation
    ``frag0 + frag_slope*x`` (decay constant), the shifted rate
    z = loss_rate - decay0 solves

        (z + frag0) * (z + v*conv_slope) = v * conv0 * frag_slope

    on the branch z < -v*conv_slope.  Reduces to decay0 -
    sqrt(conv0*frag_slope*v) when conv_slope = frag0 = 0.
    """
    b = frag0 + v * conv_slope
    c = frag0 * v * conv_slope - v * conv0 * frag_slope
    disc = b * b - 4.0 * c
    if disc < 0.0:
        raise ValueError("affine family has no real branch for these rates")
    z = 0.5 * (-b - math.sqrt(disc))
    return decay0 + z


@dataclass(frozen=True)
class MomentEstimates:
    """Loss rate recovered from the two integral identities, kept separate.

    by_number comes from integrating the eigen relation (count balance):
    loss = <decay - splitting, u> / <1, u>.  by_mass comes from weighting
    by size (mass balance): loss = (<x*decay, u> - v*<conv, u>) / <x, u>.
    Each should match the solver eigenvalue up to the corresponding
    truncation flux, reported alongside.  mean_size = <x, u>/<1, u> is
    logged for inspection; it is not asserted against any closed form.
    """

    by_number: float
    by_mass: float
    mean_size: float
    count_flux: float
    mass_flux: float


def eigenvalue_from_moments(u, v: float, centres, widths,
                            conv, frag, decay) -> MomentEstimates:
    """Recompute the loss rate of profile u at level v via both balances.

    conv, frag and decay are the rates sampled on the centres.  Splitting
    is disabled in the smallest cell (it has no admissible destination),
    as the model prescribes.  The only defect left in each route is then
    the outflow flux at xmax, returned for use as a tolerance bound.
    """
    if u is None:
        raise ValueError("no eigenvector (degenerate v=0 solve)")
    x, h = centres, widths
    frag_eff = np.concatenate(([0.0], frag[1:]))

    count = float(u @ h)
    mass = float((x * u) @ h)
    count_flux = v * conv[-1] * u[-1]
    mass_flux = v * (x[-1] + h[-1]) * conv[-1] * u[-1]
    by_number = float(((decay - frag_eff) * u) @ h) / count
    by_mass = (float((x * decay * u) @ h) - v * float((conv * u) @ h)) / mass
    return MomentEstimates(by_number=by_number, by_mass=by_mass,
                           mean_size=mass / count,
                           count_flux=float(count_flux) / count,
                           mass_flux=float(mass_flux) / mass)


@dataclass(frozen=True)
class BalanceResult:
    """Mass bookkeeping of one operator application.

    raw_defect is <x, L u> - v*<conv, u> + <x*decay, u>; with exact kernel
    moments it is carried entirely by the outflow flux and (for positive
    minimal size) the mass handed back to the monomer pool, so

        residual = raw_defect + truncation_flux + monomer_return

    vanishes to rounding.
    """

    residual: float
    truncation_flux: float
    monomer_return: float
    raw_defect: float


def below_cutoff_mass_share(centres, x0: float) -> np.ndarray:
    """Mass per splitting event that lands below the minimal size x0.

    For the uniform rule, 2*integral of x/y over (0, x0) = x0**2/y_j: zero
    when x0 = 0.  This mass returns to the monomer pool, closing the books
    for grids with a positive minimal size.
    """
    return x0 ** 2 / np.asarray(centres)


def macroscopic_balance(matrix, v: float, u, centres, widths, x0: float,
                        conv, frag_eff, decay) -> BalanceResult:
    """Check that the dense generator at level v moves mass only by the books.

    conv, frag_eff and decay are the rates the matrix was built from, with
    splitting zeroed where it has no destination.  The truncation flux is
    the polymer mass leaving through xmax per unit time under the upwind
    scheme; the monomer return is the fragment mass landing below the
    minimal size (zero for x0 = 0).  The residual is exact to rounding.
    """
    u = np.asarray(u, dtype=float)
    x, h = centres, widths
    xh = x * h
    lhs = xh @ (matrix @ u)
    drain = v * ((conv * h) @ u)
    decay_loss = (x * decay * h) @ u
    flux = v * (x[-1] + h[-1]) * conv[-1] * u[-1]
    below = below_cutoff_mass_share(x, x0)
    monomer_return = (below * frag_eff * h) @ u
    raw = lhs - drain + decay_loss
    return BalanceResult(residual=float(raw + flux + monomer_return),
                         truncation_flux=float(flux),
                         monomer_return=float(monomer_return),
                         raw_defect=float(raw))
