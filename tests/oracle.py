"""Moment closure of the constant-rate model, written without the package.

With constant conversion tau, splitting beta*x through the origin,
constant decay mu, a minimal size x0 and uniform fragment placement, the
polymer count U = int u and mass P = int x*u close exactly together with
the monomer level V (Greer, Pujo-Menjouet & Webb, J. Theor. Biol. 2006):

    dU/dt = beta*(P - 2*x0*U) - mu*U
    dP/dt = tau*V*U - mu*P - beta*x0**2*U
    dV/dt = production - clearance*V - tau*V*U + beta*x0**2*U

A split of a size-y polymer leaves 2*(y - x0)/y surviving daughters on
average and returns beta*x0**2 of mass below x0 per unit of U.  This
module imports nothing from ``priondyn`` (an ``ast`` test holds it to
that), so the tests that compare the solver with it never check the
solver against itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
