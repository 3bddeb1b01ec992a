"""Finite-volume size grids and the coupled monomer/polymer state."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SizeGrid", "PolymerState"]


@dataclass(frozen=True)
class SizeGrid:
    """Cell-centered finite-volume grid of n equal cells on [x0, xmax].

    Built by ``uniform`` only; equal cells make L^T the generator's adjoint.

    Attributes
    ----------
    x0 : float
        Left endpoint, the minimal polymer size.
    xmax : float
        Right endpoint of the truncated domain.
    n : int
        Number of cells.
    centers : np.ndarray
        Cell midpoints, shape (n,).
    widths : np.ndarray
        Cell widths, shape (n,).
    """

    x0: float
    xmax: float
    n: int
    centers: np.ndarray = field(repr=False)
    widths: np.ndarray = field(repr=False)

    @classmethod
    def uniform(cls, xmax: float, n: int, x0: float = 0.0) -> "SizeGrid":
        if n < 2:
            raise ValueError("need at least 2 cells, got %d" % n)
        if xmax <= x0:
            raise ValueError("xmax=%g must exceed x0=%g" % (xmax, x0))
        edges = np.linspace(x0, xmax, n + 1)
        return cls(x0=x0, xmax=xmax, n=n,
                   centers=0.5 * (edges[:-1] + edges[1:]),
                   widths=np.diff(edges))


@dataclass
class PolymerState:
    """Monomer level plus cell-averaged polymer density at one instant.

    Attributes
    ----------
    v : float
        Monomer level.
    u : np.ndarray
        Cell-averaged polymer density, shape (grid.n,).
    grid : SizeGrid
    t : float
        Time stamp.
    """

    v: float
    u: np.ndarray
    grid: SizeGrid
    t: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (self.grid.n,):
            raise ValueError("u has shape %r, grid has %d cells" % (self.u.shape, self.grid.n))

    def moment0(self) -> float:
        """Total polymer count, sum(u*h)."""
        return float(self.u @ self.grid.widths)
