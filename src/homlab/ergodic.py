"""Measure-preserving torus rotations driving random coefficient families.

The probability space is the k-torus [0,1)^k with Lebesgue measure.  The
flow indexed by x in R^d shifts a point by F x (mod 1) for a fixed k x d
flow matrix F.  Rationally independent rows make the flow ergodic and the
Birkhoff space averages converge to the expectation.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ErgodicSystem:
    """Torus rotation flow with a matrix-valued observable.

    observable maps torus points (m, k) -> matrices (m, n, n).
    """

    k: int
    dim: int
    flow: np.ndarray
    observable: Callable[[np.ndarray], np.ndarray]
    ncomp: int
    sup_bound: float

    def __post_init__(self):
        flow = np.asarray(self.flow, dtype=float).reshape(self.k, self.dim)
        object.__setattr__(self, "flow", flow)

    def observe(self, omega_points):
        pts = np.atleast_2d(np.asarray(omega_points, dtype=float))
        return np.asarray(self.observable(pts), dtype=complex)

    def draw(self, rng):
        """Sample one torus point (a realization of the randomness)."""
        return rng.random(self.k)


def expectation(system: ErgodicSystem, points_per_axis=128):
    """Expectation of the observable over the torus.

    Uses the uniform periodic rectangle rule, which integrates trigonometric
    polynomials of frequency below points_per_axis exactly.
    """
    if system.k > 3:
        raise ValueError("torus expectation supported for k <= 3")
    grid1 = (np.arange(points_per_axis) + 0.5) / points_per_axis
    grids = np.meshgrid(*[grid1] * system.k, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    vals = system.observe(pts)
    return vals.mean(axis=0)
