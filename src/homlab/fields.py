"""Scalar coefficient fields.

A coefficient field is a bounded measurable map x -> real number,
represented by a vectorized closure.  Fields are evaluated in batches: the
closure receives points of shape (m, dim) and returns real values of
shape (m,), which every caller gets as float64.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

SUP_SAMPLES = 257


@dataclass(frozen=True)
class Box:
    """Axis-aligned box (product of open intervals)."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ValueError("box bounds have mismatched dimension")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("box has empty side")

    @property
    def dim(self):
        return len(self.lower)


@dataclass(frozen=True)
class CoefficientField:
    """Bounded scalar coefficient of dim variables.

    func maps points (m, dim) -> real values (m,), returned as float64: a
    closure that returns complex values raises TypeError, so no imaginary
    part is dropped.  A call takes points of exactly that shape, in any
    memory order: cell quadrature passes them column-contiguous (a
    transposed (dim, m) array), so a closure indexes columns, pts[:, j],
    and its values must not depend on the layout.  Cell quadrature may
    also run a closure on several threads at once, so a closure must not
    mutate shared state: it reads what it captured and writes only arrays
    of its own.
    sup_bound is a declared uniform bound on |value|, taken on trust:
    evaluation does not check it.
    A field carries no domain: the family that holds it owns the domain,
    and every field of one family lives on it.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    sup_bound: float

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"field expects points (m, {self.dim}), got shape {pts.shape}"
            )
        vals = np.asarray(self.func(pts))
        if np.iscomplexobj(vals):
            raise TypeError(f"field closure {self.func!r} returned complex "
                            "values; coefficients are real")
        vals = vals.astype(float, copy=False)
        if vals.shape != (pts.shape[0],):
            raise ValueError(
                f"field closure returned shape {vals.shape}, expected "
                f"{(pts.shape[0],)}"
            )
        return vals


def constant_field(dim, value):
    value = float(value)

    def func(pts):
        return np.full(pts.shape[0], value)

    return CoefficientField(dim, func, abs(value))


def zero_field(dim):
    return constant_field(dim, 0.0)


def sub_fields(a, b):
    """a - b; a call checks its points against each field's dim."""

    def func(pts):
        return a(pts) - b(pts)

    return CoefficientField(a.dim, func, a.sup_bound + b.sup_bound)


def gram_field(q):
    """Pointwise q(x)^2, the weight for product norms."""

    def func(pts):
        vals = q(pts)
        return vals * vals

    return CoefficientField(q.dim, func, q.sup_bound ** 2)


def sampled_sup(field_, box):
    """Sup of |field| on SUP_SAMPLES points per axis (not certified)."""
    axes = [
        np.linspace(box.lower[j], box.upper[j], SUP_SAMPLES)
        for j in range(box.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return float(np.abs(field_(pts)).max())
