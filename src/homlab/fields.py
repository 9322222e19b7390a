"""Scalar coefficient fields.

A coefficient field is a bounded measurable map x -> real number,
represented by a vectorized closure.  Fields are evaluated in batches of
coordinates, not of points: the closure receives a tuple of dim
coordinate arrays that broadcast together, x[j] the j-th coordinate of
every point, and returns real values of their broadcast shape, which
every caller gets as float64.  A coordinate that is constant along an
axis of the batch comes with length 1 there, so a closure evaluates a
factor of that coordinate once per distinct value: cell quadrature on an
axis-aligned lattice passes each coordinate only along the axes it
varies on, and no caller builds a point array.
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

    A call takes a tuple (or list) of dim coordinate arrays x that
    broadcast together, x[j] the j-th coordinate of every point, and
    returns real float64 values of their broadcast shape.  func gets the
    coordinates as float arrays, reads x[j], and must return values of
    that whole shape: a factor of one coordinate broadcasts against the
    others.  Each value must depend only on its own point's coordinates,
    not on the shapes, strides or memory order the coordinates come in:
    cell quadrature passes a coordinate only along the axes it varies
    on, and the values must be the bits of an evaluation on the
    broadcast, materialized coordinates.  A closure that returns complex
    values raises TypeError, so no imaginary part is dropped; a wrong
    number of coordinates, coordinates that do not broadcast or values
    of another shape raise ValueError.  Cell quadrature may also run a
    closure on several threads at once, so a closure must not mutate
    shared state: it reads what it captured and writes only arrays of
    its own.
    sup_bound is a declared uniform bound on |value|, taken on trust:
    evaluation does not check it.
    A field carries no domain: the family that holds it owns the domain,
    and every field of one family lives on it.
    """

    dim: int
    func: Callable[[tuple], np.ndarray]
    sup_bound: float

    def __call__(self, coords):
        # an array is refused, not split into rows: an (m, dim) point
        # array with m == dim would pass as dim coordinates
        count = len(coords) if isinstance(coords, (tuple, list)) else None
        if count != self.dim:
            got = (f"{count}" if count is not None
                   else f"a {type(coords).__name__}")
            raise ValueError(f"field expects a tuple of {self.dim} "
                             f"coordinate arrays, got {got}")
        x = tuple(np.asarray(c, dtype=float) for c in coords)
        try:
            shape = broadcast_shape(x)
        except ValueError:
            raise ValueError(
                "field coordinates do not broadcast together: shapes "
                f"{[c.shape for c in x]}") from None
        vals = np.asarray(self.func(x))
        if np.iscomplexobj(vals):
            raise TypeError(f"field closure {self.func!r} returned complex "
                            "values; coefficients are real")
        vals = vals.astype(float, copy=False)
        if vals.shape != shape:
            raise ValueError(
                f"field closure returned shape {vals.shape}, expected {shape}"
            )
        return vals


def broadcast_shape(x):
    """The shape coordinate arrays x broadcast to: the shape of a field's
    values on them."""
    return np.broadcast_shapes(*(c.shape for c in x))


def constant_field(dim, value):
    value = float(value)

    def func(x):
        return np.full(broadcast_shape(x), value)

    return CoefficientField(dim, func, abs(value))


def zero_field(dim):
    return constant_field(dim, 0.0)


def sub_fields(a, b):
    """a - b; a call checks its coordinates against each field's dim."""

    def func(x):
        return a(x) - b(x)

    return CoefficientField(a.dim, func, a.sup_bound + b.sup_bound)


def gram_field(q):
    """Pointwise q(x)^2, the weight for product norms."""

    def func(x):
        vals = q(x)
        return vals * vals

    return CoefficientField(q.dim, func, q.sup_bound ** 2)


def sampled_sup(field_, box):
    """Sup of |field| on SUP_SAMPLES points per axis (not certified),
    evaluated on the open grid of the axes."""
    axes = np.ix_(*(np.linspace(box.lower[j], box.upper[j], SUP_SAMPLES)
                    for j in range(box.dim)))
    return float(np.abs(field_(axes)).max())
