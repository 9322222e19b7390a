"""Matrix-valued coefficient fields.

A coefficient field is a bounded measurable map x -> n x n complex matrix,
represented by a vectorized closure.  Fields are evaluated in batches: the
closure receives points of shape (m, dim) and returns values of shape
(m, ncomp, ncomp).  All magnitudes of matrix values use the entrywise
absolute sum, which dominates the spectral norm.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def matrix_abs(values):
    """Entrywise absolute sum over the trailing two axes.

    For a single matrix returns a scalar, for a batch (m, n, n) returns (m,).
    """
    values = np.asarray(values)
    return np.abs(values).sum(axis=(-2, -1))


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

    def sample(self, count, rng):
        lo = np.array(self.lower)
        hi = np.array(self.upper)
        return lo + (hi - lo) * rng.random((count, self.dim))


@dataclass(frozen=True)
class CoefficientField:
    """Bounded matrix-valued coefficient on a box domain.

    func maps points (m, dim) -> values (m, ncomp, ncomp), complex; a
    call takes points of exactly that shape.
    sup_bound is a declared uniform bound on the entrywise matrix norm,
    taken on trust: evaluation does not check it.
    """

    dim: int
    ncomp: int
    func: Callable[[np.ndarray], np.ndarray]
    sup_bound: float
    domain: Optional[Box] = None

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"field expects points (m, {self.dim}), got shape {pts.shape}"
            )
        vals = np.asarray(self.func(pts), dtype=complex)
        expect = (pts.shape[0], self.ncomp, self.ncomp)
        if vals.shape != expect:
            raise ValueError(
                f"field closure returned shape {vals.shape}, expected {expect}"
            )
        return vals


def constant_field(dim, value, domain=None):
    """Constant matrix field.  Scalars become 1x1 matrices."""
    mat = np.atleast_2d(np.asarray(value, dtype=complex))
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("constant field needs a square matrix")
    n = mat.shape[0]

    def func(pts):
        return np.broadcast_to(mat, (pts.shape[0], n, n)).copy()

    return CoefficientField(dim, n, func, float(matrix_abs(mat)), domain)


def zero_field(dim, ncomp, domain=None):
    return constant_field(dim, np.zeros((ncomp, ncomp)), domain)


def scalar_field(dim, f, sup_bound, domain=None):
    """Wrap a scalar closure f((m, dim)) -> (m,) as a 1x1 matrix field."""

    def func(pts):
        return np.asarray(f(pts), dtype=complex).reshape(pts.shape[0], 1, 1)

    return CoefficientField(dim, 1, func, float(sup_bound), domain)


def _common_domain(a, b):
    if a.domain is not None and b.domain is not None and a.domain != b.domain:
        raise ValueError("fields live on different domains")
    return a.domain if a.domain is not None else b.domain


def add_fields(a, b):
    if (a.dim, a.ncomp) != (b.dim, b.ncomp):
        raise ValueError("field shape mismatch in add")
    dom = _common_domain(a, b)

    def func(pts):
        return a(pts) + b(pts)

    return CoefficientField(a.dim, a.ncomp, func, a.sup_bound + b.sup_bound, dom)


def scale_field(c, a):
    c = complex(c)

    def func(pts):
        return c * a(pts)

    return CoefficientField(a.dim, a.ncomp, func, abs(c) * a.sup_bound, a.domain)


def sub_fields(a, b):
    return add_fields(a, scale_field(-1.0, b))


def matmul_fields(a, b):
    """Pointwise matrix product a(x) b(x)."""
    if (a.dim, a.ncomp) != (b.dim, b.ncomp):
        raise ValueError("field shape mismatch in matmul")
    dom = _common_domain(a, b)

    def func(pts):
        return np.einsum("mij,mjk->mik", a(pts), b(pts))

    # entrywise-sum norm is submultiplicative
    return CoefficientField(a.dim, a.ncomp, func, a.sup_bound * b.sup_bound, dom)


def adjoint_field(a):
    def func(pts):
        return np.conj(np.swapaxes(a(pts), -2, -1))

    return CoefficientField(a.dim, a.ncomp, func, a.sup_bound, a.domain)


def gram_field(q):
    """Pointwise q(x)* q(x), the Hermitian weight for product norms."""
    return matmul_fields(adjoint_field(q), q)


def sampled_sup(field_, box, per_axis=257):
    """Sup of |field| over a tensor sample grid (diagnostic, not certified)."""
    axes = [
        np.linspace(box.lower[j], box.upper[j], per_axis)
        for j in range(box.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return float(matrix_abs(field_(pts)).max())
