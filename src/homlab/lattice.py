"""Scaled lattice cells and batched cell quadrature.

Cells are the scaled translates eta * (cell + gamma) of a reference
parallelotope, where gamma runs over the points of an affine lattice
B Z^d + offset.  Cell integrals use composite Gauss-Legendre rules of
order 4 per subcell, with an error estimate from comparing against the
half-resolution rule.

cell_integral takes a stack of cell indices (C, d), and a single cell
is a stack of one.  The stack is evaluated in batches of whole cells, up
to CHUNK_POINTS rule points per field evaluation (a cell with more
points is evaluated alone), so one call per field replaces a Python loop
over cells; each cell's sum is still reduced on its own, bit for bit as
in a stack of that cell alone.  On request the same field values also
give the integrals of |field|^2.  The 1D Gauss rule is memoized per
(refine, order); the d-dimensional tensor rule is rebuilt per call,
since holding the large 2D rules costs more memory than building them
costs time.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fields import matrix_abs

MAX_REFINE = 4096
GAUSS_ORDER = 4
# points of one batched field evaluation; a cell with more is evaluated alone
CHUNK_POINTS = 2 ** 16


@dataclass(frozen=True)
class Lattice:
    """Affine lattice B Z^d + offset with reference cell B (0,1)^d."""

    dim: int
    basis: np.ndarray = None
    offset: np.ndarray = None

    def __post_init__(self):
        basis = self.basis
        if basis is None:
            basis = np.eye(self.dim)
        basis = np.asarray(basis, dtype=float).reshape(self.dim, self.dim)
        offset = self.offset
        if offset is None:
            offset = np.zeros(self.dim)
        offset = np.asarray(offset, dtype=float).reshape(self.dim)
        if abs(np.linalg.det(basis)) < 1e-14:
            raise ValueError("lattice basis is singular")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "offset", offset)

    @property
    def cell_measure(self):
        return abs(float(np.linalg.det(self.basis)))

    def point(self, z):
        """Lattice point for integer index z."""
        return self.basis @ np.asarray(z, dtype=float) + self.offset

    def cell_vertices(self, z, eta):
        """Vertices of eta * (cell + point(z)), shape (2^d, d)."""
        corners = np.array(
            np.meshgrid(*[[0.0, 1.0]] * self.dim, indexing="ij")
        ).reshape(self.dim, -1).T
        verts = (corners @ self.basis.T) + self.point(z)
        return eta * verts


def cells_inside(lattice, eta, box):
    """Integer indices z of the cells eta*(cell + point(z)) inside a box.

    Returns the indices as a sorted tuple of int tuples.  Containment is
    decided by testing every cell vertex against the closed box with a
    relative tolerance, so cells touching the boundary count.
    """
    eta = float(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    if box.dim != lattice.dim:
        raise ValueError("box dimension does not match lattice")
    lo = np.array(box.lower)
    hi = np.array(box.upper)
    # integer search window from the preimage of the box corners
    binv = np.linalg.inv(lattice.basis)
    corners = np.array(
        np.meshgrid(*zip(lo / eta, hi / eta), indexing="ij")
    ).reshape(lattice.dim, -1).T
    zimg = (corners - lattice.offset) @ binv.T
    zlo = np.floor(zimg.min(axis=0)).astype(int) - 1
    zhi = np.ceil(zimg.max(axis=0)).astype(int) + 1
    pad = 1e-12 * max(1.0, float(np.max(np.abs(np.concatenate([lo, hi])))))
    gammas = []
    for z in np.ndindex(*(zhi - zlo + 1)):
        zz = np.array(z) + zlo
        verts = lattice.cell_vertices(zz, eta)
        if np.all(verts >= lo - pad) and np.all(verts <= hi + pad):
            gammas.append(tuple(int(v) for v in zz))
    return tuple(sorted(gammas))


@lru_cache(maxsize=64)
def _panel_rule(refine, order=GAUSS_ORDER):
    """Composite Gauss rule of `order` nodes on [0,1] with `refine` subcells.

    Memoized, so the returned arrays are read-only.
    """
    nodes, weights = leggauss(order)
    h = 1.0 / refine
    starts = np.arange(refine) * h
    pts = (starts[:, None] + (nodes[None, :] + 1.0) * (h / 2.0)).ravel()
    wts = np.tile(weights * (h / 2.0), refine)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


def _tensor_rule(dim, refine, order=GAUSS_ORDER):
    pts1, wts1 = _panel_rule(refine, order)
    if dim == 1:
        return pts1[:, None], wts1
    m = len(pts1)
    pts = np.empty((m,) * dim + (dim,))
    wts = wts1
    for a in range(dim):
        # axis a of the grid runs over the 1D points, first axis slowest
        pts[..., a] = pts1.reshape((m,) + (1,) * (dim - 1 - a))
        if a:
            # the factors multiply left to right, as a product over axes
            wts = np.multiply.outer(wts, wts1)
    return pts.reshape(-1, dim), wts.ravel()


def _reduce(vals, wts, jac):
    """Integrals (C, n, n) from rule values (C, m, n, n), one cell at a time.

    Each cell goes through the same einsum as a lone cell would, so its
    integral does not depend on the other cells of the batch.
    """
    out = [jac * np.einsum("m,mij->ij", wts, v) for v in vals]
    return np.array(out).reshape(vals.shape[:1] + vals.shape[2:])


def _rule_integrals(field_, origins, span, refine, order, step, squares):
    """Integrals over the cells origins[c] + span (0,1)^d at one rule.

    Cells are evaluated step at a time; squares=True adds the integrals
    of |field|^2 taken from the same values.
    """
    dim, n = span.shape[0], field_.ncomp
    pts_ref, wts = _tensor_rule(dim, refine, order)
    jac = abs(float(np.linalg.det(span)))
    outs = [np.empty((len(origins), n, n), dtype=complex)]
    if squares:
        outs.append(np.empty((len(origins), 1, 1), dtype=complex))
    for a in range(0, len(origins), step):
        pts = origins[a:a + step, None, :] + (pts_ref @ span.T)[None]
        vals = field_(pts.reshape(-1, dim)).reshape(-1, len(wts), n, n)
        del pts  # peak memory: the points and values of a large 2D cell
        outs[0][a:a + step] = _reduce(vals, wts, jac)
        if squares:
            # summed as complex 1x1 values, as a scalar field would be: a
            # real sum rounds differently in the last digits
            outs[1][a:a + step] = _reduce(
                (matrix_abs(vals) ** 2).astype(complex)[..., None, None],
                wts, jac)
        del vals  # not alive during the next chunk's evaluation
    return outs


def default_refine(eta, finest_scale):
    """Subcells per axis so panels resolve the finest oscillation scale.

    Targets at least 8 panels per length `finest_scale`, capped at 4096.
    """
    if finest_scale <= 0:
        return MAX_REFINE
    r = int(np.ceil(eta / (finest_scale / 8.0)))
    return int(min(max(r, 1), MAX_REFINE))


def cell_integral(lattice, z, eta, field_, refine, squares=False):
    """Integrals of a coefficient field over cells, with error estimates.

    z is a stack of cell indices (C, d).  Returns (integral, error
    estimate) as arrays (C, n, n) and (C,).  The estimate compares the
    requested resolution against the half-resolution rule (one order-2
    panel at refine 1); doubling the refine changes the result by less
    than the estimate.
    squares=True appends the same pair for the scalar |field|^2, taken
    from the same field values.
    """
    zs = np.asarray(z, dtype=float)
    origins = np.array([eta * lattice.point(g) for g in zs]).reshape(zs.shape)
    span = eta * lattice.basis
    refine = int(max(1, refine))
    step = max(1, CHUNK_POINTS // (GAUSS_ORDER * refine) ** lattice.dim)
    coarse_rule = (refine // 2, GAUSS_ORDER) if refine > 1 else (1, 2)
    fine = _rule_integrals(field_, origins, span, refine, GAUSS_ORDER, step,
                           squares)
    coarse = _rule_integrals(field_, origins, span, *coarse_rule, step,
                             squares)
    out = []
    for f, c in zip(fine, coarse):
        out += [f, matrix_abs(f - c) + 1e-300]
    return tuple(out)
