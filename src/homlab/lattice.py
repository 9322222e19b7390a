"""Scaled lattice cells and batched cell quadrature.

Cells are the scaled translates eta * (cell + gamma) of a reference
parallelotope, where gamma runs over the points of an affine lattice
B Z^d + offset.  Cell integrals use composite Gauss-Legendre rules of
order 4 per subcell.  cell_integral runs that fine rule only; its error
estimate is a call of its own, cell_integral_error, which compares the
fine integrals it is given against the half-resolution rule on the same
cells.  So a caller that reports an estimate for only some of the cells
it integrates (the cell criteria report it for the one eta a row picks)
runs the coarse rule on those alone, and never the fine rule twice.

A cell's rule is the d-fold tensor product of a 1D rule, first axis
slowest, so its points fall into blocks: runs of the last axis, each as
long as the 1D rule.  The sum over a cell has two fixed levels.  Each
block is summed on its own against its weights, and the cell's
integral is one reduction over the complete array of its block sums.  A
1D cell is a single block.

cell_integral takes a stack of cell indices (C, d), and a single cell
is a stack of one.  Every field evaluation is a run of whole blocks of
at most CHUNK_POINTS points: a batch of whole cells when a cell has
fewer, else as many whole blocks of one cell as fit.  CHUNK_POINTS is
the length of a block at MAX_REFINE, the finest rule cell_integral
takes, so a block is never split, and a cell's result is the same bits
as in a stack of that cell alone and whatever the chunking.  The block
sums are taken straight from each evaluation's values, and on request
the same values also give the integrals of field^2.  An evaluation passes
the field its coordinates, not a point array: each coordinate is an
array of shape (cells, blocks, block length) with length 1 along an
axis it does not vary on.  On an axis-aligned lattice the first
coordinate of a 2D rule is constant along a block, (C, k, 1), and the
last is the same in every block, (C, 1, m), so no evaluation builds an
array of all its points' coordinates; a sheared lattice gets full
coordinates from the same code.  Only the 1D Gauss nodes and weights of
the two orders used are stored, as tabulated constants; the composite
rule, an evaluation's coordinates and its block weights are built
afresh, so no array of a whole cell's points or weights is built.

A rule that takes more than one field evaluation shares them among as
many threads as the process has CPUs to run on, at most one per
evaluation: the NumPy calls that take most of an evaluation's time, in
the field closure and in the block sums, release the GIL.  Each
evaluation writes only its own slice of the rule's block sums, and the
calling thread reduces each cell's block sums once all are written, so
no bit of a result depends on the number of threads.
"""

import itertools
import os
import threading
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

MAX_REFINE = 4096
GAUSS_ORDER = 4
# most rule points of one field evaluation: whole cells, or whole blocks
# of one cell; the longest block fits exactly
CHUNK_POINTS = GAUSS_ORDER * MAX_REFINE


def _affine_points(cols, mat, shifts):
    """Points shifts[c] + sum_j cols[j] * mat[:, j] for d coordinate
    columns (k,), one block of k rows per shift: shape (C * k, d), each
    coordinate column contiguous (a transposed (d, C * k) array).

    The sum runs over j in a fixed order: a BLAS product can round a row
    differently by its position in the stack, and a cell's points must
    not depend on the stack or block range they are built in.
    """
    k, dim = len(cols[0]), len(cols)
    out = np.empty((dim, len(shifts), k))
    for i, row in enumerate(mat):
        acc = cols[0] * row[0]
        for col, entry in zip(cols[1:], row[1:]):
            acc += col * entry
        np.add(shifts[:, i, None], acc, out=out[i])
    return out.reshape(dim, -1).T


@dataclass(frozen=True)
class Lattice:
    """Affine lattice B Z^d + offset with reference cell B (0,1)^d.

    basis and offset are stored as read-only copies, so the constants
    derived from them (cell measure, inverse basis, vertex offsets) are
    computed once, on first use, and stay valid.
    """

    dim: int
    basis: np.ndarray = None
    offset: np.ndarray = None

    def __post_init__(self):
        basis = self.basis
        if basis is None:
            basis = np.eye(self.dim)
        basis = np.array(basis, dtype=float).reshape(self.dim, self.dim)
        offset = self.offset
        if offset is None:
            offset = np.zeros(self.dim)
        offset = np.array(offset, dtype=float).reshape(self.dim)
        if abs(np.linalg.det(basis)) < 1e-14:
            raise ValueError("lattice basis is singular")
        basis.flags.writeable = False
        offset.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "offset", offset)

    @cached_property
    def cell_measure(self):
        return abs(float(np.linalg.det(self.basis)))

    @cached_property
    def _inverse_basis(self):
        return np.linalg.inv(self.basis)

    @cached_property
    def _vertex_offsets(self):
        """B v for the 2^d vertices v of (0,1)^d, first axis slowest:
        shape (2^d, d)."""
        unit = np.array(list(itertools.product([0.0, 1.0], repeat=self.dim)))
        return unit @ self.basis.T

    def point(self, z):
        """Lattice points for a stack of integer indices z, shape (C, d)."""
        return _affine_points(np.asarray(z, dtype=float).T, self.basis,
                              self.offset[None])


@cache
def unit_lattice(dim):
    """The lattice Z^d with the unit cube as its cell, one per dimension."""
    return Lattice(dim)


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
    dim = lattice.dim
    lo = np.array(box.lower)
    hi = np.array(box.upper)
    # integer search window from the preimage of the box corners
    corners = np.array(list(itertools.product(*zip(lo / eta, hi / eta))))
    zimg = (corners - lattice.offset) @ lattice._inverse_basis.T
    zlo = np.floor(zimg.min(axis=0)).astype(int) - 1
    zhi = np.ceil(zimg.max(axis=0)).astype(int) + 1
    pad = 1e-12 * max(1.0, *map(abs, box.lower + box.upper))
    # candidates in lexicographic order, so the result comes out sorted
    if dim == 1:
        zs = np.arange(zlo[0], zhi[0] + 1)[:, None]
    else:
        zs = np.stack(np.meshgrid(*map(np.arange, zlo, zhi + 1),
                                  indexing="ij"), axis=-1).reshape(-1, dim)
    verts = eta * (lattice._vertex_offsets[None] + lattice.point(zs)[:, None])
    inside = np.all((verts >= lo - pad) & (verts <= hi + pad), axis=(1, 2))
    return tuple(map(tuple, zs[inside].tolist()))


def _read_only(*hexes):
    arr = np.array([float.fromhex(h) for h in hexes])
    arr.flags.writeable = False
    return arr


# Gauss-Legendre nodes and weights on [-1, 1] of the two orders the
# rules use: GAUSS_ORDER, and 2 for the refine-1 estimate.  They are the
# bits numpy.polynomial.legendre.leggauss returns, written out so that no
# run imports numpy.polynomial, and read-only, since every call shares
# them.
_GAUSS = {
    2: (_read_only("-0x1.279a74590331cp-1", "0x1.279a74590331cp-1"),
        _read_only("0x1.0000000000000p+0", "0x1.0000000000000p+0")),
    4: (_read_only("-0x1.b8e6dbcf63985p-1", "-0x1.5c23fd9dd3dfcp-2",
                   "0x1.5c23fd9dd3dfcp-2", "0x1.b8e6dbcf63985p-1"),
        _read_only("0x1.64340f7e7b666p-2", "0x1.4de5f840c24cdp-1",
                   "0x1.4de5f840c24cdp-1", "0x1.64340f7e7b666p-2")),
}
_gauss = _GAUSS.__getitem__


def _panel_rule(refine, order=GAUSS_ORDER):
    """Composite Gauss rule of `order` nodes on [0,1], `refine` subcells."""
    nodes, weights = _gauss(order)
    h = 1.0 / refine
    starts = np.arange(refine) * h
    pts = (starts[:, None] + (nodes[None, :] + 1.0) * (h / 2.0)).ravel()
    wts = (weights * (h / 2.0))[None].repeat(refine, axis=0).ravel()
    return pts, wts


def _block_weights(dim, wts1):
    """Weight factor of each block of the d-fold tensor rule over the 1D
    weights wts1, first axis slowest: the product of its weights along
    the first d - 1 axes, left to right, so a block's weights are this
    factor times wts1.  A 1D rule is one block of factor 1."""
    wts = np.ones(1)
    for _ in range(dim - 1):
        wts = np.multiply.outer(wts, wts1).ravel()
    return wts


def _rule_points(pts1, span, origins, first, count):
    """Coordinates of the blocks first:first + count of the d-fold tensor
    rule over the 1D nodes pts1, first axis slowest, in each cell
    origins[c] + span (0,1)^d: a tuple of d arrays that broadcast to
    (C, count, len(pts1)), cell, block, node.  The first d - 1
    coordinates of a block are the nodes its index's base len(pts1)
    digits pick, and the last axis runs over pts1, so every block range
    has the same points as the whole rule.

    Coordinate i is shifts + (sum of the head nodes times span[i, :-1],
    left to right, one value per block) + pts1 * span[i, -1]: the sums
    _affine_points takes over the expanded columns, in the same order,
    so the same bits.  It comes with length 1 along the block axis when
    span[i, :-1] is zero and along the node axis when span[i, -1] is:
    the nodes are positive, so each zero term is the same signed zero at
    every block or node, and the one value computed stands for all of
    them.  So on an axis-aligned lattice a 2D rule gives x1 of shape
    (C, count, 1) and x2 of shape (C, 1, len(pts1)), and a 1D rule
    (C, 1, len(pts1)).
    """
    dim, size = len(span), len(pts1)
    blocks = np.arange(first, first + count)
    heads = [pts1[blocks // size ** (dim - 2 - a) % size]
             for a in range(dim - 1)]
    coords = []
    for i, row in enumerate(span):
        acc = (pts1 if row[-1] else pts1[:1]) * row[-1]
        if heads:
            cols = heads if row[:-1].any() else [h[:1] for h in heads]
            head = cols[0] * row[0]
            for col, entry in zip(cols[1:], row[1:-1]):
                head += col * entry
            acc = head[:, None] + acc
        coords.append(origins[:, i, None, None] + acc)
    return tuple(coords)


def _workers():
    """CPUs this process may run on: the most threads that share one
    rule's field evaluations."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(task, count):
    """task(0), ..., task(count - 1), shared among min(_workers(), count)
    threads: share w takes the indices w, w + workers, ..., in order, and
    the calling thread takes share 0.  So a count of 1 runs on the calling
    thread and starts no thread, and a count of 0 runs no task.

    Every thread is joined before this returns or raises.  A share stops
    at its first error, and the error of the lowest index is raised: every
    lower index ran without one, so it is the error a serial loop raises.
    An interrupt or exit, which is no Exception, is raised before any
    error.
    """
    # one task needs no affinity call: it runs on this thread anyway
    workers = max(1, min(_workers(), count)) if count > 1 else 1
    errors = [None] * workers  # (index, error) of each share's failure

    def share(w):
        for i in range(w, count, workers):
            try:
                task(i)
            except BaseException as exc:
                errors[w] = (i, exc)
                return

    threads = []
    try:
        for w in range(1, workers):
            threads.append(threading.Thread(target=share, args=(w,)))
            threads[-1].start()
        share(0)
    finally:
        for thread in threads:
            thread.join()
    failed = [e for e in errors if e is not None]
    if failed:
        raise min(failed,
                  key=lambda e: (isinstance(e[1], Exception), e[0]))[1]


def _rule_integrals(field_, origins, span, jac, refine, order, squares):
    """Integrals over the cells origins[c] + span (0,1)^d at one rule,
    jac = |det span|.

    The sum has two fixed levels.  Each block, a run of the rule's last
    axis, is summed on its own against its weights, the products of its
    factor and the 1D weights; then each cell's complete array of block
    sums is reduced once and scaled by the Jacobian.  A batch holds as
    many whole cells as one field evaluation of at most CHUNK_POINTS
    points takes, or else one cell.  Every evaluation is of whole
    blocks: all of a batch's, or as many of its one cell's as
    CHUNK_POINTS takes, at least one, since a block at MAX_REFINE has
    CHUNK_POINTS points, and its block sums are taken from its values as
    the field returned them.  So no block is split between two sums, and
    a cell's integral does not depend on the chunking or on the other
    cells.  squares=True adds the integrals of field^2 taken from the
    same values: the result is the stack (1 + squares, C) of the
    integrals and those of field^2.

    A rule of more than one evaluation shares them among threads (see
    _split).  Each evaluation writes only its own cells' and blocks'
    slice of the (cells, blocks) block sums, and each batch's cells are
    reduced once every evaluation is done, by the calling thread, the
    same sum over the same slice as a serial run takes.  So no bit of the
    result depends on the number of threads or on the order they finish
    in.
    """
    dim = span.shape[0]
    pts1, wts1 = _panel_rule(refine, order)
    size = len(pts1)  # rule points of a block
    factors = _block_weights(dim, wts1)
    blocks = len(factors)
    step = max(1, CHUNK_POINTS // (blocks * size))  # whole cells per batch
    # whole blocks of each cell per evaluation: all of them when a batch
    # holds whole cells, else as many as one evaluation takes
    per = min(blocks, CHUNK_POINTS // size)
    block_sums = [np.empty((len(origins), blocks))
                  for _ in range(1 + squares)]

    def evaluate(a, b):
        cells = origins[a:a + step]
        c = len(cells)
        k = min(per, blocks - b)  # whole blocks in this evaluation
        v = field_(_rule_points(pts1, span, cells, b, k))
        vals = (v, np.square(v)) if squares else (v,)
        # row j holds the weights of block b + j
        wts = np.multiply.outer(factors[b:b + k], wts1)
        for val, sums in zip(vals, block_sums):
            sums[a:a + c, b:b + k] = np.einsum("km,ckm->ck", wts, val)

    starts = [(a, b) for a in range(0, len(origins), step)
              for b in range(0, blocks, per)]
    _split(lambda i: evaluate(*starts[i]), len(starts))
    outs = np.empty((len(block_sums), len(origins)))
    for a in range(0, len(origins), step):
        for out, sums in zip(outs, block_sums):
            out[a:a + step] = jac * sums[a:a + step].sum(axis=1)
    return outs


def default_refine(eta, finest_scale):
    """Subcells per axis so panels resolve the finest oscillation scale.

    ceil(8 eta / finest_scale), from 1 to MAX_REFINE: at least 8 panels
    per length `finest_scale` along a side of length eta.  A cell's side
    is |basis column| * eta, so on another lattice than the unit one the
    panels scale with its basis: the cells of fractal_2d's lattice
    2 Z^2 - (1, 1) have sides 2 eta, and get at least 4 panels per
    finest scale.
    """
    if finest_scale <= 0:
        return MAX_REFINE
    r = int(np.ceil(eta / (finest_scale / 8.0)))
    return int(min(max(r, 1), MAX_REFINE))


def _scaled_cells(lattice, z, eta, refine):
    """Origins (C, d), span, Jacobian and refine of the cells eta *
    (cell + point(z)) at a refine, raising ValueError above MAX_REFINE."""
    refine = int(max(1, refine))
    if refine > MAX_REFINE:
        raise ValueError(f"refine must be at most {MAX_REFINE}, got {refine}")
    span = eta * lattice.basis
    return (eta * lattice.point(z), span, abs(float(np.linalg.det(span))),
            refine)


def cell_integral(lattice, z, eta, field_, refine, squares=False):
    """Integrals of a coefficient field over cells, at the fine rule.

    z is a stack of cell indices (C, d).  Returns the integrals as a
    float array (C,), or with squares=True the stack (2, C) of those and
    of the integrals of field^2, taken from the same field values.  Each
    cell's integral is a two-level sum: one sum per block of its tensor
    rule (a run of the last axis), then one reduction over all of its
    block sums.  A block is never split between two sums, and a 1D cell
    is a single block.  The field is called on whole blocks, at most
    CHUNK_POINTS points at a time, and no cell's result depends on that
    chunking or on the other cells of the stack; a refine above
    MAX_REFINE, whose blocks would not fit, raises ValueError.  No error
    estimate is taken here: cell_integral_error takes it from these
    integrals, for the cells that need one.
    """
    origins, span, jac, refine = _scaled_cells(lattice, z, eta, refine)
    out = _rule_integrals(field_, origins, span, jac, refine, GAUSS_ORDER,
                          squares)
    return out if squares else out[0]


def cell_integral_error(lattice, z, eta, field_, refine, fine):
    """Error estimates of the integrals fine = cell_integral(lattice, z,
    eta, field_, refine, squares), of the same shape: |fine - coarse| +
    1e-300, coarse the half-resolution rule on the same cells (refine //
    2 subcells, one order-2 panel at refine 1), for field^2 too when fine
    is the (2, C) stack.  Only the coarse rule runs, so no cell's fine
    rule is evaluated twice; doubling the refine changes an integral by
    less than its estimate.
    """
    origins, span, jac, refine = _scaled_cells(lattice, z, eta, refine)
    coarse_rule = (refine // 2, GAUSS_ORDER) if refine > 1 else (1, 2)
    coarse = _rule_integrals(field_, origins, span, jac, *coarse_rule,
                             fine.ndim == 2)
    return np.abs(fine - coarse.reshape(fine.shape)) + 1e-300
