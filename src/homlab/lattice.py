"""Scaled lattice cells and batched cell quadrature.

Cells are axis-aligned boxes: the scaled translates eta * (cell +
gamma) of the reference box cell = side (0,1)^d, where gamma runs over
the lattice points side * z + offset, z in Z^d, one side per axis.
Cell integrals use composite Gauss-Legendre rules of order 4 per
subcell.  cell_integral runs that fine rule only; its error estimate is
a call of its own, cell_integral_error, which compares the fine
integrals it is given against the half-resolution rule on the same
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
axis it does not vary on.  A cell is a box, so each head coordinate of
a 2D rule is constant along a block, (C, k, 1), and the last is the
same in every block, (C, 1, m): no evaluation builds an array of all
its points' coordinates.  Only the 1D Gauss nodes and weights of
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
import math
import os
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

MAX_REFINE = 4096
GAUSS_ORDER = 4
# most rule points of one field evaluation: whole cells, or whole blocks
# of one cell; the longest block fits exactly
CHUNK_POINTS = GAUSS_ORDER * MAX_REFINE


@dataclass(frozen=True)
class Lattice:
    """The lattice side * Z^d + offset, whose cell is the box side (0,1)^d.

    side and offset are stored as read-only float arrays of shape (d,); a
    side that is not positive and finite raises ValueError.
    """

    side: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        side = np.array(self.side, dtype=float).reshape(-1)
        offset = np.array(self.offset, dtype=float).reshape(len(side))
        if not np.all(np.isfinite(side) & (side > 0)):
            raise ValueError(f"lattice sides must be positive and finite, "
                             f"got {side.tolist()}")
        side.flags.writeable = False
        offset.flags.writeable = False
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "offset", offset)

    @property
    def dim(self):
        return len(self.side)

    @property
    def cell_measure(self):
        return _measure(self.side)

    def point(self, z):
        """Lattice points for a stack of integer indices z, shape (C, d)."""
        return np.asarray(z, dtype=float) * self.side + self.offset


def _measure(side):
    # det, not prod(side): the two round apart, and the CSV bytes follow det
    return abs(float(np.linalg.det(np.diag(side))))


@cache
def unit_lattice(dim):
    """The lattice Z^d with the unit cube as its cell, one per dimension."""
    return Lattice(np.ones(dim), np.zeros(dim))


def cells_inside(lattice, eta, box):
    """Integer indices z of the cells eta*(cell + point(z)) inside a box.

    Returns the indices as a sorted tuple of int tuples.  A cell is a
    box, so containment is decided axis by axis: along axis i its lower
    corner eta * (z_i side_i + offset_i) and its upper corner eta *
    (side_i + (z_i side_i + offset_i)) are tested against the closed box
    with a relative tolerance, so cells touching the boundary count.
    The cells inside are the product of the indices each axis admits,
    in lexicographic order.
    """
    eta = float(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    if box.dim != lattice.dim:
        raise ValueError("box dimension does not match lattice")
    pad = 1e-12 * max(1.0, *map(abs, box.lower + box.upper))
    axes = []
    for lo, hi, side, offset in zip(box.lower, box.upper, lattice.side,
                                    lattice.offset):
        # integer search window from the preimage of the box's ends
        z = np.arange(math.floor((lo / eta - offset) / side) - 1,
                      math.ceil((hi / eta - offset) / side) + 2)
        lower = z * side + offset
        upper = side + lower
        fits = (eta * lower >= lo - pad) & (eta * upper <= hi + pad)
        axes.append(z[fits].tolist())
    return tuple(itertools.product(*axes))


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


def _rule_points(pts1, side, origins, first, count):
    """Coordinates of the blocks first:first + count of the d-fold tensor
    rule over the 1D nodes pts1, first axis slowest, in each cell
    origins[c] + side (0,1)^d: a tuple of d arrays that broadcast to
    (C, count, len(pts1)), cell, block, node.  The first d - 1
    coordinates of a block are the nodes its index's base len(pts1)
    digits pick, and the last axis runs over pts1, so every block range
    has the same points as the whole rule.  Coordinate i < d - 1 is
    origins + head node * side[i], of shape (C, count, 1), and the last is
    origins + pts1 * side[-1], of shape (C, 1, len(pts1)).
    """
    dim, size = len(side), len(pts1)
    blocks = np.arange(first, first + count)
    coords = [origins[:, a, None, None]
              + (pts1[blocks // size ** (dim - 2 - a) % size]
                 * side[a])[:, None]
              for a in range(dim - 1)]
    coords.append(origins[:, -1, None, None] + pts1 * side[-1])
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


def _rule_integrals(field_, origins, side, jac, refine, order, squares):
    """Integrals over the cells origins[c] + side (0,1)^d at one rule,
    jac their measure.

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
    dim = len(side)
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
        v = field_(_rule_points(pts1, side, cells, b, k))
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
    is side * eta, so on another lattice than the unit one the panels
    scale with its sides: the cells of fractal_2d's lattice
    2 Z^2 - (1, 1) have sides 2 eta, and get at least 4 panels per
    finest scale.
    """
    if finest_scale <= 0:
        return MAX_REFINE
    r = int(np.ceil(eta / (finest_scale / 8.0)))
    return int(min(max(r, 1), MAX_REFINE))


def _scaled_cells(lattice, z, eta, refine):
    """Origins (C, d), sides, Jacobian and refine of the cells eta *
    (cell + point(z)) at a refine, raising ValueError above MAX_REFINE."""
    refine = int(max(1, refine))
    if refine > MAX_REFINE:
        raise ValueError(f"refine must be at most {MAX_REFINE}, got {refine}")
    side = eta * lattice.side
    return eta * lattice.point(z), side, _measure(side), refine


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
    origins, side, jac, refine = _scaled_cells(lattice, z, eta, refine)
    out = _rule_integrals(field_, origins, side, jac, refine, GAUSS_ORDER,
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
    origins, side, jac, refine = _scaled_cells(lattice, z, eta, refine)
    coarse_rule = (refine // 2, GAUSS_ORDER) if refine > 1 else (1, 2)
    coarse = _rule_integrals(field_, origins, side, jac, *coarse_rule,
                             fine.ndim == 2)
    return np.abs(fine - coarse.reshape(fine.shape)) + 1e-300
