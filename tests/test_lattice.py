"""Cell enumeration and quadrature against closed-form integrals."""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from homlab import lattice
from homlab.fields import (Box, CoefficientField, broadcast_shape,
                           constant_field)
from homlab.lattice import (CHUNK_POINTS, GAUSS_ORDER, MAX_REFINE, Lattice,
                            _panel_rule, cell_integral, cell_integral_error,
                            cells_inside, default_refine, unit_lattice)

UNIT = Box((0.0,), (1.0,))
LINE = unit_lattice(1)


def integral_and_error(lat, zs, eta, field_, refine, squares=False):
    """cell_integral of the cells and its cell_integral_error: the fine
    rule's evaluations, then the coarse rule's."""
    fine = cell_integral(lat, zs, eta, field_, refine, squares=squares)
    return fine, cell_integral_error(lat, zs, eta, field_, refine, fine)

# unequal sides and an offset of both signs; the cells the tests take
# have negative indices too
OBLONG = Lattice((0.7, 0.5), (0.3, -0.2))
# fractal_2d's lattice 2 Z^2 - (1, 1)
SQUARE = Lattice((2.0, 2.0), (-1.0, -1.0))


def _fractal_field(eps=0.13):
    from homlab import registry
    from homlab.config import StudyConfig
    fam = registry.build_family(
        StudyConfig.from_text("family.name = fractal_2d\n", "<config>"))
    return fam.at(eps).v


def sin_field(eps):
    return CoefficientField(1, lambda x: np.sin(x[0] / eps), 1.0)


def _points(x):
    """The number of points coordinates x stand for."""
    return math.prod(broadcast_shape(x))


@pytest.mark.parametrize("side", [(1.0, 0.0), (-0.5, 1.0), (1.0, math.inf),
                                  (math.nan, 1.0)])
def test_side_that_is_not_positive_and_finite_rejected(side):
    with pytest.raises(ValueError, match="positive and finite"):
        Lattice(side, (0.0, 0.0))


def test_cells_inside_unit_interval():
    cells = cells_inside(LINE, 0.25, UNIT)
    assert cells == ((0,), (1,), (2,), (3,))


def test_cells_inside_partial_cover():
    cells = cells_inside(LINE, 0.3, UNIT)
    # 3 cells of length 0.3 fit in (0,1), the fourth sticks out
    assert len(cells) == 3


def test_cells_inside_2d_offset_lattice():
    lat = SQUARE
    box = Box((0.0, 0.0), (2.0, 2.0))
    cells = cells_inside(lat, 1.0, box)
    # cells are 1 * (2 (0,1)^2 + 2 z - 1): side 2, corners at odd integers
    assert len(cells) == 0
    # at eta 0.5 the cells are [z - 1/2, z + 1/2]^2; only z = (1, 1) fits
    cells2 = cells_inside(lat, 0.5, box)
    assert len(cells2) == 1
    assert cells2 == ((1, 1),)
    # at eta 0.25 the corners move to half-integers, z in {1, 2, 3}^2
    cells3 = cells_inside(lat, 0.25, box)
    assert len(cells3) == 9


def brute_force_cells(lat, eta, box, window):
    # the vertex loop: every candidate in the window, one cell at a time
    lo, hi = np.array(box.lower), np.array(box.upper)
    pad = 1e-12 * max(1.0, float(np.max(np.abs(np.concatenate([lo, hi])))))
    unit = np.array(list(itertools.product([0.0, 1.0], repeat=lat.dim)))
    found = []
    for z in itertools.product(range(-window, window + 1), repeat=lat.dim):
        verts = eta * (unit * lat.side + np.array(z, float) * lat.side
                       + lat.offset)
        if np.all(verts >= lo - pad) and np.all(verts <= hi + pad):
            found.append(z)
    assert all(max(map(abs, z)) < window for z in found)  # none cut off
    return tuple(sorted(found))


@pytest.mark.parametrize("lat, box, etas", [
    (OBLONG, Box((-1.0, -0.5), (1.5, 1.0)), (0.1, 0.37, 1.0)),
    # the cells 0.25 * (2 z + 0.5 + (0, 2)) touch both ends of the box
    (Lattice((2.0,), (0.5,)), Box((0.125,), (2.125,)), (0.25, 0.3, 1.0)),
    (SQUARE, Box((0.0, 0.0), (2.0, 2.0)), (0.25, 0.5, 1.0)),
])
def test_cells_inside_matches_vertex_loop(lat, box, etas):
    for eta in etas:
        want = brute_force_cells(lat, eta, box, window=40)
        assert cells_inside(lat, eta, box) == want
    assert len(cells_inside(lat, etas[0], box)) > 1


def vertex_scan(lat, eta, box):
    """cells_inside by brute force: every vertex of every index of a
    window wide enough to hold every cell in the box, each coordinate
    eta * (B v + (offset + sum_j z_j B[:, j])) of the diagonal span B, so
    each vertex has the bits of the corner cells_inside tests."""
    dim = lat.dim
    basis = np.diag(lat.side)
    lo, hi = np.array(box.lower), np.array(box.upper)
    pad = 1e-12 * max(1.0, float(np.max(np.abs(np.concatenate([lo, hi])))))
    # a cell inside the box has its vertex eta (B z + offset) in it, so
    # |z| <= |B^-1| (|x| / eta + |offset|) over the box's points x
    reach = np.abs(np.linalg.inv(basis)).sum(axis=1).max() * (
        np.max(np.abs(np.concatenate([lo, hi]))) / eta
        + np.max(np.abs(lat.offset)))
    window = int(np.ceil(reach)) + 2
    axis = np.arange(-window, window + 1)
    zs = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"),
                  axis=-1).reshape(-1, dim)
    inside = np.ones(len(zs), dtype=bool)
    for v in itertools.product([0.0, 1.0], repeat=dim):
        for i in range(dim):
            corner = sum(v[j] * basis[i, j] for j in range(dim))
            acc = zs[:, 0] * basis[i, 0]
            for j in range(1, dim):
                acc = acc + zs[:, j] * basis[i, j]
            x = eta * (corner + (lat.offset[i] + acc))
            inside &= (x >= lo[i] - pad) & (x <= hi[i] + pad)
    found = zs[inside]
    assert not len(found) or np.abs(found).max() < window  # none cut off
    return tuple(map(tuple, found.tolist()))


@st.composite
def _lattices(draw):
    # 1D or 2D, the 2D sides drawn apart, so mostly unequal
    dim = draw(st.sampled_from([1, 2]))
    side = draw(st.lists(st.floats(0.25, 2.0), min_size=dim, max_size=dim))
    offset = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim,
                           max_size=dim))
    return Lattice(side, offset)


@st.composite
def _boxes(draw, lat, eta):
    """A random box, or one whose faces are the extreme vertex coordinates
    of two cells, each moved by a few times 1e-12 of the box's scale, so
    that cells touch it on either side of the pad."""
    dim = lat.dim
    if draw(st.booleans()):
        lo = draw(st.lists(st.floats(-3.0, 2.0), min_size=dim, max_size=dim))
        size = draw(st.lists(st.floats(0.05, 3.0), min_size=dim,
                             max_size=dim))
        return Box(lo, np.add(lo, size))
    za, zb = (np.array(draw(st.lists(st.integers(-4, 4), min_size=dim,
                                     max_size=dim))) for _ in range(2))
    unit = np.array(list(itertools.product([0.0, 1.0], repeat=dim)))
    va = eta * (unit * lat.side + lat.point(za[None]))
    vb = eta * (unit * lat.side + lat.point(zb[None]))
    lo, hi = va.min(axis=0), vb.max(axis=0)
    assume(np.all(hi - lo > 1e-6))
    scale = max(1.0, float(np.max(np.abs(np.concatenate([lo, hi])))))
    nudge = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    lo = lo + 1e-12 * scale * np.array([draw(nudge) for _ in range(dim)])
    hi = hi + 1e-12 * scale * np.array([draw(nudge) for _ in range(dim)])
    return Box(lo, hi)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cells_inside_matches_vertex_scan(data):
    lat = data.draw(_lattices())
    eta = data.draw(st.floats(0.2, 1.5))
    box = data.draw(_boxes(lat, eta))
    assert cells_inside(lat, eta, box) == vertex_scan(lat, eta, box)


def test_sine_cell_integral_closed_form():
    # int_0^h sin(x / eps) dx = eps (1 - cos(h / eps))
    eps = 0.05
    h = 0.3
    (val,), (err,) = integral_and_error(LINE, [(0,)], h,
                                        sin_field(eps), 64)
    exact = eps * (1.0 - math.cos(h / eps))
    assert val == pytest.approx(exact, abs=1e-12)
    assert err < 1e-10


def test_shifted_cell_integral_closed_form():
    eps = 0.07
    h = 0.2
    (val,) = cell_integral(LINE, [(2,)], h, sin_field(eps), 64)
    exact = eps * (math.cos(2 * h / eps) - math.cos(3 * h / eps))
    assert val == pytest.approx(exact, abs=1e-12)


def test_cell_mean_of_constant():
    lat = Lattice((1.0, 2.0), (0.0, 0.0))
    measure = lat.cell_measure * 0.37 ** 2
    (integral,), (err,) = integral_and_error(
        lat, [(0, 0)], 0.37, constant_field(2, 3.25), 3)
    assert integral / measure == pytest.approx(3.25, abs=1e-13)
    assert err / measure < 1e-12


def test_error_estimate_majorizes_refinement_change():
    eps = 0.013
    field_ = sin_field(eps)
    val8 = cell_integral(LINE, [(0,)], 0.5, field_, 8)
    (err8,) = cell_integral_error(LINE, [(0,)], 0.5, field_, 8, val8)
    (val16,) = cell_integral(LINE, [(0,)], 0.5, field_, 16)
    assert abs(val16 - val8[0]) <= err8


def test_box_integral_2d_product():
    # the box (0,1) x (0,2) as the one cell at eta 1; int x y = 1/2 * 2
    lat = Lattice((1.0, 2.0), (0.0, 0.0))
    f = CoefficientField(2, lambda x: x[0] * x[1], 2.0)
    (val,), (err,) = integral_and_error(lat, [(0, 0)], 1.0, f, 16)
    assert val == pytest.approx(0.5 * 2.0, abs=1e-12)
    assert err < 1e-12


def test_default_refine_rule():
    assert default_refine(1.0, 0.125) == 64
    assert default_refine(0.1, 1.0) == 1
    assert default_refine(1.0, 1e-9) == 4096
    assert default_refine(1.0, 0.0) == 4096


def test_affine_lattice_point():
    lat = Lattice((2.0,), (0.5,))
    assert lat.point([[3], [0]])[:, 0] == pytest.approx([6.5, 0.5])
    # the cell 0.1 * (2 (0,1) + 0.5) is [0.05, 0.25]: inside a box touching
    # both of its ends, outside any box that cuts one of them off
    assert cells_inside(lat, 0.1, Box((0.05,), (0.25,))) == ((0,),)
    assert cells_inside(lat, 0.1, Box((0.06,), (0.25,))) == ()
    assert cells_inside(lat, 0.1, Box((0.05,), (0.24,))) == ()


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-2.0, 2.0, allow_nan=False),
    b=st.floats(-2.0, 2.0, allow_nan=False),
    h=st.floats(0.05, 0.9, allow_nan=False),
)
def test_cell_integral_linearity(a, b, h):
    f = CoefficientField(1, lambda x: np.cos(5.0 * x[0]), 1.0)
    g = CoefficientField(1, lambda x: x[0] ** 2, 1.0)
    comb = CoefficientField(
        1, lambda x: a * np.cos(5.0 * x[0]) + b * x[0] ** 2,
        abs(a) + abs(b),
    )
    (vf,) = cell_integral(LINE, [(0,)], h, f, 16)
    (vg,) = cell_integral(LINE, [(0,)], h, g, 16)
    (vc,) = cell_integral(LINE, [(0,)], h, comb, 16)
    assert vc == pytest.approx(a * vf + b * vg, abs=1e-12)


# ------------------------------------------------------- batched quadrature

def skew_2d(coords):
    # neither symmetric in x and y nor a product of one-axis factors, and
    # of both signs
    x, y = coords
    return (np.sin(7.0 * x) - np.cos(3.0 * y) + np.sin(5.0 * x * y)
            + (x * y - 2.0 * x) * np.cos(11.0 * (x + y)) ** 2)


@pytest.mark.parametrize("refine", [1, 2, 5])
def test_stacked_cell_integral_equals_single_calls(refine):
    # refine 1 takes the order-2 single-panel estimate
    field_ = CoefficientField(2, skew_2d, 30.0)
    zs = np.array([[0, 0], [1, -2], [3, 1], [-2, 4], [5, 5]])
    stack = integral_and_error(OBLONG, zs, 0.3, field_, refine, squares=True)
    assert [r.shape for r in stack] == [(2, 5)] * 2
    for k in range(len(zs)):
        one = integral_and_error(OBLONG, zs[k:k + 1], 0.3, field_, refine,
                                 squares=True)
        for got, want in zip(stack, one):
            assert np.array_equal(got[:, k:k + 1], want)
        integral, err = integral_and_error(OBLONG, zs[k:k + 1], 0.3, field_,
                                           refine)
        assert np.array_equal(integral, one[0][0])
        assert np.array_equal(err, one[1][0])


def test_square_integral_matches_closed_form():
    # int_0^h sin^2(x / eps) dx = h / 2 - eps sin(2 h / eps) / 4
    eps, h = 0.05, 0.3
    (_, (sq,)), (_, (sq_err,)) = integral_and_error(
        LINE, [(0,)], h, sin_field(eps), 64, squares=True)
    assert sq.shape == () and sq.dtype == float
    exact = h / 2 - eps * math.sin(2 * h / eps) / 4
    assert sq == pytest.approx(exact, abs=1e-12)
    assert sq_err < 1e-10


@pytest.mark.parametrize("order", [2, GAUSS_ORDER])
def test_tabulated_gauss_rules_are_leggauss_bit_for_bit(order):
    from numpy.polynomial.legendre import leggauss

    rule = lattice._gauss(order)
    for tabulated, computed in zip(rule, leggauss(order), strict=True):
        assert np.array_equal(tabulated.view(np.uint64),
                              computed.view(np.uint64))
        # every call shares them, so none may write to them
        assert not tabulated.flags.writeable
    assert lattice._gauss(order) is rule


def test_panel_rule_is_built_from_tabulated_gauss_nodes():
    # only the 1D Gauss nodes and weights of an order are stored; the
    # composite rule is built on each call, with the same bits
    pts, wts = _panel_rule(3)
    again = _panel_rule(3)
    assert again[0] is not pts
    assert np.array_equal(again[0], pts) and np.array_equal(again[1], wts)
    # the single order-2 panel of the coarse estimate at refine 1
    pts2, wts2 = _panel_rule(1, order=2)
    assert pts2 == pytest.approx([0.5 - 0.5 / math.sqrt(3),
                                  0.5 + 0.5 / math.sqrt(3)])
    assert wts2 == pytest.approx([0.5, 0.5])


def _one_worker(monkeypatch):
    # the order of a rule's evaluations is defined only when one thread
    # runs them all
    monkeypatch.setattr(lattice, "_workers", lambda: 1)


def test_batches_never_split_a_cell(monkeypatch):
    # a batch holds whole cells and each cell's sum runs once over all of
    # its values; a 1D cell is one block, so no evaluation covers part of
    # a cell
    _one_worker(monkeypatch)
    sizes = []

    def counted(x):
        sizes.append(_points(x))
        return np.cos(x[0] / 0.01)

    field_ = CoefficientField(1, counted, 1.0)
    zs = np.arange(10)[:, None]
    whole = integral_and_error(LINE, zs, 0.1, field_, 4)
    assert sizes == [16 * 10, 8 * 10]  # fine and coarse rule, one batch each
    sizes.clear()
    monkeypatch.setattr(lattice, "CHUNK_POINTS", 40)  # 2.5 fine cells
    split = integral_and_error(LINE, zs, 0.1, field_, 4)
    assert sizes == [32] * 5 + [40] * 2
    sizes.clear()
    monkeypatch.setattr(lattice, "CHUNK_POINTS", 16)  # one fine block
    single = integral_and_error(LINE, zs, 0.1, field_, 4)
    assert sizes == [16] * 10 + [16] * 5
    for a, b, c in zip(whole, split, single):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


@pytest.mark.parametrize("budget", [20, 150, 399])
def test_streamed_cell_equals_whole_cell(monkeypatch, budget):
    # refine 5 has 400 rule points per cell in 20 blocks of 20, and the
    # coarse rule 64 in blocks of 8: every budget streams a fine cell in
    # fills of whole blocks, 150 and 399 with a ragged last fill
    _one_worker(monkeypatch)
    sizes = []

    def counted(x):
        sizes.append(_points(x))
        return skew_2d(x)

    field_ = CoefficientField(2, counted, 30.0)
    zs = np.array([[0, 0], [1, -2], [3, 1]])
    whole = integral_and_error(OBLONG, zs, 0.3, field_, 5, squares=True)
    assert sizes == [3 * 400, 3 * 64]
    sizes.clear()
    monkeypatch.setattr(lattice, "CHUNK_POINTS", budget)
    streamed = integral_and_error(OBLONG, zs, 0.3, field_, 5, squares=True)
    assert max(sizes) <= budget
    # the fine rule's fills of whole blocks, one cell at a time, then the
    # coarse rule's, of whole cells when they fit
    assert sizes == {20: [20] * 60 + [16] * 12,
                     150: [140, 140, 120] * 3 + [128, 64],
                     399: [380, 20] * 3 + [192]}[budget]
    for a, b in zip(whole, streamed):
        assert np.array_equal(a, b)


def _materialized(coords):
    """The points that rule coordinates stand for, as an (n, d) array in
    the rule's order: cell, block, node."""
    return np.stack([c.ravel() for c in np.broadcast_arrays(*coords)],
                    axis=1)


def _meshgrid_tensor_rule(dim, refine):
    pts1, wts1 = _panel_rule(refine)
    grids = np.meshgrid(*[pts1] * dim, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*[wts1] * dim, indexing="ij")
    wts = np.prod(np.stack([w.ravel() for w in wgrids], axis=1), axis=1)
    return pts, wts


@pytest.mark.parametrize("dim, refine", [(2, 3), (2, 60), (2, 342), (3, 3)])
def test_tensor_rule_matches_meshgrid_reference(dim, refine):
    pts1, wts1 = _panel_rule(refine)
    size = len(pts1)
    # the weights of block b are factor b times the 1D weights
    factors = lattice._block_weights(dim, wts1)
    wts = np.multiply.outer(factors, wts1).ravel()
    blocks = len(factors)
    ref_pts, ref_wts = _meshgrid_tensor_rule(dim, refine)
    assert np.array_equal(wts, ref_wts)
    unit, origin = np.ones(dim), np.zeros((1, dim))
    whole = lattice._rule_points(pts1, unit, origin, 0, blocks)
    assert np.array_equal(_materialized(whole), ref_pts)
    # every block range, one block or many, is the same rows
    for first, count in [(blocks // 3, blocks - blocks // 3), (1, 1),
                         (blocks - 1, 1), (2, blocks // 2)]:
        assert np.array_equal(
            _materialized(
                lattice._rule_points(pts1, unit, origin, first, count)),
            ref_pts[first * size:(first + count) * size])


def _pointwise(cols, side, shifts):
    # shifts[c, i] + cols[i] * side[i], written point by point into a
    # C-ordered (C, k, d) array
    out = np.empty((len(shifts), len(cols[0]), len(cols)))
    for i, (col, s) in enumerate(zip(cols, side)):
        out[:, :, i] = shifts[:, i, None] + col * s
    return out.reshape(-1, len(cols))


def _rule_columns(pts1, dim, first, count):
    # the 1D node of each point of blocks first:first + count along each
    # axis, first axis slowest, written out point by point
    size = len(pts1)
    blocks = np.arange(first, first + count)
    return [np.repeat(pts1[blocks // size ** (dim - 2 - a) % size], size)
            for a in range(dim - 1)] + [np.tile(pts1, count)]


@pytest.mark.parametrize("dim, first, count", [(2, 0, 20), (2, 7, 3),
                                               (3, 11, 25)])
def test_rule_points_come_column_contiguous(dim, first, count):
    # each coordinate of a fill is its own contiguous array, with the
    # bits a point-by-point build gives, on random unequal sides
    pts1, _ = _panel_rule(5)
    rng = np.random.default_rng(3)
    side = 0.5 + rng.random(dim)
    origins = rng.standard_normal((3, dim))
    coords = lattice._rule_points(pts1, side, origins, first, count)
    ref = _pointwise(_rule_columns(pts1, dim, first, count), side, origins)
    assert len(coords) == dim
    assert all(c.flags.c_contiguous for c in coords)
    assert np.array_equal(_materialized(coords), ref)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rule_coordinates_come_along_the_axes_they_vary_on(dim):
    # a head coordinate is constant along a block and the last one is the
    # same in every block: each comes with length 1 there, with the bits
    # of the full point-by-point build
    pts1, _ = _panel_rule(5)
    size = len(pts1)
    side = 0.5 + np.arange(dim)
    origins = np.random.default_rng(4).standard_normal((3, dim))
    first, count = (2, 7) if dim > 1 else (0, 1)
    coords = lattice._rule_points(pts1, side, origins, first, count)
    want = [(3, count, 1)] * (dim - 1) + [(3, 1, size)]
    assert [c.shape for c in coords] == want
    ref = _pointwise(_rule_columns(pts1, dim, first, count), side, origins)
    assert _materialized(coords).tobytes() == ref.tobytes()


def test_refine_above_max_is_rejected():
    # a block of a finer rule would not fit one field evaluation
    calls = []
    field_ = CoefficientField(1, lambda x: calls.append(x) or x[0], 1.0)
    with pytest.raises(ValueError, match=str(MAX_REFINE)):
        cell_integral(LINE, [(0,)], 0.1, field_, MAX_REFINE + 1)
    with pytest.raises(ValueError, match=str(MAX_REFINE)):
        cell_integral_error(LINE, [(0,)], 0.1, field_, MAX_REFINE + 1,
                            np.zeros(1))
    assert calls == []


@pytest.mark.parametrize("refine", [2, 5, 8])
@pytest.mark.parametrize("squares", [False, True])
def test_error_is_the_gap_to_the_half_resolution_integral(refine, squares):
    # above refine 1 the coarse rule is the fine rule at refine // 2, so
    # the estimate is the bits of |fine - cell_integral(refine // 2)|
    field_ = CoefficientField(2, skew_2d, 30.0)
    zs = np.array([[0, 0], [1, -2], [3, 1]])
    fine, err = integral_and_error(OBLONG, zs, 0.3, field_, refine,
                                   squares=squares)
    half = cell_integral(OBLONG, zs, 0.3, field_, refine // 2, squares=squares)
    assert err.shape == fine.shape == half.shape
    assert np.array_equal(err, np.abs(fine - half) + 1e-300)


def two_level_reference(field_, lat, z, eta, refine):
    # the whole cell at once, on its materialized points built point by
    # point: one einsum per block, then one sum over the cell's block
    # sums, for the field and for field^2
    pts1, wts1 = _panel_rule(refine)
    side = eta * lat.side
    size, dim = len(pts1), lat.dim
    m = size ** dim
    pts = _pointwise(_rule_columns(pts1, dim, 0, m // size), side,
                     eta * lat.point([z]))
    x = tuple(np.ascontiguousarray(pts.T))
    vals = field_(x).reshape(m // size, size)
    squares = vals * vals
    factors = lattice._block_weights(dim, wts1)
    jac = abs(float(np.linalg.det(np.diag(side))))
    out = []
    for v in (vals, squares):
        sums = np.array([np.einsum("m,m->", f * wts1, block)
                         for f, block in zip(factors, v)])
        out.append(jac * sums.sum(axis=0))
    return out


@pytest.mark.parametrize("budget", [20, 150, 2 ** 14])
def test_2d_cell_equals_two_level_reference(monkeypatch, budget):
    # refine 5: 20 blocks of 20 points; budget 20 fills one block at a
    # time, 150 fills 7, and the default takes whole cells
    field_ = CoefficientField(2, skew_2d, 30.0)
    zs = np.array([[0, 0], [1, -2], [3, 1]])
    monkeypatch.setattr(lattice, "CHUNK_POINTS", budget)
    integral, sq = cell_integral(OBLONG, zs, 0.3, field_, 5, squares=True)
    for k, z in enumerate(zs):
        want, want_sq = two_level_reference(field_, OBLONG, z, 0.3, 5)
        assert np.array_equal(integral[k], want)
        assert np.array_equal(sq[k], want_sq)


@pytest.mark.parametrize("budget", [20, 150, 2 ** 14])
@pytest.mark.parametrize("field_", [CoefficientField(2, skew_2d, 30.0),
                                    _fractal_field()],
                         ids=["skew_2d", "fractal_2d"])
def test_axis_aligned_cell_equals_two_level_reference(monkeypatch, budget,
                                                      field_):
    # the closure gets x1 once per block and x2 once per node, and the
    # reference the materialized points: the same bits
    zs = np.array([[1, 1], [1, 2], [2, 1]])
    monkeypatch.setattr(lattice, "CHUNK_POINTS", budget)
    integral, sq = cell_integral(SQUARE, zs, 0.3, field_, 5, squares=True)
    for k, z in enumerate(zs):
        want, want_sq = two_level_reference(field_, SQUARE, z, 0.3, 5)
        assert np.array_equal(integral[k], want)
        assert np.array_equal(sq[k], want_sq)


@pytest.mark.parametrize("lat", [SQUARE, OBLONG], ids=["square", "skew"])
def test_closure_gets_each_coordinate_along_the_axes_it_varies_on(lat):
    # refine 5: 20 blocks of 20 points a cell, and the coarse rule 8 of
    # 8.  On equal sides or unequal ones, x1 is constant along a block
    # and x2 the same in every block
    shapes = []

    def recorded(x):
        shapes.append([c.shape for c in x])
        return skew_2d(x)

    zs = np.array([[1, 1], [1, 2], [2, 1]])
    integral_and_error(lat, zs, 0.3, CoefficientField(2, recorded, 30.0), 5)
    assert shapes == [[(3, 20, 1), (3, 1, 20)], [(3, 8, 1), (3, 1, 8)]]


def test_large_scalar_cell_equals_two_level_reference():
    # 256 blocks of 256 points: four evaluations of 64 whole blocks each
    from homlab import registry
    from homlab.config import StudyConfig
    fam = registry.build_family(
        StudyConfig.from_text("family.name = fractal_2d\n", "<config>"))
    field_ = fam.at(0.13).v
    integral, sq = cell_integral(unit_lattice(2), [(0, 0)], 0.5, field_, 64,
                                 squares=True)
    want, want_sq = two_level_reference(field_, unit_lattice(2), (0, 0), 0.5,
                                        64)
    assert np.array_equal(integral[0], want)
    assert np.array_equal(sq[0], want_sq)


def test_empty_stack_has_no_cells():
    calls = []

    def counted(x):
        calls.append(_points(x))
        return skew_2d(x)

    field_ = CoefficientField(2, counted, 30.0)
    out = integral_and_error(OBLONG, np.zeros((0, 2), dtype=int), 0.3, field_,
                             5, squares=True)
    assert [r.shape for r in out] == [(2, 0)] * 2
    assert calls == []


def test_large_cell_memory_does_not_grow_with_the_cell(monkeypatch):
    # one field evaluation takes at most CHUNK_POINTS points, whatever the
    # cell: its points, the field's intermediates, its values and their
    # squares take a few units of 8 bytes a point, and the block sums
    # 2 x 8 bytes a block.  Each worker holds one evaluation at a
    # time, so the bound is that much per worker.  It does not grow with
    # the cell: holding a whole cell's points or values would break it at
    # either size, and the second cell has 4x the points of the first.
    import tracemalloc
    from homlab import registry
    from homlab.config import StudyConfig
    fam = registry.build_family(
        StudyConfig.from_text("family.name = fractal_2d\n", "<config>"))
    field_ = fam.at(0.13).v
    for workers, refine in itertools.product((1, 2, 3), (128, 256)):
        monkeypatch.setattr(lattice, "_workers", lambda: workers)
        blocks = GAUSS_ORDER * refine
        assert blocks ** 2 >= 16 * CHUNK_POINTS
        tracemalloc.start()
        try:
            out = integral_and_error(unit_lattice(2), [(0, 0)], 0.5, field_,
                                     refine, squares=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.isfinite(r).all() for r in out)
        assert peak < workers * 8 * 8 * CHUNK_POINTS + 2 * 8 * blocks, \
            (workers, refine)


# ------------------------------------------------- evaluations on threads

def _fractal(eps=0.13):
    from homlab import registry
    from homlab.config import StudyConfig
    fam = registry.build_family(
        StudyConfig.from_text("family.name = fractal_2d\n", "<config>"))
    return fam, fam.at(eps).v


def _recorded(field_, sizes, threads):
    """field_ that records each evaluation's size and thread.

    Threads are recorded as their Thread objects, which the set keeps
    alive: a thread that has ended may hand its ident on to the next one
    started, so idents can count two threads as one."""

    def func(x):
        sizes.append(_points(x))
        threads.add(threading.current_thread())
        return field_(x)

    return CoefficientField(field_.dim, func, field_.sup_bound)


def _split_cases():
    fractal = _fractal()[1]
    sin = sin_field(0.01)
    skew = CoefficientField(2, skew_2d, 30.0)
    # (lattice, cells, eta, field, refine, CHUNK_POINTS); each rule takes
    # several evaluations
    return {
        # 4 cells of 16 whole blocks a fine evaluation, 1 a coarse one
        "fractal_2d": (SQUARE,
                       [(1, 1), (1, 2), (2, 1), (2, 2)], 0.5, fractal, 64,
                       CHUNK_POINTS),
        # 120 cells of 400 points, 40 a batch; then a small budget
        "skew": (OBLONG, [(i, j) for i in range(-3, 3) for j in range(20)],
                 0.3, skew, 5, CHUNK_POINTS),
        "skew_streamed": (OBLONG, [(0, 0), (1, -2), (3, 1)], 0.3, skew, 5,
                          150),
        # 1D batches of 2.5 fine cells, then of one block
        "1d": (LINE, [(k,) for k in range(10)], 0.1, sin, 4, 40),
        "1d_blocks": (LINE, [(k,) for k in range(10)], 0.1, sin, 4,
                      16),
    }


@pytest.mark.parametrize("case", sorted(_split_cases()))
def test_results_do_not_follow_the_worker_count(monkeypatch, case):
    lat, zs, eta, field_, refine, budget = _split_cases()[case]
    monkeypatch.setattr(lattice, "CHUNK_POINTS", budget)
    results = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(lattice, "_workers", lambda: workers)
        sizes, threads = [], set()
        out = integral_and_error(lat, np.array(zs), eta,
                                 _recorded(field_, sizes, threads), refine,
                                 squares=True)
        results[workers] = out, sorted(sizes)
        # the evaluations ran on the calling thread alone, or on at
        # least as many threads as asked for (each rule starts its own)
        assert threading.current_thread() in threads
        assert len(threads) == 1 if workers == 1 else len(threads) >= workers
    one, one_sizes = results[1]
    assert all(np.isfinite(r).all() for r in one)
    for out, sizes in results.values():
        assert sizes == one_sizes
        for got, want in zip(out, one, strict=True):
            assert np.array_equal(got, want)


def test_many_small_evaluations_on_more_threads_than_cpus(monkeypatch):
    # one evaluation per 1D cell, on 8 threads that switch as often as the
    # interpreter allows: a block sum lost or written to another cell's
    # slice would change a result
    field_ = sin_field(0.01)
    zs = np.arange(300)[:, None]
    monkeypatch.setattr(lattice, "CHUNK_POINTS", 16)
    monkeypatch.setattr(lattice, "_workers", lambda: 1)
    serial = integral_and_error(LINE, zs, 0.01, field_, 4,
                                squares=True)
    monkeypatch.setattr(lattice, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = integral_and_error(LINE, zs, 0.01, field_, 4,
                                   squares=True)
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(split, serial, strict=True):
        assert np.array_equal(got, want)


def test_criterion_report_does_not_follow_the_worker_count(monkeypatch):
    from homlab.criteria import criterion_report
    fam = _fractal()[0]
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(lattice, "_workers", lambda: workers)
        reports.append(criterion_report(fam, 0.13, 0.25, 64))
    assert reports[0].cell_count == 9
    assert reports[1] == reports[0] and reports[2] == reports[0]


def _failing_at(bad):
    """A 1D field evaluated in batches of two cells of 0.1 (CHUNK_POINTS
    32 at refine 4): bad(x, vals) spoils the values of the batches from the
    second on, whose points start at x >= 0.2.  Also returns the threads
    that ran a spoiled batch."""
    threads = set()

    def func(x):
        vals = np.sin(x[0] / 0.01)
        if x[0].flat[0] < 0.2:
            return vals
        threads.add(threading.current_thread())
        return bad(x, vals)

    return CoefficientField(1, func, 1.0), threads


def _raised(monkeypatch, workers, field_):
    monkeypatch.setattr(lattice, "CHUNK_POINTS", 32)
    monkeypatch.setattr(lattice, "_workers", lambda: workers)
    with pytest.raises(BaseException) as info:
        cell_integral(LINE, np.arange(10)[:, None], 0.1, field_, 4)
    return info.value


@pytest.mark.parametrize("workers", [2, 3])
def test_a_worker_raises_the_serial_error(monkeypatch, workers):
    # the batch of cells 2k and 2k + 1 returns k values, so each batch
    # gives its own message; the serial loop stops at the second batch
    def wrong_shape(x, vals):
        return vals.ravel()[:int(round(x[0].flat[0] * 5))]

    field_, threads = _failing_at(wrong_shape)
    serial = _raised(monkeypatch, 1, field_)
    assert str(serial) == ("field closure returned shape (1,), expected "
                           "(2, 1, 16)")
    threads.clear()
    split = _raised(monkeypatch, workers, field_)
    assert type(split) is type(serial) and str(split) == str(serial)
    # the second batch runs on a worker, and the calling thread's own
    # failure (the third batch) is not the one raised
    assert threading.current_thread() in threads and len(threads) > 1


def test_an_interrupt_is_raised_before_a_lower_error(monkeypatch):
    # at 2 workers the second batch fails on the worker and the third is
    # interrupted on the calling thread: the interrupt wins
    def interrupted(x, vals):
        if threading.get_ident() == threading.main_thread().ident:
            raise KeyboardInterrupt
        raise ValueError("second batch")

    field_, threads = _failing_at(interrupted)
    assert type(_raised(monkeypatch, 1, field_)) is KeyboardInterrupt
    assert type(_raised(monkeypatch, 2, field_)) is KeyboardInterrupt
    assert len(threads) == 2


@pytest.mark.parametrize("workers", [2, 3])
def test_a_non_finite_worker_value_breaches(monkeypatch, workers):
    from homlab.criteria import NumericalBreach, criterion_report
    from homlab.families import make_family
    from homlab.fields import zero_field

    def nan_at_first(x, vals):
        vals.flat[0] = np.nan
        return vals

    field_, threads = _failing_at(nan_at_first)
    fam = make_family(lambda eps: field_, zero_field(1), lambda eps: 0.0,
                      UNIT, finest_scale=lambda eps: 1.0)
    monkeypatch.setattr(lattice, "CHUNK_POINTS", 32)
    messages = []
    for w in (1, workers):
        monkeypatch.setattr(lattice, "_workers", lambda: w)
        threads.clear()
        with pytest.raises(NumericalBreach) as info:
            criterion_report(fam, 0.01, 0.1, refine=4)
        messages.append(str(info.value))
    assert messages[1] == messages[0] == (
        "non-finite cell integral at eps 0.01, eta 0.1")
    # the spoiled second batch ran on a worker
    assert len(threads) >= workers


@pytest.mark.parametrize("workers", [1, 3])
def test_a_rule_with_no_cells_at_any_worker_count(monkeypatch, workers):
    # every homogenize window skipped: each rule has no cell to evaluate
    from homlab.criteria import local_mean_limit, worst_gap
    from homlab.families import make_family
    from homlab.fields import zero_field
    monkeypatch.setattr(lattice, "_workers", lambda: workers)
    calls = []
    field_ = CoefficientField(1, lambda x: calls.append(x) or x[0], 1.0)
    fam = make_family(lambda eps: field_, zero_field(1), lambda eps: 0.0,
                      Box((0.0,), (0.05,)), finest_scale=lambda eps: 1.0)
    _, means = local_mean_limit(fam, [0.01, 0.005], mu_rule=lambda eps: 0.1,
                                sample_points=3)
    rho2 = np.fmax.reduce(worst_gap(means[1:], means[:-1]))
    assert math.isnan(rho2) and np.isnan(means).sum() == 6
    assert calls == []
    out = integral_and_error(LINE, np.zeros((0, 1), dtype=int), 0.1,
                             field_, 4, squares=True)
    assert [r.shape for r in out] == [(2, 0)] * 2


def test_a_one_evaluation_rule_starts_no_thread(monkeypatch):
    # every rule goes through _split: one evaluation runs on the calling
    # thread, and no evaluation runs nothing, whatever the CPU count
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(lattice, "_workers", lambda: 4)
    monkeypatch.setattr(threading, "Thread", no_thread)
    sizes, threads = [], set()
    field_ = _recorded(sin_field(0.01), sizes, threads)
    out = integral_and_error(LINE, np.arange(10)[:, None], 0.1, field_,
                             4, squares=True)
    assert sizes == [16 * 10, 8 * 10]  # fine and coarse rule, one each
    assert threads == {threading.current_thread()}
    assert all(np.isfinite(r).all() for r in out)
    ran = []
    lattice._split(ran.append, 0)
    lattice._split(ran.append, 1)
    assert ran == [0]
