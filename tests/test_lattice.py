"""Cell enumeration and quadrature against closed-form integrals."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homlab import lattice
from homlab.fields import Box, CoefficientField, constant_field
from homlab.lattice import (CHUNK_POINTS, GAUSS_ORDER, MAX_REFINE, Lattice,
                            _panel_rule, cell_integral, cells_inside,
                            default_refine)

UNIT = Box((0.0,), (1.0,))

SKEW = Lattice(2, basis=np.array([[0.7, 0.2], [-0.1, 0.5]]),
               offset=(0.05, -0.02))


def sin_field(eps):
    return CoefficientField(1, lambda pts: np.sin(pts[:, 0] / eps), 1.0)


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        Lattice(2, basis=np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_cells_inside_unit_interval():
    cells = cells_inside(Lattice(1), 0.25, UNIT)
    assert cells == ((0,), (1,), (2,), (3,))


def test_cells_inside_partial_cover():
    cells = cells_inside(Lattice(1), 0.3, UNIT)
    # 3 cells of length 0.3 fit in (0,1), the fourth sticks out
    assert len(cells) == 3


def test_cells_inside_2d_offset_lattice():
    lat = Lattice(2, basis=2.0 * np.eye(2), offset=(-1.0, -1.0))
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
        verts = eta * (unit @ lat.basis.T + lat.basis @ np.array(z, float)
                       + lat.offset)
        if np.all(verts >= lo - pad) and np.all(verts <= hi + pad):
            found.append(z)
    assert all(max(map(abs, z)) < window for z in found)  # none cut off
    return tuple(sorted(found))


@pytest.mark.parametrize("lat, box, etas", [
    (SKEW, Box((-1.0, -0.5), (1.5, 1.0)), (0.1, 0.37, 1.0)),
    # the cells 0.25 * (2 z + 0.5 + (0, 2)) touch both ends of the box
    (Lattice(1, basis=[[2.0]], offset=[0.5]), Box((0.125,), (2.125,)),
     (0.25, 0.3, 1.0)),
    (Lattice(2, basis=2.0 * np.eye(2), offset=(-1.0, -1.0)),
     Box((0.0, 0.0), (2.0, 2.0)), (0.25, 0.5, 1.0)),
])
def test_cells_inside_matches_vertex_loop(lat, box, etas):
    for eta in etas:
        want = brute_force_cells(lat, eta, box, window=40)
        assert cells_inside(lat, eta, box) == want
    assert len(cells_inside(lat, etas[0], box)) > 1


def test_sine_cell_integral_closed_form():
    # int_0^h sin(x / eps) dx = eps (1 - cos(h / eps))
    eps = 0.05
    h = 0.3
    (val,), (err,) = cell_integral(Lattice(1), [(0,)], h, sin_field(eps), 64)
    exact = eps * (1.0 - math.cos(h / eps))
    assert val == pytest.approx(exact, abs=1e-12)
    assert err < 1e-10


def test_shifted_cell_integral_closed_form():
    eps = 0.07
    h = 0.2
    (val,), _ = cell_integral(Lattice(1), [(2,)], h, sin_field(eps), 64)
    exact = eps * (math.cos(2 * h / eps) - math.cos(3 * h / eps))
    assert val == pytest.approx(exact, abs=1e-12)


def test_cell_mean_of_constant():
    lat = Lattice(2, basis=np.diag([1.0, 2.0]))
    measure = lat.cell_measure * 0.37 ** 2
    (integral,), (err,) = cell_integral(
        lat, [(0, 0)], 0.37, constant_field(2, 3.25), 3)
    assert integral / measure == pytest.approx(3.25, abs=1e-13)
    assert err / measure < 1e-12


def test_error_estimate_majorizes_refinement_change():
    eps = 0.013
    field_ = sin_field(eps)
    (val8,), (err8,) = cell_integral(Lattice(1), [(0,)], 0.5, field_, 8)
    (val16,), _ = cell_integral(Lattice(1), [(0,)], 0.5, field_, 16)
    assert abs(val16 - val8) <= err8


def test_box_integral_2d_product():
    # the box (0,1) x (0,2) as the one cell at eta 1; int x y = 1/2 * 2
    lat = Lattice(2, basis=np.diag([1.0, 2.0]))
    f = CoefficientField(2, lambda pts: pts[:, 0] * pts[:, 1], 2.0)
    (val,), (err,) = cell_integral(lat, [(0, 0)], 1.0, f, 16)
    assert val == pytest.approx(0.5 * 2.0, abs=1e-12)
    assert err < 1e-12


def test_default_refine_rule():
    assert default_refine(1.0, 0.125) == 64
    assert default_refine(0.1, 1.0) == 1
    assert default_refine(1.0, 1e-9) == 4096
    assert default_refine(1.0, 0.0) == 4096


def test_affine_lattice_point():
    lat = Lattice(1, basis=[[2.0]], offset=[0.5])
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
    f = CoefficientField(1, lambda pts: np.cos(5.0 * pts[:, 0]), 1.0)
    g = CoefficientField(1, lambda pts: pts[:, 0] ** 2, 1.0)
    comb = CoefficientField(
        1, lambda pts: a * np.cos(5.0 * pts[:, 0]) + b * pts[:, 0] ** 2,
        abs(a) + abs(b),
    )
    (vf,), _ = cell_integral(Lattice(1), [(0,)], h, f, 16)
    (vg,), _ = cell_integral(Lattice(1), [(0,)], h, g, 16)
    (vc,), _ = cell_integral(Lattice(1), [(0,)], h, comb, 16)
    assert vc == pytest.approx(a * vf + b * vg, abs=1e-12)


# ------------------------------------------------------- batched quadrature

def complex_2d(pts):
    x, y = pts[:, 0], pts[:, 1]
    return (np.sin(7.0 * x) + 1j * np.cos(3.0 * y) + np.exp(1j * 5.0 * x * y)
            + (x * y - 2j * x) * np.cos(11.0 * (x + y)) ** 2)


@pytest.mark.parametrize("refine", [1, 2, 5])
def test_stacked_cell_integral_equals_single_calls(refine):
    # refine 1 takes the order-2 single-panel estimate
    field_ = CoefficientField(2, complex_2d, 30.0)
    zs = np.array([[0, 0], [1, -2], [3, 1], [-2, 4], [5, 5]])
    stack = cell_integral(SKEW, zs, 0.3, field_, refine, squares=True)
    assert [r.shape for r in stack] == [(5,)] * 4
    for k in range(len(zs)):
        one = cell_integral(SKEW, zs[k:k + 1], 0.3, field_, refine,
                            squares=True)
        for got, want in zip(stack, one):
            assert np.array_equal(got[k:k + 1], want)
        integral, err = cell_integral(SKEW, zs[k:k + 1], 0.3, field_, refine)
        assert np.array_equal(integral, one[0])
        assert np.array_equal(err, one[1])


def test_square_integral_matches_closed_form():
    # int_0^h sin^2(x / eps) dx = h / 2 - eps sin(2 h / eps) / 4
    eps, h = 0.05, 0.3
    _, _, (sq,), (sq_err,) = cell_integral(Lattice(1), [(0,)], h,
                                           sin_field(eps), 64, squares=True)
    assert sq.shape == () and sq.dtype == complex
    exact = h / 2 - eps * math.sin(2 * h / eps) / 4
    assert sq.real == pytest.approx(exact, abs=1e-12)
    assert sq_err < 1e-10


def test_panel_rule_is_built_from_cached_gauss_nodes():
    # only the 1D Gauss nodes of an order are cached; the composite rule
    # is built on each call, with the same bits
    assert lattice._gauss(GAUSS_ORDER) is lattice._gauss(GAUSS_ORDER)
    pts, wts = _panel_rule(3)
    again = _panel_rule(3)
    assert again[0] is not pts
    assert np.array_equal(again[0], pts) and np.array_equal(again[1], wts)
    # the single order-2 panel of the coarse estimate at refine 1
    pts2, wts2 = _panel_rule(1, order=2)
    assert pts2 == pytest.approx([0.5 - 0.5 / math.sqrt(3),
                                  0.5 + 0.5 / math.sqrt(3)])
    assert wts2 == pytest.approx([0.5, 0.5])


def test_batches_never_split_a_cell(monkeypatch):
    # a batch holds whole cells and each cell's sum runs once over all of
    # its values; a 1D cell is one block, so no evaluation covers part of
    # a cell
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return np.cos(pts[:, 0] / 0.01)

    field_ = CoefficientField(1, counted, 1.0)
    zs = np.arange(10)[:, None]
    whole = cell_integral(Lattice(1), zs, 0.1, field_, 4)
    assert sizes == [16 * 10, 8 * 10]  # fine and coarse rule, one batch each
    sizes.clear()
    monkeypatch.setattr(lattice, "CHUNK_POINTS", 40)  # 2.5 fine cells
    split = cell_integral(Lattice(1), zs, 0.1, field_, 4)
    assert sizes == [32] * 5 + [40] * 2
    sizes.clear()
    monkeypatch.setattr(lattice, "CHUNK_POINTS", 16)  # one fine block
    single = cell_integral(Lattice(1), zs, 0.1, field_, 4)
    assert sizes == [16] * 10 + [16] * 5
    for a, b, c in zip(whole, split, single):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


@pytest.mark.parametrize("budget", [20, 150, 399])
def test_streamed_cell_equals_whole_cell(monkeypatch, budget):
    # refine 5 has 400 rule points per cell in 20 blocks of 20, and the
    # coarse rule 64 in blocks of 8: every budget streams a fine cell in
    # fills of whole blocks, 150 and 399 with a ragged last fill
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return complex_2d(pts)

    field_ = CoefficientField(2, counted, 30.0)
    zs = np.array([[0, 0], [1, -2], [3, 1]])
    whole = cell_integral(SKEW, zs, 0.3, field_, 5, squares=True)
    assert sizes == [3 * 400, 3 * 64]
    sizes.clear()
    monkeypatch.setattr(lattice, "CHUNK_POINTS", budget)
    streamed = cell_integral(SKEW, zs, 0.3, field_, 5, squares=True)
    assert max(sizes) <= budget
    # the fine rule's fills of whole blocks, one cell at a time, then the
    # coarse rule's, of whole cells when they fit
    assert sizes == {20: [20] * 60 + [16] * 12,
                     150: [140, 140, 120] * 3 + [128, 64],
                     399: [380, 20] * 3 + [192]}[budget]
    for a, b in zip(whole, streamed):
        assert np.array_equal(a, b)


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
    unit, origin = np.eye(dim), np.zeros((1, dim))
    whole = lattice._rule_points(pts1, unit, origin, 0, blocks)
    assert np.array_equal(whole, ref_pts)
    # every block range, one block or many, is the same rows
    for first, count in [(blocks // 3, blocks - blocks // 3), (1, 1),
                         (blocks - 1, 1), (2, blocks // 2)]:
        assert np.array_equal(
            lattice._rule_points(pts1, unit, origin, first, count),
            ref_pts[first * size:(first + count) * size])


def _row_major_points(cols, mat, shifts):
    # shifts[c] + sum_j cols[j] * mat[:, j], written point by point into
    # a C-ordered (C, k, d) array, the sum over j in the same order
    out = np.empty((len(shifts), len(cols[0]), len(cols)))
    for i, row in enumerate(mat):
        acc = cols[0] * row[0]
        for col, entry in zip(cols[1:], row[1:]):
            acc = acc + col * entry
        out[:, :, i] = shifts[:, i, None] + acc
    return out.reshape(-1, len(cols))


def _columns_are_contiguous(pts):
    return all(pts[:, j].flags.c_contiguous for j in range(pts.shape[1]))


@pytest.mark.parametrize("dim, first, count", [(2, 0, 20), (2, 7, 3),
                                               (3, 11, 25)])
def test_rule_points_come_column_contiguous(dim, first, count):
    # each coordinate of a fill is one contiguous column, with the bits
    # a row-major build of the same sums gives
    pts1, _ = _panel_rule(5)
    size = len(pts1)
    rng = np.random.default_rng(3)
    span = np.eye(dim) + 0.2 * rng.standard_normal((dim, dim))
    origins = rng.standard_normal((3, dim))
    pts = lattice._rule_points(pts1, span, origins, first, count)
    blocks = np.arange(first, first + count)
    cols = [np.repeat(pts1[blocks // size ** (dim - 2 - a) % size], size)
            for a in range(dim - 1)] + [np.tile(pts1, count)]
    ref = _row_major_points(cols, span, origins)
    assert pts.shape == ref.shape == (3 * count * size, dim)
    assert _columns_are_contiguous(pts)
    assert np.array_equal(pts, ref)


def test_lattice_points_come_column_contiguous():
    z = np.array([[0, 0], [3, -2], [-1, 4], [7, 7]])
    pts = SKEW.point(z)
    ref = _row_major_points(z.T.astype(float), SKEW.basis, SKEW.offset[None])
    assert _columns_are_contiguous(pts)
    assert np.array_equal(pts, ref)


def test_refine_above_max_is_rejected():
    # a block of a finer rule would not fit one field evaluation
    calls = []
    field_ = CoefficientField(1, lambda pts: calls.append(pts) or pts[:, 0],
                              1.0)
    with pytest.raises(ValueError, match=str(MAX_REFINE)):
        cell_integral(Lattice(1), [(0,)], 0.1, field_, MAX_REFINE + 1)
    assert calls == []


def two_level_reference(field_, lat, z, eta, refine):
    # the whole cell at once: one einsum per block, then one sum over the
    # cell's block sums, for the field and for |field|^2
    pts1, wts1 = _panel_rule(refine)
    span = eta * lat.basis
    size, dim = len(pts1), lat.dim
    m = size ** dim
    pts = lattice._rule_points(pts1, span, eta * lat.point([z]), 0,
                               m // size)
    vals = field_(pts).reshape(m // size, size)
    squares = (np.abs(vals) ** 2).astype(complex)
    factors = lattice._block_weights(dim, wts1)
    jac = abs(float(np.linalg.det(span)))
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
    field_ = CoefficientField(2, complex_2d, 30.0)
    zs = np.array([[0, 0], [1, -2], [3, 1]])
    monkeypatch.setattr(lattice, "CHUNK_POINTS", budget)
    integral, _, sq, _ = cell_integral(SKEW, zs, 0.3, field_, 5,
                                       squares=True)
    for k, z in enumerate(zs):
        want, want_sq = two_level_reference(field_, SKEW, z, 0.3, 5)
        assert np.array_equal(integral[k], want)
        assert np.array_equal(sq[k], want_sq)


def test_large_scalar_cell_equals_two_level_reference():
    # 256 blocks of 256 points: four evaluations of 64 whole blocks each
    from homlab import registry
    from homlab.config import StudyConfig
    fam = registry.build_family(
        StudyConfig.from_text("family.name = fractal_2d\n", "<config>"))
    field_ = fam.at(0.13).v
    integral, _, sq, _ = cell_integral(Lattice(2), [(0, 0)], 0.5, field_, 64,
                                       squares=True)
    want, want_sq = two_level_reference(field_, Lattice(2), (0, 0), 0.5, 64)
    assert np.array_equal(integral[0], want)
    assert np.array_equal(sq[0], want_sq)


def test_empty_stack_has_no_cells():
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return complex_2d(pts)

    field_ = CoefficientField(2, counted, 30.0)
    out = cell_integral(SKEW, np.zeros((0, 2), dtype=int), 0.3, field_, 5,
                        squares=True)
    assert [r.shape for r in out] == [(0,)] * 4
    assert calls == []


def test_large_cell_memory_does_not_grow_with_the_cell():
    # one field evaluation takes at most CHUNK_POINTS points, whatever the
    # cell: its points, the field's intermediates, its complex values and
    # their |value|^2 take a few units of 16 bytes a point, and the block
    # sums 2 x 16 bytes a block.  The bound does not grow with the cell:
    # holding a whole cell's points or values would break it at either
    # size, and the second cell has 4x the points of the first.
    import tracemalloc
    from homlab import registry
    from homlab.config import StudyConfig
    fam = registry.build_family(
        StudyConfig.from_text("family.name = fractal_2d\n", "<config>"))
    field_ = fam.at(0.13).v
    for refine in (128, 256):
        blocks = GAUSS_ORDER * refine
        assert blocks ** 2 >= 16 * CHUNK_POINTS
        tracemalloc.start()
        try:
            out = cell_integral(Lattice(2), [(0, 0)], 0.5, field_, refine,
                                squares=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.isfinite(r).all() for r in out)
        assert peak < 8 * 16 * CHUNK_POINTS + 2 * 16 * blocks, refine
