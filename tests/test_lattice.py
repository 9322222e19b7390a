"""Cell enumeration and quadrature against closed-form integrals."""

import itertools
import math
import sys
import threading

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

def skew_2d(pts):
    # neither symmetric in x and y nor a product of one-axis factors, and
    # of both signs
    x, y = pts[:, 0], pts[:, 1]
    return (np.sin(7.0 * x) - np.cos(3.0 * y) + np.sin(5.0 * x * y)
            + (x * y - 2.0 * x) * np.cos(11.0 * (x + y)) ** 2)


@pytest.mark.parametrize("refine", [1, 2, 5])
def test_stacked_cell_integral_equals_single_calls(refine):
    # refine 1 takes the order-2 single-panel estimate
    field_ = CoefficientField(2, skew_2d, 30.0)
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
    _one_worker(monkeypatch)
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return skew_2d(pts)

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
    # cell's block sums, for the field and for field^2
    pts1, wts1 = _panel_rule(refine)
    span = eta * lat.basis
    size, dim = len(pts1), lat.dim
    m = size ** dim
    pts = lattice._rule_points(pts1, span, eta * lat.point([z]), 0,
                               m // size)
    vals = field_(pts).reshape(m // size, size)
    squares = vals * vals
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
    field_ = CoefficientField(2, skew_2d, 30.0)
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
        return skew_2d(pts)

    field_ = CoefficientField(2, counted, 30.0)
    out = cell_integral(SKEW, np.zeros((0, 2), dtype=int), 0.3, field_, 5,
                        squares=True)
    assert [r.shape for r in out] == [(0,)] * 4
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
            out = cell_integral(Lattice(2), [(0, 0)], 0.5, field_, refine,
                                squares=True)
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

    def func(pts):
        sizes.append(len(pts))
        threads.add(threading.current_thread())
        return field_(pts)

    return CoefficientField(field_.dim, func, field_.sup_bound)


def _split_cases():
    fractal = _fractal()[1]
    sin = sin_field(0.01)
    skew = CoefficientField(2, skew_2d, 30.0)
    # (lattice, cells, eta, field, refine, CHUNK_POINTS); each rule takes
    # several evaluations
    return {
        # 4 cells of 16 whole blocks a fine evaluation, 1 a coarse one
        "fractal_2d": (Lattice(2, 2.0 * np.eye(2), -np.ones(2)),
                       [(1, 1), (1, 2), (2, 1), (2, 2)], 0.5, fractal, 64,
                       CHUNK_POINTS),
        # 120 cells of 400 points, 40 a batch; then a small budget
        "skew": (SKEW, [(i, j) for i in range(-3, 3) for j in range(20)],
                 0.3, skew, 5, CHUNK_POINTS),
        "skew_streamed": (SKEW, [(0, 0), (1, -2), (3, 1)], 0.3, skew, 5,
                          150),
        # 1D batches of 2.5 fine cells, then of one block
        "1d": (Lattice(1), [(k,) for k in range(10)], 0.1, sin, 4, 40),
        "1d_blocks": (Lattice(1), [(k,) for k in range(10)], 0.1, sin, 4,
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
        out = cell_integral(lat, np.array(zs), eta,
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
    serial = cell_integral(Lattice(1), zs, 0.01, field_, 4, squares=True)
    monkeypatch.setattr(lattice, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = cell_integral(Lattice(1), zs, 0.01, field_, 4, squares=True)
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
    32 at refine 4): bad(pts) spoils the values of the batches from the
    second on, whose points start at x >= 0.2.  Also returns the threads
    that ran a spoiled batch."""
    threads = set()

    def func(pts):
        vals = np.sin(pts[:, 0] / 0.01)
        if pts[0, 0] < 0.2:
            return vals
        threads.add(threading.current_thread())
        return bad(pts, vals)

    return CoefficientField(1, func, 1.0), threads


def _raised(monkeypatch, workers, field_):
    monkeypatch.setattr(lattice, "CHUNK_POINTS", 32)
    monkeypatch.setattr(lattice, "_workers", lambda: workers)
    with pytest.raises(BaseException) as info:
        cell_integral(Lattice(1), np.arange(10)[:, None], 0.1, field_, 4)
    return info.value


@pytest.mark.parametrize("workers", [2, 3])
def test_a_worker_raises_the_serial_error(monkeypatch, workers):
    # the batch of cells 2k and 2k + 1 returns k values, so each batch
    # gives its own message; the serial loop stops at the second batch
    def wrong_shape(pts, vals):
        return vals[:int(round(pts[0, 0] * 5))]

    field_, threads = _failing_at(wrong_shape)
    serial = _raised(monkeypatch, 1, field_)
    assert str(serial) == ("field closure returned shape (1,), expected "
                           "(32,)")
    threads.clear()
    split = _raised(monkeypatch, workers, field_)
    assert type(split) is type(serial) and str(split) == str(serial)
    # the second batch runs on a worker, and the calling thread's own
    # failure (the third batch) is not the one raised
    assert threading.current_thread() in threads and len(threads) > 1


def test_an_interrupt_is_raised_before_a_lower_error(monkeypatch):
    # at 2 workers the second batch fails on the worker and the third is
    # interrupted on the calling thread: the interrupt wins
    def interrupted(pts, vals):
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

    def nan_at_first(pts, vals):
        vals[0] = np.nan
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
    from homlab.criteria import local_mean_limit
    from homlab.families import make_family
    from homlab.fields import zero_field
    monkeypatch.setattr(lattice, "_workers", lambda: workers)
    calls = []
    field_ = CoefficientField(1, lambda pts: calls.append(pts) or pts[:, 0],
                              1.0)
    fam = make_family(lambda eps: field_, zero_field(1), lambda eps: 0.0,
                      Box((0.0,), (0.05,)), finest_scale=lambda eps: 1.0)
    rep = local_mean_limit(fam, [0.01, 0.005], mu_rule=lambda eps: 0.1,
                           sample_points=3)
    assert math.isnan(rep["rho2"]) and len(rep["skipped"]) == 6
    assert calls == []
    out = cell_integral(Lattice(1), np.zeros((0, 1), dtype=int), 0.1,
                        field_, 4, squares=True)
    assert [r.shape for r in out] == [(0,)] * 4


def test_a_one_evaluation_rule_starts_no_thread(monkeypatch):
    # every rule goes through _split: one evaluation runs on the calling
    # thread, and no evaluation runs nothing, whatever the CPU count
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(lattice, "_workers", lambda: 4)
    monkeypatch.setattr(threading, "Thread", no_thread)
    sizes, threads = [], set()
    field_ = _recorded(sin_field(0.01), sizes, threads)
    out = cell_integral(Lattice(1), np.arange(10)[:, None], 0.1, field_, 4,
                        squares=True)
    assert sizes == [16 * 10, 8 * 10]  # fine and coarse rule, one each
    assert threads == {threading.current_thread()}
    assert all(np.isfinite(r).all() for r in out)
    ran = []
    lattice._split(ran.append, 0)
    lattice._split(ran.append, 1)
    assert ran == [0]
