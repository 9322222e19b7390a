"""Band forms against the constructions they replaced.

Every form is a band form (fem.band_form), whose data array is the band
that the solver's split diagonals and |A|_inf, and the Cholesky band of
a Gram or a pencil, read through fem.diagonals.  The routes they
replaced are kept as oracles: the CSR assembly, sparse arithmetic and
CSR-to-band readers of csr_oracle, and before those the DIA conversion,
abs-sum, triu, COO and np.add.at readers and the sp.diags(...,
format="csr") assembly on all six real element moments.  On the first
and last row of every shipped resolvent config, each form's band, the
products of L and L^H, the Hermitian pencil band at every shift tried,
the solver's bands and the H1 factor must hold the same bytes, and the
coercivity search must find the same c4.  Every form those rows build is
real, and so is every band their inertia decisions factor; L and L^H
are held complex, with zero imaginary parts.  And so is the stacked
(2, k, n) compensated residual that the solver's interleaved (re, im)
one replaced: on shipped forms it must give the same bits.
"""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import csr_oracle
from csr_oracle import band
from homlab import fem, norms, registry, resolvent, study
from homlab.config import StudyConfig
from homlab.fem import (LinearSolver, _split, assemble_triple, band_form,
                        diagonals, discretize)
from homlab.families import deviation_triple
from homlab.norms import Space, find_lambda
from homlab.resolvent import (assemble_setting, context_from_setting,
                              shifted_forms)
from test_fem import _wide_banded
from test_norms import _factored_dtypes

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RESOLVENTS = sorted(p.stem for p in CONFIGS.glob("*_resolvent.cfg"))
AUTO_SHIFT = [name for name in RESOLVENTS
              if StudyConfig.load(CONFIGS / f"{name}.cfg")
              .get("operator.shift", None) == "auto"]


def _old_half_bandwidth(*mats):
    pattern = sp.triu(sum(abs(m) for m in mats), format="coo")
    return int(np.max(pattern.col - pattern.row, initial=0))


def _old_upper_band(mat, u):
    upper = sp.triu(mat, format="coo")
    upper.eliminate_zeros()
    ab = np.zeros((u + 1, mat.shape[0]), dtype=upper.dtype)
    np.add.at(ab, (u + upper.row - upper.col, upper.col), upper.data)
    return ab


def _old_solver_bands(matrix):
    """(bands, matrix_norm) as LinearSolver built them from a DIA copy."""
    matrix = matrix.tocsc().astype(complex)
    dia = sp.dia_matrix(matrix)
    n = matrix.shape[0]
    dia_r = np.ascontiguousarray(dia.data.real)
    bands = []
    for k, off in enumerate(dia.offsets):
        j0, j1 = max(0, off), min(n, n + off)
        if j0 >= j1:
            continue
        bands.append((j0, j1, off, _split(dia_r[k, j0:j1])))
    return bands, float(np.abs(matrix).sum(axis=1).max())


def _diags_form_matrix(mesh, coef, term, refine):
    """A term's form matrix as it was built: all six element moments,
    and the three diagonals through sp.diags(..., format="csr")."""
    h = mesh.h
    d = (-1.0 / h, 1.0 / h)
    m = fem._element_moments(coef, mesh, refine,
                             ("1", "L", "R", "LL", "LR", "RR"))
    side = ("L", "R")
    pair = (("LL", "LR"), ("LR", "RR"))
    block = {
        "stiffness": lambda a, b: d[a] * d[b] * m["1"],
        "plus": lambda a, b: d[b] * m[side[a]],
        "minus": lambda a, b: -d[a] * m[side[b]],
        "mass": lambda a, b: m[pair[a][b]],
    }[term]
    main = block(0, 0)[1:] + block(1, 1)[:-1]
    return sp.diags([block(1, 0)[1:-1], main, block(0, 1)[1:-1]],
                    [-1, 0, 1], format="csr")


def _diags_csr(sub, main, sup):
    """The base forms' CSR matrices as sp.diags(..., format="csr") built
    them from their three diagonals."""
    return sp.diags([sub, main, sup], [-1, 0, 1], format="csr")


def _empty_start_perturbation(space, v, refine, q=(), p=()):
    """fem.assemble_perturbation as it summed: from an empty CSR, one
    sparse add a term, each term from _diags_form_matrix."""
    mesh = space.mesh
    terms = ([(qf, "plus") for qf in q] + [(pf, "minus") for pf in p]
             + [(v, "mass")])
    dof = mesh.n_elements - 1
    total = sp.csr_matrix((dof, dof))
    for field_, term in terms:
        total = total + _diags_form_matrix(mesh, field_, term, refine)
    return fem.PerturbationMatrix(total)


def _same_bytes(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _same_bands(new, old):
    """The solver's bands hold each split entry twice, the old ones once:
    the even entries of each part must be the old part's bytes, and the
    odd entries the even ones'."""
    return len(new) == len(old) and all(
        (j0, j1, off) == (k0, k1, koff)
        and all(_same_bytes(x[0::2], y) and _same_bytes(x[1::2], x[0::2])
                for x, y in zip(parts, kparts))
        for (j0, j1, off, parts), (k0, k1, koff, kparts) in zip(new, old))


def _old_dd_residual(bands, rhs, x):
    """LinearSolver.residual as it carried a block, on bands split
    once per entry: real and imaginary parts stacked in a (2, k, n) array
    and the residual rebuilt as re + 1j im."""
    x = x.T
    rhs = rhs.T
    xs = _split(np.stack((x.real, x.imag)))
    acc = fem._Compensated(np.stack((rhs.real, rhs.imag)))
    for j0, j1, off, d in bands:
        o0, o1 = j0 - off, j1 - off
        p, e = fem._two_prod(d, tuple(a[..., j0:j1] for a in xs))
        acc.sub(p, e, o0, o1)
    r = acc.value()
    return (r[0] + 1j * r[1]).T


@lru_cache(maxsize=None)
def _shipped_forms(name):
    """(label, form, H1 Gram) of every form a shipped resolvent config
    builds: G0 and Geps at its shift, their Hermitian parts (the pencils
    find_lambda factors at the shift it accepts) and the H1 Gram."""
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    family = registry.build_family(cfg)
    spec = study._operator_spec(cfg, family)
    settings = [assemble_setting(spec, family, eps, **study._mesh_opts(cfg))
                for eps in study._schedule(cfg)]
    lam, _ = study._resolve_shift(cfg, settings)
    forms = []
    for setting in settings:
        ctx = context_from_setting(setting, lam)
        s = ctx.op.gram_h1
        eps = setting["meta"]["eps"]
        for label, g in (("G0", ctx.G0), ("Geps", ctx.Geps)):
            forms.append((f"{label} eps={eps:g}", g, s))
            forms.append((f"herm {label} eps={eps:g}",
                          norms._hermitian_part(g), s))
        forms.append((f"gram_h1 eps={eps:g}", s, s))
    return forms


@pytest.mark.parametrize("name", RESOLVENTS)
def test_shipped_bands_match_replaced_constructions(name):
    for label, form, gram in _shipped_forms(name):
        assert form.format == "dia", label
        assert diagonals(form)[0].tolist() == [-1, 0, 1], label
        assert csr_oracle.half_bandwidth(form) \
            == _old_half_bandwidth(form) == 1, label
        assert csr_oracle.half_bandwidth(form, gram) \
            == _old_half_bandwidth(form, gram) == 1, label
        band = _old_upper_band(form, 1)
        assert _same_bytes(norms._upper_band(form, 1), band), label
        assert _same_bytes(norms._upper_band(form), band), label
        solver = LinearSolver(form)
        bands, matrix_norm = _old_solver_bands(form)
        assert _same_bands(solver._bands, bands), label
        assert solver.matrix_norm.hex() == matrix_norm.hex(), label


def _same_band(form, mat):
    """A band form holds the bytes of the band read from a CSR matrix,
    at the same offsets."""
    offsets, data = csr_oracle.diagonals(mat)
    return (form.format == "dia" and form.shape == mat.shape
            and form.offsets.tolist() == offsets.tolist()
            and _same_bytes(form.data, data))


SETTING_MATRICES = ("base_form", "gram_h1", "gram_l2", "x_lim", "x_eps",
                    "x_dev")


def _setting_matrices(setting):
    op = setting["op"]
    return (op.base_form, op.gram_h1, op.gram_l2, setting["x_lim"],
            setting["x_eps"], setting["x_dev"])


@pytest.mark.parametrize("name", RESOLVENTS)
def test_row_matrices_match_diags_assembly(name, monkeypatch):
    # the first and last row of each shipped resolvent config, against the
    # old sp.diags assembly on the same real moments
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    family = registry.build_family(cfg)
    spec = study._operator_spec(cfg, family)
    schedule = study._schedule(cfg)
    for eps in (schedule[0], schedule[-1]):
        args = (spec, family, eps)
        opts = study._mesh_opts(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(csr_oracle, "tridiagonal_csr", _diags_csr)
            patch.setattr(fem, "assemble_base", csr_oracle.assemble_base)
            patch.setattr(fem, "assemble_perturbation",
                          _empty_start_perturbation)
            old = _setting_matrices(assemble_setting(*args, **opts))
        new = _setting_matrices(assemble_setting(*args, **opts))
        for key, got, want in zip(SETTING_MATRICES, new, old):
            label = f"{key} eps={eps:g}"
            assert want.dtype == np.float64, label
            assert _same_band(got, want), label


@pytest.mark.parametrize("name", RESOLVENTS)
def test_row_forms_and_decision_bands_are_real(name, monkeypatch):
    # the first and last row of each shipped resolvent config: its shift
    # search or fixed-shift check and both Lax-Milgram bounds factor only
    # real bands
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    family = registry.build_family(cfg)
    spec = study._operator_spec(cfg, family)
    schedule = study._schedule(cfg)
    settings = [assemble_setting(spec, family, eps, **study._mesh_opts(cfg))
                for eps in (schedule[0], schedule[-1])]
    dtypes = _factored_dtypes(monkeypatch)
    lam, _ = study._resolve_shift(cfg, settings)
    for setting in settings:
        ctx = context_from_setting(setting, lam)
        eps = setting["meta"]["eps"]
        mats = dict(zip(SETTING_MATRICES, _setting_matrices(setting)),
                    G0=ctx.G0, Geps=ctx.Geps)
        for key, mat in mats.items():
            assert mat.dtype == np.float64, f"{key} eps={eps:g}"
        # the product operands are complex, their entries real
        for key, mat in (("L", ctx.L), ("LH", ctx.LH)):
            assert mat.dtype == np.complex128, f"{key} eps={eps:g}"
            assert not mat.data.imag.any(), f"{key} eps={eps:g}"
        for which in ("base", "eps"):
            resolvent._lax_milgram_bound(ctx, which)
    assert dtypes == {np.dtype(float)}


def test_norm_study_perturbation_is_real():
    # the first and last row of sin_norm
    cfg = StudyConfig.load(CONFIGS / "sin_norm.cfg")
    family = registry.build_family(cfg)
    spec = study._operator_spec(cfg, family)
    schedule = study._schedule(cfg)
    for eps in (schedule[0], schedule[-1]):
        op, mesh = discretize(spec, family, eps, **study._mesh_opts(cfg))
        pert = assemble_triple(op.space, deviation_triple(family, eps),
                               mesh["refine"])
        assert pert.matrix.dtype == np.float64, f"eps={eps:g}"


def _pentadiagonal(outer):
    """A symmetric 6x6 pentadiagonal CSR matrix whose +-2 diagonals store
    the entries outer, zeros included; the tridiagonal part is nonzero."""
    n = 6
    dense = (np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1)
             + np.diag(np.full(n - 1, -1.0), -1))
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 3)):
            rows.append(i)
            cols.append(j)
            vals.append(outer[min(i, j)] if abs(i - j) == 2 else dense[i, j])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def test_half_bandwidth_counts_stored_nonzeros_only():
    zeros = _pentadiagonal([0.0, -0.0, 0.0, 0.0])
    assert zeros.nnz == 6 + 2 * 5 + 2 * 4  # the zeros are stored
    eye = sp.identity(6, format="csr")
    # a lone matrix and a pair read the same width: stored zeros do not
    # count, where the abs-sum route counted them for a lone matrix only
    half_bandwidth = csr_oracle.half_bandwidth
    assert half_bandwidth(zeros) == half_bandwidth(zeros, eye) == 1
    assert (_old_half_bandwidth(zeros), _old_half_bandwidth(zeros, eye)) \
        == (2, 1)
    some = _pentadiagonal([0.0, 0.5, 0.0, 0.0])
    assert half_bandwidth(some) == half_bandwidth(some, eye) == 2
    # a band form keeps the width of its nonzero diagonals: band_form
    # drops an outer pair that holds zeros only, of either sign
    data = diagonals(band(some), 2)[1]
    assert diagonals(band(some))[0].tolist() == [-2, -1, 0, 1, 2]
    data[[0, 4]] = -0.0
    form = band_form(data)
    assert form.offsets.tolist() == [-1, 0, 1]
    assert _same_bytes(form.data, diagonals(band(zeros))[1])


def test_diagonals_of_stored_zeros_are_positive_zeros():
    mat = _pentadiagonal([0.0, -0.0, 0.5, 0.0])
    for fmt in ("csr", "csc"):
        form = band(mat.asformat(fmt))
        offsets, data = diagonals(form)
        assert offsets.tolist() == [-2, -1, 0, 1, 2]
        assert data is form.data
        assert _same_bytes(data, sp.dia_matrix(mat.toarray()).data)
        # a stored -0.0 reads as +0.0, as the np.add.at route gave it
        assert not (np.signbit(data) & (data == 0)).any()
        offsets, data = diagonals(form, 3)
        assert offsets.tolist() == [-3, -2, -1, 0, 1, 2, 3]
        assert not data[[0, 6]].any()
        assert _same_bytes(data[1:6], form.data)
    form = band(mat)
    with pytest.raises(ValueError, match="outside half-bandwidth 1"):
        diagonals(form, 1)
    assert _same_bytes(norms._upper_band(form), _old_upper_band(mat, 2))
    # band_form stores every zero as +0.0, whatever sign the band held
    data = diagonals(form)[1].copy()
    data[data == 0] = -0.0
    got = band_form(data).data
    assert not (np.signbit(got) & (got == 0)).any()
    # a matrix whose data array is no band of offsets -u..u, increasing,
    # is refused
    upper = sp.dia_array((np.ones((2, 6)), [0, 1]), shape=(6, 6))
    for other in (mat, form.T, upper):
        with pytest.raises(TypeError, match="not a band form"):
            diagonals(other)


def test_stored_zero_diagonals_leave_solves_unchanged():
    # the solver skips the diagonals of stored zeros that DIA kept; with
    # the same LU, its refined solves keep every bit of the stacked
    # residual on all five old bands
    zeros = _pentadiagonal([0.0, -0.0, 0.0, 0.0])
    solver = LinearSolver(band(zeros))
    old = LinearSolver(band(zeros))
    old._bands, matrix_norm = _old_solver_bands(zeros)
    old.residual = lambda rhs, x: _old_dd_residual(old._bands, rhs, x)
    assert [band[2] for band in solver._bands] == [-1, 0, 1]
    assert [band[2] for band in old._bands] == [-2, -1, 0, 1, 2]
    assert _same_bands(solver._bands, old._bands[1:4])
    assert solver.matrix_norm == matrix_norm
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    for got, want in zip(solver.solve(b), old.solve(b)):
        assert _same_bytes(got, want)


def _loads(rng, n, k):
    """A complex block (n, k) with every sign of zero in it: its first
    column is all -0.0, and some real and imaginary parts are +-0.0."""
    b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    parts = b.view(float).reshape(n, k, 2)
    parts[rng.random(parts.shape) < 0.1] = 0.0
    parts[rng.random(parts.shape) < 0.1] = -0.0
    parts[:, 0] = -0.0
    return np.asfortranarray(b)


def _residual_cases(solver, rng, n):
    """(label, rhs, x) blocks laid out as solve and its callers pass them:
    column-contiguous at widths 1, 2 and 7, row-contiguous, and picked
    from a wider block by column indices, as solve's moved columns are."""
    for k in (1, 2, 7):
        b = _loads(rng, n, k)
        x = solver._lu_solve(b)
        # an iterate with zeros of both signs where the load has them
        x[b == 0] = b[b == 0]
        yield f"k={k}", b, x
        yield f"k={k} C-ordered", np.ascontiguousarray(b), \
            np.ascontiguousarray(x)
        cols = np.array([k - 1, 0])[:k]
        yield f"k={k} moved", b[:, cols], x[:, cols]


def _assert_residuals_match_stacked(solver, old_bands, rng, n, label):
    for case, b, x in _residual_cases(solver, rng, n):
        got = solver.residual(b, x)
        want = _old_dd_residual(old_bands, b, x)
        assert got.shape == want.shape == b.shape
        assert _same_bytes(got, want), f"{label} {case}"


@pytest.mark.parametrize("name", ["stabilizing_resolvent",
                                  "sign_resolvent"])
def test_interleaved_residual_matches_stacked(name):
    # G0 and Geps of the first and the last (finest) row
    forms = [(label, form) for label, form, _ in _shipped_forms(name)
             if label.startswith("G")]
    rng = np.random.default_rng(17)
    for label, form in forms[:2] + forms[-2:]:
        solver = LinearSolver(form)
        _assert_residuals_match_stacked(
            solver, _old_solver_bands(form)[0], rng, form.shape[0], label)


def test_interleaved_residual_matches_stacked_on_five_bands():
    # the nonsymmetric form of test_fem at offsets 0, +-1 and +-3
    rng = np.random.default_rng(23)
    n = 40
    form = band(_wide_banded(rng, n))
    solver = LinearSolver(form)
    assert [band[2] for band in solver._bands] == [-3, -1, 0, 1, 3]
    _assert_residuals_match_stacked(
        solver, _old_solver_bands(form)[0], rng, n, "five bands")


def _row_settings(name):
    """(cfg, new settings, CSR settings) of the first and last row of a
    shipped resolvent config."""
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    family = registry.build_family(cfg)
    spec = study._operator_spec(cfg, family)
    schedule = study._schedule(cfg)
    args = [(spec, family, eps) for eps in (schedule[0], schedule[-1])]
    opts = study._mesh_opts(cfg)
    return (cfg, [assemble_setting(*a, **opts) for a in args],
            [csr_oracle.csr_setting(assemble_setting, *a, **opts)
             for a in args])


def _products_match(form, mat, rng, label):
    """form @ x has the bits of the CSR product mat @ x, on a complex
    vector and on 3-column blocks in either memory order."""
    n = mat.shape[0]
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for case, x in (("vector", vec), ("block", block),
                    ("F block", np.asfortranarray(block))):
        got, want = form @ x, mat @ x
        assert _same_bytes(got, want), f"{label} {case}"


@pytest.mark.parametrize("name", RESOLVENTS)
def test_row_forms_match_csr_route(name):
    # the first and last row of each shipped resolvent config, against
    # the CSR assembly, sparse arithmetic and band readers they replaced
    cfg, news, olds = _row_settings(name)
    lam, _ = study._resolve_shift(cfg, news)
    tried = (csr_oracle.shifts_tried(lam)
             if cfg.get("operator.shift", None) == "auto" else [lam])
    rng = np.random.default_rng(29)
    for new, old in zip(news, olds):
        eps = new["meta"]["eps"]
        for key, got, want in zip(SETTING_MATRICES, _setting_matrices(new),
                                  _setting_matrices(old)):
            assert _same_band(got, want), f"{key} eps={eps:g}"
        # the Hermitian pencil band of both shifted forms, at every shift
        # the search tried or the fixed shift
        for shift in tried:
            for which, got, want in zip(
                    ("Geps", "G0"), shifted_forms(new, shift),
                    csr_oracle.shifted_forms(old, shift)):
                label = f"{which} eps={eps:g} shift={shift:g}"
                assert _same_band(got, want), label
                assert _same_bytes(
                    norms._upper_band(norms._hermitian_part(got)),
                    csr_oracle.upper_band(csr_oracle.hermitian_part(want))), \
                    label
        ctx = context_from_setting(new, lam)
        g_eps, g0 = csr_oracle.shifted_forms(old, lam)
        for which, form, mat in (("G0", ctx.G0, g0), ("Geps", ctx.Geps,
                                                       g_eps)):
            solver = LinearSolver(form)
            bands, matrix_norm = _old_solver_bands(mat)
            assert _same_bands(solver._bands, bands), f"{which} eps={eps:g}"
            assert solver.matrix_norm.hex() == matrix_norm.hex()
        # L and L^H: complex bands of the CSR difference and its adjoint,
        # and the bits of its products
        for which, form, mat in zip(("L", "LH"), (ctx.L, ctx.LH),
                                    csr_oracle.difference_forms(old, lam)):
            label = f"{which} eps={eps:g}"
            offsets, data = csr_oracle.diagonals(mat)
            assert form.offsets.tolist() == offsets.tolist(), label
            assert _same_bytes(form.data, data.astype(complex)), label
            _products_match(form, mat, rng, label)
        # the H1 factor every norm of the row reads
        gram = old["op"].gram_h1
        want = sla.cholesky_banded(
            csr_oracle.upper_band(gram).astype(complex), check_finite=False)
        assert _same_bytes(Space(ctx.op.gram_h1)._band, want), f"eps={eps:g}"


@pytest.mark.parametrize("name", AUTO_SHIFT)
def test_find_lambda_band_route_matches_csr_route(name, monkeypatch):
    # the whole search of an auto-shift config: c4 and every per-form c
    # keep their bits when the pencils are CSR matrices bisected on the
    # bands read from them
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    family = registry.build_family(cfg)
    spec = study._operator_spec(cfg, family)
    opts = study._mesh_opts(cfg)
    news, olds = [], []
    for eps in study._schedule(cfg):
        news.append(assemble_setting(spec, family, eps, **opts))
        olds.append(csr_oracle.csr_setting(assemble_setting, spec, family,
                                           eps, **opts))
    rep = find_lambda(lambda lam: [
        (norms._hermitian_part(G), s["op"].gram_h1)
        for s in news for G in shifted_forms(s, lam)])
    monkeypatch.setattr(norms, "smallest_eigenvalue",
                        lambda H, S: (csr_oracle.bisection(H, S), None))
    old = find_lambda(lambda lam: [
        (csr_oracle.hermitian_part(G), s["op"].gram_h1)
        for s in olds for G in csr_oracle.shifted_forms(s, lam)])
    assert rep.lambda0 == old.lambda0
    assert rep.c4.hex() == old.c4.hex()
    assert [c.hex() for c in rep.per_eps] == [c.hex() for c in old.per_eps]
