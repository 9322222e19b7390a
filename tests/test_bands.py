"""Band storage read from stored diagonals, against the constructions it
replaced.

fem.diagonals is the one place a band is read from a sparse matrix: the
solver's split diagonals and |A|_inf, and the Cholesky band of a Gram
or a pencil.  The constructions below (DIA conversion; abs-sum, triu,
COO and np.add.at) are the ones they replaced, kept as the oracle: on
every form the shipped resolvent configs build, the new bands must hold
the same bytes.  So is the sp.diags(..., format="csr") assembly that
fem._form_matrix replaced: the matrices a resolvent row assembles must
hold the same CSR arrays.
"""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from homlab import fem, norms, registry, study
from homlab.config import StudyConfig
from homlab.fem import (LinearSolver, _element_moments, _split, diagonals,
                        half_bandwidth)
from homlab.resolvent import assemble_setting, context_from_setting

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RESOLVENTS = sorted(p.stem for p in CONFIGS.glob("*_resolvent.cfg"))


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
    """A form matrix as fem._form_matrix built it: all six element
    moments, and the three diagonals through sp.diags(..., format="csr")."""
    h = mesh.h
    d = (-1.0 / h, 1.0 / h)
    m = _element_moments(coef, mesh, refine,
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


def _empty_start_perturbation(space, v, refine, q=(), p=()):
    """fem.assemble_perturbation as it summed: from an empty complex CSR,
    one sparse add a term, each term from _diags_form_matrix."""
    mesh = space.mesh
    terms = ([(qf, "plus") for qf in q] + [(pf, "minus") for pf in p]
             + [(v, "mass")])
    dof = mesh.n_elements - 1
    total = sp.csr_matrix((dof, dof), dtype=complex)
    for field_, term in terms:
        total = total + _diags_form_matrix(mesh, field_, term, refine)
    return fem.PerturbationMatrix(total)


def _same_bytes(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _same_bands(new, old):
    return len(new) == len(old) and all(
        (j0, j1, off) == (k0, k1, koff)
        and all(_same_bytes(x, y) for x, y in zip(parts, kparts))
        for (j0, j1, off, parts), (k0, k1, koff, kparts) in zip(new, old))


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
        assert half_bandwidth(form) == _old_half_bandwidth(form) == 1, label
        assert half_bandwidth(form, gram) \
            == _old_half_bandwidth(form, gram) == 1, label
        band = _old_upper_band(form, 1)
        assert _same_bytes(norms._upper_band(form, 1), band), label
        assert _same_bytes(norms._upper_band(form), band), label
        solver = LinearSolver(form)
        bands, matrix_norm = _old_solver_bands(form)
        assert _same_bands(solver._bands, bands), label
        assert solver.matrix_norm.hex() == matrix_norm.hex(), label


def _same_csr(a, b):
    return (a.shape == b.shape
            and all(_same_bytes(getattr(a, k), getattr(b, k))
                    for k in ("indptr", "indices", "data")))


SETTING_MATRICES = ("base_form", "gram_h1", "gram_l2", "x_lim", "x_eps",
                    "x_dev")


def _setting_matrices(setting):
    op = setting["op"]
    return (op.base_form, op.gram_h1, op.gram_l2, setting["x_lim"],
            setting["x_eps"], setting["x_dev"])


@pytest.mark.parametrize("name", RESOLVENTS)
def test_row_matrices_match_diags_assembly(name, monkeypatch):
    # the first and last row of each shipped resolvent config
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    family = registry.build_family(cfg)
    spec = study._operator_spec(cfg, family)
    schedule = study._schedule(cfg)
    for eps in (schedule[0], schedule[-1]):
        args = (spec, family, eps)
        opts = study._mesh_opts(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(fem, "_form_matrix", _diags_form_matrix)
            patch.setattr(fem, "assemble_perturbation",
                          _empty_start_perturbation)
            old = _setting_matrices(assemble_setting(*args, **opts))
        new = _setting_matrices(assemble_setting(*args, **opts))
        for key, got, want in zip(SETTING_MATRICES, new, old):
            assert _same_csr(got, want), f"{key} eps={eps:g}"


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
    assert half_bandwidth(zeros) == half_bandwidth(zeros, eye) == 1
    assert (_old_half_bandwidth(zeros), _old_half_bandwidth(zeros, eye)) \
        == (2, 1)
    some = _pentadiagonal([0.0, 0.5, 0.0, 0.0])
    assert half_bandwidth(some) == half_bandwidth(some, eye) == 2


def test_diagonals_of_stored_zeros_are_positive_zeros():
    mat = _pentadiagonal([0.0, -0.0, 0.5, 0.0])
    for fmt in ("csr", "csc"):
        offsets, data = diagonals(mat.asformat(fmt))
        assert offsets.tolist() == [-2, -1, 0, 1, 2]
        assert _same_bytes(data, sp.dia_matrix(mat.toarray()).data)
        # a stored -0.0 reads as +0.0, as the np.add.at route gave it
        assert not (np.signbit(data) & (data == 0)).any()
        offsets, data = diagonals(mat.asformat(fmt), 3)
        assert offsets.tolist() == [-3, -2, -1, 0, 1, 2, 3]
        assert not data[[0, 6]].any()
    with pytest.raises(ValueError, match="outside half-bandwidth 1"):
        diagonals(mat, 1)
    assert _same_bytes(norms._upper_band(mat), _old_upper_band(mat, 2))


def test_stored_zero_diagonals_leave_solves_unchanged():
    # the solver skips the diagonals of stored zeros that DIA kept; with
    # the same LU, its refined solves keep every bit
    zeros = _pentadiagonal([0.0, -0.0, 0.0, 0.0])
    solver = LinearSolver(zeros)
    old = LinearSolver(zeros)
    old._bands, matrix_norm = _old_solver_bands(zeros)
    assert [band[2] for band in solver._bands] == [-1, 0, 1]
    assert [band[2] for band in old._bands] == [-2, -1, 0, 1, 2]
    assert solver.matrix_norm == matrix_norm
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    for got, want in zip(solver.solve(b), old.solve(b)):
        assert _same_bytes(got, want)
