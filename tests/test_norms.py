"""Induced norms against dense full-spectrum oracles (dim <= 40)."""

import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from homlab import registry, study
from homlab.config import StudyConfig
from homlab.fem import NumericalBreach, assemble_base, \
    assemble_perturbation, build_mesh, default_operator
from homlab.fields import constant_field, gram_field, interval, \
    matrix_field, scalar_field
from homlab.norms import (
    CoercivityError,
    Space,
    find_lambda,
    induced_norm,
    kappa,
    norm_m10,
    norm_m1m1,
    norm_v_to_vstar,
    smallest_eigenvalue,
)
from homlab.resolvent import assemble_setting

UNIT = interval(0.0, 1.0)


def random_spd(rng, n, shift=None):
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return c.conj().T @ c + (shift if shift is not None else n) * np.eye(n)


def dense_v_to_vstar(x, s):
    """Largest singular value of S^{-1/2} X S^{-1/2}."""
    w, u = np.linalg.eigh(s)
    s_half_inv = (u / np.sqrt(w)) @ u.conj().T
    return float(np.linalg.svd(s_half_inv @ x @ s_half_inv, compute_uv=False)[0])


# ------------------------------------------------------------ closed forms

def test_gram_as_operator_has_unit_norm():
    rng = np.random.default_rng(0)
    s = random_spd(rng, 17)
    rep = norm_v_to_vstar(sp.csr_matrix(s), sp.csr_matrix(s))
    assert rep.value == pytest.approx(1.0, rel=1e-9)
    assert not rep.flagged


def test_scaled_gram_norm_is_scale():
    rng = np.random.default_rng(1)
    s = random_spd(rng, 12)
    for c in (-2.5, 3.0j):
        rep = norm_v_to_vstar(sp.csr_matrix(c * s), sp.csr_matrix(s))
        assert rep.value == pytest.approx(abs(c), rel=1e-9)


def test_identity_between_l2_metrics():
    rng = np.random.default_rng(2)
    m = random_spd(rng, 9)
    space = Space(sp.csr_matrix(m))
    rep = induced_norm(lambda v: v, lambda v: v, space, space)
    assert rep.value == pytest.approx(1.0, rel=1e-9)


# ------------------------------------------------------------ dense oracles

@pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
def test_form_norm_matches_dense_oracle(n):
    rng = np.random.default_rng(100 + n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = random_spd(rng, n)
    rep = norm_v_to_vstar(sp.csr_matrix(x), sp.csr_matrix(s))
    assert rep.value == pytest.approx(dense_v_to_vstar(x, s), rel=2e-8)
    assert rep.method["residual"] <= 1e-8 * rep.value + 1e-13


def test_norm_report_invariants():
    rng = np.random.default_rng(4)
    n = 21
    x = rng.standard_normal((n, n))
    s = random_spd(rng, n)
    rep = norm_v_to_vstar(sp.csr_matrix(x), sp.csr_matrix(s))
    assert rep.method["iterations"] >= 1
    assert rep.method["converged"] in ("residual", "max_iter", "zero")
    assert rep.matrices_involved == ("form", "gram_h1")


def test_unconverged_lanczos_is_flagged(monkeypatch):
    # a top cluster 1e-9 wide cannot be resolved in one Lanczos restart
    from homlab import norms
    monkeypatch.setattr(norms, "eigsh", functools.partial(spla.eigsh,
                                                          maxiter=1))
    n = 200
    x = sp.diags(1.0 - np.logspace(-9, -1, n)).tocsr()
    rep = norm_v_to_vstar(x, sp.identity(n, format="csr"))
    assert rep.flagged
    assert rep.method["converged"] == "max_iter"
    assert 0.9 < rep.value <= 1.0


def test_zero_form_reports_zero():
    rng = np.random.default_rng(5)
    s = random_spd(rng, 8)
    rep = norm_v_to_vstar(sp.csr_matrix((8, 8), dtype=complex),
                          sp.csr_matrix(s))
    assert rep.value == 0.0
    assert rep.method["converged"] == "zero"


def test_homogeneity_and_triangle_inequality():
    rng = np.random.default_rng(6)
    n = 15
    s = random_spd(rng, n)
    ssp = sp.csr_matrix(s)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    nx = norm_v_to_vstar(sp.csr_matrix(x), ssp).value
    ny = norm_v_to_vstar(sp.csr_matrix(y), ssp).value
    nxy = norm_v_to_vstar(sp.csr_matrix(x + y), ssp).value
    assert norm_v_to_vstar(sp.csr_matrix(-3.5 * x), ssp).value == \
        pytest.approx(3.5 * nx, rel=1e-8)
    assert nxy <= nx + ny + 1e-8 * (nx + ny)


# ------------------------------------------------------------ kappa

def test_kappa_of_identical_solvers_is_zero():
    rng = np.random.default_rng(7)
    n = 6
    a = random_spd(rng, n)
    s = random_spd(rng, n)
    inv = np.linalg.inv(a)
    solve = lambda f, adjoint=False: (inv.conj().T if adjoint else inv) @ f
    rep = kappa(solve, solve, a - a, sp.csr_matrix(s))
    assert rep.value == 0.0


def test_kappa_spd_pair_matches_dense_oracle():
    rng = np.random.default_rng(8)
    n = 5
    a = random_spd(rng, n).real
    b = random_spd(rng, n).real
    s = random_spd(rng, n).real
    d = np.linalg.inv(a) - np.linalg.inv(b)
    w, u = np.linalg.eigh(s)
    s_half = (u * np.sqrt(w)) @ u.T
    expect = float(np.abs(np.linalg.eigvalsh(s_half @ d @ s_half)).max())
    ia, ib = np.linalg.inv(a), np.linalg.inv(b)
    rep = kappa(
        lambda f, adjoint=False: (ia.conj().T if adjoint else ia) @ f,
        lambda f, adjoint=False: (ib.conj().T if adjoint else ib) @ f,
        a - b, sp.csr_matrix(s))
    assert rep.value == pytest.approx(expect, rel=2e-8)


def test_kappa_general_complex_matches_dense_oracle():
    rng = np.random.default_rng(9)
    n = 12
    a = random_spd(rng, n) + 1j * rng.standard_normal((n, n))
    b = random_spd(rng, n) + 1j * rng.standard_normal((n, n))
    s = random_spd(rng, n).real
    d = np.linalg.inv(a) - np.linalg.inv(b)
    # norm^2 is the top eigenvalue of S D^H S D
    expect = math.sqrt(float(np.linalg.eigvals(s @ d.conj().T @ s @ d)
                             .real.max()))
    ia, ib = np.linalg.inv(a), np.linalg.inv(b)
    rep = kappa(
        lambda f, adjoint=False: (ia.conj().T if adjoint else ia) @ f,
        lambda f, adjoint=False: (ib.conj().T if adjoint else ib) @ f,
        a - b, sp.csr_matrix(s))
    assert rep.value == pytest.approx(expect, rel=2e-8)


# ------------------------------------------------------------ fe form norms

def test_potential_form_norm_matches_dense_pencil():
    mesh = build_mesh(UNIT, 24)
    op = assemble_base(default_operator(UNIT), mesh)
    v = scalar_field(1, lambda x: 1.0 + 0.5 * np.sin(7.0 * x[..., 0]), 1.5,
                     UNIT)
    rep = norm_m1m1(op, v, refine=4)
    pert = assemble_perturbation(op.space, v=v, refine=4)
    expect = dense_v_to_vstar(pert.matrix.toarray(), op.gram_h1.toarray())
    assert rep.value == pytest.approx(expect, rel=2e-8)


def test_weight_norm_matches_dense_pencil():
    mesh = build_mesh(UNIT, 24)
    op = assemble_base(default_operator(UNIT), mesh)
    q = scalar_field(1, lambda x: np.cos(5.0 * x[..., 0]), 1.0, UNIT)
    rep = norm_m10(op, q, refine=4)
    w = assemble_perturbation(op.space, v=gram_field(q), refine=4)
    top = sla.eigh(w.matrix.toarray(), op.gram_h1.toarray(),
                   eigvals_only=True)[-1]
    assert rep.value == pytest.approx(math.sqrt(top), rel=2e-8)


def test_constant_weight_m10_vs_mass_pencil():
    # |c u|_L2 / |u|_V peaks at the smallest pencil eigenvalue of (K, M)
    mesh = build_mesh(UNIT, 32)
    op = assemble_base(default_operator(UNIT), mesh)
    q = constant_field(1, 2.0 * np.eye(1), UNIT)
    rep = norm_m10(op, q)
    k = (op.gram_h1 - op.gram_l2).toarray()
    lam_min = sla.eigh(k, op.gram_l2.toarray(), eigvals_only=True)[0]
    assert rep.value == pytest.approx(2.0 / math.sqrt(1.0 + lam_min),
                                      rel=1e-8)


# ------------------------------------------------------------ inequality suite

def _random_trig_matrix_field(rng, n):
    coef = rng.standard_normal((3, n, n)) / 3.0
    freq = rng.integers(1, 9, 3).astype(float)

    def f(pts):
        x = pts[..., 0]
        out = np.zeros(x.shape + (n, n))
        for c, k in zip(coef, freq):
            out = out + np.cos(2.0 * np.pi * k * x)[..., None, None] * c
        return out

    return matrix_field(1, n, f, sup_bound=float(np.abs(coef).sum()),
                        domain=UNIT)


@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_multiplier_chain_bound_on_random_triples(ncomp):
    rng = np.random.default_rng(40 + ncomp)
    mesh = build_mesh(UNIT, 96)
    op = assemble_base(default_operator(UNIT, ncomp=ncomp), mesh)
    for trial in range(3):
        q = _random_trig_matrix_field(rng, ncomp)
        p = _random_trig_matrix_field(rng, ncomp)
        v = _random_trig_matrix_field(rng, ncomp)
        pert = assemble_perturbation(op.space, q=(q,), p=(p,), v=v, refine=4)
        full = norm_v_to_vstar(pert.matrix, op.gram_h1).value
        bound = (math.sqrt(ncomp) * norm_m10(op, q, 4).value
                 + norm_m10(op, p, 4).value
                 + norm_m1m1(op, v, 4).value)
        assert full <= bound * (1.0 + 1e-8) + 1e-12


@pytest.mark.parametrize("ncomp", [2, 3])
def test_adjoint_weight_bound(ncomp):
    from homlab.fields import adjoint_field
    rng = np.random.default_rng(50 + ncomp)
    mesh = build_mesh(UNIT, 96)
    op = assemble_base(default_operator(UNIT, ncomp=ncomp), mesh)
    for trial in range(3):
        q = _random_trig_matrix_field(rng, ncomp)
        nq = norm_m10(op, q, 4).value
        nqa = norm_m10(op, adjoint_field(q), 4).value
        assert nqa <= math.sqrt(ncomp) * nq * (1.0 + 1e-8) + 1e-12


def test_form_norm_below_weight_norm_below_sup():
    # the potential chain: dual-pairing norm <= product norm <= sup bound
    mesh = build_mesh(UNIT, 128)
    op = assemble_base(default_operator(UNIT), mesh)
    v = scalar_field(1, lambda x: np.sin(x[..., 0] / 0.05), 1.0, UNIT)
    m1m1 = norm_m1m1(op, v, 8).value
    m10 = norm_m10(op, v, 8).value
    assert m1m1 <= m10 * (1.0 + 1e-8)
    assert m10 <= 1.0 * (1.0 + 1e-8)


# ------------------------------------------------------------ eigen bounds

def test_smallest_eigenvalue_matches_dense():
    rng = np.random.default_rng(12)
    n = 30
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2.0
    s = random_spd(rng, n)
    got = smallest_eigenvalue(sp.csr_matrix(h), sp.csr_matrix(s))
    expect = float(sla.eigh(h, s, eigvals_only=True)[0])
    assert got == pytest.approx(expect, rel=1e-7, abs=1e-9)


def test_find_lambda_immediate_acceptance():
    mesh = build_mesh(UNIT, 16)
    op = assemble_base(default_operator(UNIT), mesh)
    k = (op.gram_h1 - op.gram_l2).tocsr()
    rep = find_lambda([k], [op.gram_l2], [op.gram_h1])
    assert rep.lambda0 == -1.0
    # candidate form K + M equals the H1 gram, so c4 is exactly 1
    assert rep.c4 == pytest.approx(1.0, rel=1e-7)
    assert rep.cone_check["sampled_min_ratio"] >= rep.c4 * (1 - 1e-8)


def test_find_lambda_doubles_until_coercive():
    mesh = build_mesh(UNIT, 16)
    op = assemble_base(default_operator(UNIT), mesh)
    k = (op.gram_h1 - op.gram_l2).tocsr()
    form = (k - 15.0 * op.gram_l2).tocsr()
    rep = find_lambda([form], [op.gram_l2], [op.gram_h1])
    assert rep.lambda0 == -8.0
    h = (k - 7.0 * op.gram_l2).toarray()
    expect = float(sla.eigh(h, op.gram_h1.toarray(), eigvals_only=True)[0])
    assert rep.c4 == pytest.approx(expect, rel=1e-7)
    assert len(rep.per_eps) == 1


def test_find_lambda_gives_up_at_abort_threshold():
    mesh = build_mesh(UNIT, 16)
    op = assemble_base(default_operator(UNIT), mesh)
    k = (op.gram_h1 - op.gram_l2).tocsr()
    form = (k - 1e7 * op.gram_l2).tocsr()
    with pytest.raises(CoercivityError):
        find_lambda([form], [op.gram_l2], [op.gram_h1], lambda_abort=-1e3)


def test_find_lambda_rejects_nonnegative_start():
    with pytest.raises(ValueError):
        find_lambda([], [], [], lambda_start=0.5)


# ------------------------------------------------------------ bound direction

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _shift_search_forms(config, schedule):
    """The forms, masses and Grams an auto-shift study hands find_lambda."""
    cfg = StudyConfig.load(CONFIGS / f"{config}.cfg")
    family = registry.build_family(cfg)
    spec = study._operator_spec(cfg, family)
    forms, masses, grams = [], [], []
    for eps in schedule:
        setting = assemble_setting(spec, family, eps, **study._mesh_opts(cfg))
        op = setting["op"]
        for x in (setting["x_eps"], setting["x_lim"]):
            forms.append((op.base_form + x).tocsr())
            masses.append(op.gram_l2)
            grams.append(op.gram_h1)
    return forms, masses, grams


def _dense_lambda_mins(forms, masses, grams, lam):
    """Smallest pencil eigenvalue of each shifted form, by dense eigh."""
    lows = []
    for g, m, s in zip(forms, masses, grams):
        a = (g - lam * m).toarray()
        herm = 0.5 * (a + a.conj().T)
        if not herm.imag.any():
            herm = herm.real
        lows.append(float(sla.eigh(herm, s.toarray(), eigvals_only=True,
                                   subset_by_index=[0, 0])[0]))
    return lows


def test_find_lambda_c4_is_a_lower_bound():
    forms, masses, grams = _shift_search_forms(
        "stabilizing_resolvent", (0.1, 0.05, 0.025))
    rep = find_lambda(forms, masses, grams)
    expect = _dense_lambda_mins(forms, masses, grams, rep.lambda0)
    for got, low in zip(rep.per_eps, expect):
        assert got <= low * (1 + 1e-10)
    assert rep.c4 <= min(expect) * (1 + 1e-10)
    assert rep.c4 == pytest.approx(min(expect), rel=1e-10)


@pytest.mark.parametrize("seed", [1, 7])
def test_find_lambda_random_rotation_passes_cone_check(seed):
    forms, masses, grams = _shift_search_forms("random_resolvent", (0.1,))
    assert forms[0].shape[0] == 226
    rep = find_lambda(forms, masses, grams, seed=seed)
    expect = min(_dense_lambda_mins(forms, masses, grams, rep.lambda0))
    assert rep.c4 == pytest.approx(expect, rel=1e-10)
    assert rep.cone_check["sampled_min_ratio"] >= rep.c4


@pytest.mark.parametrize("ncomp, bc", [(2, "dirichlet"), (1, "robin")])
def test_smallest_eigenvalue_on_banded_forms(ncomp, bc):
    rng = np.random.default_rng(60 + ncomp)
    spec = dataclasses.replace(
        default_operator(UNIT, ncomp=ncomp, bc=bc),
        k_lower=-0.7 * np.eye(ncomp), k_upper=(2.0 + 1.0j) * np.eye(ncomp))
    op = assemble_base(spec, build_mesh(UNIT, 48))
    q = _random_trig_matrix_field(rng, ncomp)
    v = _random_trig_matrix_field(rng, ncomp)
    pert = assemble_perturbation(op.space, q=(q,), v=v, refine=4)
    g = (op.base_form + pert.matrix).tocsr()
    h = ((g + g.getH()) * 0.5).tocsr()
    got = smallest_eigenvalue(h, op.gram_h1)
    expect = float(sla.eigh(h.toarray(), op.gram_h1.toarray(),
                            eigvals_only=True)[0])
    assert got <= expect + 1e-10 * abs(expect)
    assert got == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("s", [[[0.0, 0.0], [0.0, 1.0]],
                               [[1.0, 2.0], [2.0, 1.0]]])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_smallest_eigenvalue_rejects_indefinite_gram(s):
    # no shift c makes H - c S positive definite, so the downward steps
    # run until the shift overflows
    h = sp.csr_matrix(np.diag([-1.0, 1.0]))
    with pytest.raises(NumericalBreach):
        smallest_eigenvalue(h, sp.csr_matrix(np.array(s)))

