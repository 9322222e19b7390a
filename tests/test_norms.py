"""Induced norms against dense full-spectrum oracles (dim <= 40)."""

import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigs

from homlab import registry, study
from homlab.config import StudyConfig
from homlab import norms
from homlab.fem import LinearSolver, NumericalBreach, OperatorSpec, \
    assemble_base, assemble_perturbation, build_mesh, half_bandwidth
from homlab.fields import Box, CoefficientField, constant_field, gram_field
from homlab.norms import (
    CoercivityError,
    Space,
    find_lambda,
    induced_norm,
    norm_m10,
    norm_m1m1,
    norm_v_to_vstar,
    smallest_eigenvalue,
)
from homlab.resolvent import (ResolventContext, assemble_setting,
                               truncation_error_norm)

UNIT = Box((0.0,), (1.0,))


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
    rep = norm_v_to_vstar(sp.csr_matrix(s), Space(sp.csr_matrix(s)), seed=1234)
    assert rep.value == pytest.approx(1.0, rel=1e-9)
    assert not rep.flagged


def test_scaled_gram_norm_is_scale():
    rng = np.random.default_rng(1)
    s = random_spd(rng, 12)
    for c in (-2.5, 3.0j):
        rep = norm_v_to_vstar(sp.csr_matrix(c * s),
                              Space(sp.csr_matrix(s)), seed=1234)
        assert rep.value == pytest.approx(abs(c), rel=1e-9)


def test_identity_between_l2_metrics():
    rng = np.random.default_rng(2)
    m = random_spd(rng, 9)
    space = Space(sp.csr_matrix(m))
    rep = induced_norm(lambda v: v, lambda v: v, space, space, seed=1234)
    assert rep.value == pytest.approx(1.0, rel=1e-9)


# ------------------------------------------------------------ dense oracles

@pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
def test_form_norm_matches_dense_oracle(n):
    rng = np.random.default_rng(100 + n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = random_spd(rng, n)
    rep = norm_v_to_vstar(sp.csr_matrix(x), Space(sp.csr_matrix(s)), seed=1234)
    assert rep.value == pytest.approx(dense_v_to_vstar(x, s), rel=2e-8)
    assert rep.method["residual"] <= 1e-8 * rep.value + 1e-13


def test_norm_report_invariants():
    rng = np.random.default_rng(4)
    n = 21
    x = rng.standard_normal((n, n))
    s = random_spd(rng, n)
    rep = norm_v_to_vstar(sp.csr_matrix(x), Space(sp.csr_matrix(s)), seed=1234)
    assert rep.method["iterations"] >= 1
    assert rep.method["converged"] in ("residual", "max_iter", "zero")


def _clustered_form(n=200):
    # diagonal form whose top values lie within 1e-9 of each other
    return sp.diags(1.0 - np.logspace(-9, -1, n)).tocsr()


def test_unconverged_lanczos_is_flagged(monkeypatch):
    # a top cluster 1e-9 wide cannot be resolved in one Lanczos restart
    monkeypatch.setattr(norms, "LANCZOS_MAXITER", 1)
    rep = norm_v_to_vstar(_clustered_form(),
                          Space(sp.identity(200, format="csr")), seed=1234)
    assert rep.flagged
    assert rep.method["converged"] == "max_iter"
    assert 0.9 < rep.value <= 1.0


def test_lanczos_restarts_are_capped():
    # ARPACK's own default (10 * dim restarts) took 40042 applications
    rep = norm_v_to_vstar(_clustered_form(),
                          Space(sp.identity(200, format="csr")), seed=1234)
    assert rep.flagged
    assert rep.method["converged"] == "max_iter"
    # every restart refills the basis, then the explicit residual
    cap = norms.LANCZOS_NCV * (norms.LANCZOS_MAXITER + 1) + 1
    assert rep.method["iterations"] <= cap


def test_easy_form_norm_stops_at_first_check():
    mesh = build_mesh(UNIT, 64)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    v = CoefficientField(1, lambda x: np.sin(x[..., 0] / 0.05), 1.0)
    x = assemble_perturbation(op.space, v, 4).matrix
    rep = norm_v_to_vstar(x, Space(op.gram_h1), seed=1234)
    assert op.dof > norms.LANCZOS_NCV
    # one full basis, one more application and the explicit residual
    assert rep.method["iterations"] <= norms.LANCZOS_NCV + 2
    assert rep.value == pytest.approx(
        dense_v_to_vstar(x.toarray(), op.gram_h1.toarray()), rel=2e-8)
    assert not rep.flagged


def _close_top_form(n=200):
    # diagonal form whose two top values lie 1e-4 apart: too close for the
    # first check, resolved by restarts of the same basis
    return sp.diags(np.r_[1.0, 1.0 - 1e-4, np.linspace(0.9, 0.1, n - 2)]) \
        .tocsr()


def test_close_top_restarts_and_matches_dense():
    x, s = _close_top_form(), sp.identity(200, format="csr")
    rep = norm_v_to_vstar(x, Space(s), seed=1234)
    # more than one full basis: Lanczos restarted
    assert rep.method["iterations"] > norms.LANCZOS_NCV + 2
    assert rep.method["converged"] == "residual"
    assert not rep.flagged
    assert rep.value == pytest.approx(
        dense_v_to_vstar(x.toarray(), s.toarray()), rel=2e-8)


def test_norm_is_the_single_lanczos_call():
    # the same v0, basis, tolerance, restart cap and restart generator
    x, seed = _close_top_form(), 1234
    xh = x.getH().tocsr()
    rep = norm_v_to_vstar(x, Space(sp.identity(200, format="csr")),
                          seed=seed)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    op = LinearOperator((200, 200), matvec=lambda v: xh @ (x @ v),
                        dtype=complex)
    w, _ = eigs(op, k=1, which="LR", v0=v0, ncv=norms.LANCZOS_NCV,
                tol=1e-10, maxiter=norms.LANCZOS_MAXITER,
                rng=np.random.default_rng(seed))
    assert rep.value == math.sqrt(w[0].real)


def test_zero_form_reports_zero():
    rng = np.random.default_rng(5)
    s = random_spd(rng, 8)
    rep = norm_v_to_vstar(sp.csr_matrix((8, 8), dtype=complex),
                          Space(sp.csr_matrix(s)), seed=1234)
    assert rep.value == 0.0
    assert rep.method["converged"] == "zero"


def test_homogeneity_and_triangle_inequality():
    rng = np.random.default_rng(6)
    n = 15
    s = random_spd(rng, n)
    ssp = Space(sp.csr_matrix(s))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    nx = norm_v_to_vstar(sp.csr_matrix(x), ssp, seed=1234).value
    ny = norm_v_to_vstar(sp.csr_matrix(y), ssp, seed=1234).value
    nxy = norm_v_to_vstar(sp.csr_matrix(x + y), ssp, seed=1234).value
    assert norm_v_to_vstar(sp.csr_matrix(-3.5 * x), ssp, seed=1234).value == \
        pytest.approx(3.5 * nx, rel=1e-8)
    assert nxy <= nx + ny + 1e-8 * (nx + ny)


# ------------------------------------------------------------ kappa

def kappa(geps, g0, s):
    """|R_eps - R_0| from the dual space into H1, as the resolvent studies
    measure it: the order-0 series remainder of a context of two forms."""
    geps, g0 = sp.csr_matrix(geps), sp.csr_matrix(g0)
    ell = (geps - g0).tocsr()
    ctx = ResolventContext(
        op=SimpleNamespace(gram_h1=sp.csr_matrix(s)), G0=g0, Geps=geps,
        L=ell, LH=ell.getH().tocsr(), solver0=LinearSolver(g0),
        solver_eps=LinearSolver(geps), meta={})
    return truncation_error_norm(ctx, 0, seed=1234)


def test_kappa_of_identical_solvers_is_zero():
    rng = np.random.default_rng(7)
    n = 6
    a = random_spd(rng, n).real
    s = random_spd(rng, n)
    rep = kappa(a, a, s)
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
    rep = kappa(a, b, s)
    assert rep.value == pytest.approx(expect, rel=2e-8)


def test_kappa_general_complex_matches_dense_oracle():
    # nonsymmetric real forms, measured over complex vectors
    rng = np.random.default_rng(9)
    n = 12
    a = random_spd(rng, n).real + rng.standard_normal((n, n))
    b = random_spd(rng, n).real + rng.standard_normal((n, n))
    s = random_spd(rng, n).real
    d = np.linalg.inv(a) - np.linalg.inv(b)
    # norm^2 is the top eigenvalue of S D^H S D
    expect = math.sqrt(float(np.linalg.eigvals(s @ d.conj().T @ s @ d)
                             .real.max()))
    rep = kappa(a, b, s)
    assert rep.value == pytest.approx(expect, rel=2e-8)


# ------------------------------------------------------------ fe form norms

def test_potential_form_norm_matches_dense_pencil():
    mesh = build_mesh(UNIT, 24)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    v = CoefficientField(1, lambda x: 1.0 + 0.5 * np.sin(7.0 * x[..., 0]),
                         1.5)
    rep = norm_m1m1(op, v, Space(op.gram_h1), refine=4, seed=1234)
    pert = assemble_perturbation(op.space, v, 4)
    expect = dense_v_to_vstar(pert.matrix.toarray(), op.gram_h1.toarray())
    assert rep.value == pytest.approx(expect, rel=2e-8)


def test_weight_norm_matches_dense_pencil():
    mesh = build_mesh(UNIT, 24)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    q = CoefficientField(1, lambda x: np.cos(5.0 * x[..., 0]), 1.0)
    rep = norm_m10(op, q, Space(op.gram_h1), refine=4, seed=1234)
    w = assemble_perturbation(op.space, gram_field(q), 4)
    top = sla.eigh(w.matrix.toarray(), op.gram_h1.toarray(),
                   eigvals_only=True)[-1]
    assert rep.value == pytest.approx(math.sqrt(top), rel=2e-8)


def test_constant_weight_m10_vs_mass_pencil():
    # |c u|_L2 / |u|_V peaks at the smallest pencil eigenvalue of (K, M)
    mesh = build_mesh(UNIT, 32)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    q = constant_field(1, 2.0)
    rep = norm_m10(op, q, Space(op.gram_h1), refine=1, seed=1234)
    k = (op.gram_h1 - op.gram_l2).toarray()
    lam_min = sla.eigh(k, op.gram_l2.toarray(), eigvals_only=True)[0]
    assert rep.value == pytest.approx(2.0 / math.sqrt(1.0 + lam_min),
                                      rel=1e-8)


# ------------------------------------------------------------ inequality suite

def _random_trig_field(rng):
    coef = rng.standard_normal(3) / 3.0
    freq = rng.integers(1, 9, 3).astype(float)

    def f(pts):
        x = pts[..., 0]
        out = np.zeros(x.shape)
        for c, k in zip(coef, freq):
            out = out + np.cos(2.0 * np.pi * k * x) * c
        return out

    return CoefficientField(1, f, sup_bound=float(np.abs(coef).sum()))


@pytest.mark.parametrize("draw", [1, 2, 3])
def test_multiplier_chain_bound_on_random_triples(draw):
    rng = np.random.default_rng(40 + draw)
    mesh = build_mesh(UNIT, 96)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    h1 = Space(op.gram_h1)
    for trial in range(3):
        q = _random_trig_field(rng)
        p = _random_trig_field(rng)
        v = _random_trig_field(rng)
        pert = assemble_perturbation(op.space, q=(q,), p=(p,), v=v, refine=4)
        full = norm_v_to_vstar(pert.matrix, h1, seed=1234).value
        bound = (norm_m10(op, q, h1, 4, 1234).value
                 + norm_m10(op, p, h1, 4, 1234).value
                 + norm_m1m1(op, v, h1, 4, 1234).value)
        assert full <= bound * (1.0 + 1e-8) + 1e-12


def test_form_norm_below_weight_norm_below_sup():
    # the potential chain: dual-pairing norm <= product norm <= sup bound
    mesh = build_mesh(UNIT, 128)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    v = CoefficientField(1, lambda x: np.sin(x[..., 0] / 0.05), 1.0)
    h1 = Space(op.gram_h1)
    m1m1 = norm_m1m1(op, v, h1, 8, 1234).value
    m10 = norm_m10(op, v, h1, 8, 1234).value
    assert m1m1 <= m10 * (1.0 + 1e-8)
    assert m10 <= 1.0 * (1.0 + 1e-8)


# ------------------------------------------------------------ eigen bounds

def test_smallest_eigenvalue_matches_dense():
    rng = np.random.default_rng(12)
    n = 30
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2.0
    s = random_spd(rng, n)
    got, upper = smallest_eigenvalue(sp.csr_matrix(h), sp.csr_matrix(s))
    expect = float(sla.eigh(h, s, eigvals_only=True)[0])
    assert got == pytest.approx(expect, rel=1e-7, abs=1e-9)
    assert upper == pytest.approx(expect, rel=1e-7, abs=1e-9)


def test_find_lambda_immediate_acceptance():
    mesh = build_mesh(UNIT, 16)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    k = (op.gram_h1 - op.gram_l2).tocsr()
    rep = find_lambda([k], [op.gram_l2], [op.gram_h1])
    assert rep.lambda0 == -1.0
    # candidate form K + M equals the H1 gram, so c4 is exactly 1
    assert rep.c4 == pytest.approx(1.0, rel=1e-7)


def test_find_lambda_doubles_until_coercive():
    mesh = build_mesh(UNIT, 16)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    k = (op.gram_h1 - op.gram_l2).tocsr()
    form = (k - 15.0 * op.gram_l2).tocsr()
    rep = find_lambda([form], [op.gram_l2], [op.gram_h1])
    assert rep.lambda0 == -8.0
    h = (k - 7.0 * op.gram_l2).toarray()
    expect = float(sla.eigh(h, op.gram_h1.toarray(), eigvals_only=True)[0])
    assert rep.c4 == pytest.approx(expect, rel=1e-7)
    assert len(rep.per_eps) == 1


def test_find_lambda_gives_up_at_abort_threshold(monkeypatch):
    monkeypatch.setattr(norms, "LAMBDA_ABORT", -1e3)
    mesh = build_mesh(UNIT, 16)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    k = (op.gram_h1 - op.gram_l2).tocsr()
    form = (k - 1e7 * op.gram_l2).tocsr()
    with pytest.raises(CoercivityError, match=r"above lambda_abort = "
                       r"-1000\.0 kept every form's certified c at or "
                       r"above c4_min = 0\.05"):
        find_lambda([form], [op.gram_l2], [op.gram_h1])


def test_find_lambda_rejects_nonnegative_start():
    with pytest.raises(ValueError):
        find_lambda([], [], [], lambda_start=0.5)


# ------------------------------------------------------------ bound direction

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _shift_search_forms(config, schedule, **overrides):
    """The forms, masses and Grams an auto-shift study hands find_lambda.

    overrides replace config entries, keyed with "." as "__"."""
    cfg = StudyConfig.load(CONFIGS / f"{config}.cfg")
    cfg.entries.update({k.replace("__", "."): v for k, v in overrides.items()})
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


@pytest.mark.parametrize("seed", [1, 7])
def test_find_lambda_random_rotation_keeps_c4_below_dense_lambda_min(seed):
    # two realizations w0 of the rotation family; the witness inside
    # smallest_eigenvalue raises if c4 overshoots any form's lambda_min
    forms, masses, grams = _shift_search_forms("random_resolvent", (0.1,),
                                               family__seed=seed)
    assert forms[0].shape[0] == 226
    rep = find_lambda(forms, masses, grams)
    expect = min(_dense_lambda_mins(forms, masses, grams, rep.lambda0))
    assert rep.c4 == pytest.approx(expect, rel=1e-10)


def _overshooting_cholesky(monkeypatch, gram, delta):
    """Make every banded Cholesky factor its matrix plus delta S, so the
    bisection of the pencil (H, S = gram) passes shifts up to delta above
    lambda_min and ends there; the witness still sees the true H and S."""
    band_s = norms._upper_band(gram, 1)
    cholesky = sla.cholesky_banded
    monkeypatch.setattr(sla, "cholesky_banded",
                        lambda ab, **kw: cholesky(ab + delta * band_s, **kw))


@pytest.mark.parametrize("which", [0, 1], ids=["perturbed", "limit"])
def test_witness_fires_just_above_dense_lambda_min(monkeypatch, which):
    # a lower end 1e-8 relative above the true lambda_min, on the 639-dof
    # perturbed and limit forms of stabilizing_resolvent, coercive at -1.
    # On the perturbed one lambda_2 - lambda_min is 2.1e-8 relative
    forms, masses, grams = _shift_search_forms("stabilizing_resolvent",
                                               (0.025,))
    form, mass, gram = forms[which], masses[which], grams[which]
    assert form.shape[0] == 639
    (low,) = _dense_lambda_mins([form], [mass], [gram], -1.0)
    _overshooting_cholesky(monkeypatch, gram, 1e-8 * low)
    with pytest.raises(NumericalBreach,
                       match=r"witness .* fell below the certified"):
        find_lambda([form], [mass], [gram])


def test_smallest_eigenvalue_raises_when_its_bisection_overshoots(
        monkeypatch):
    # the bisection of the stiffness against the H1 Gram on 63 dof ends
    # 1e-6 above lambda_min, about pi^2 / (pi^2 + 1)
    op = assemble_base(OperatorSpec(UNIT), build_mesh(UNIT, 64))
    k, s = op.base_form, op.gram_h1
    low = float(sla.eigh(k.toarray(), s.toarray(), eigvals_only=True)[0])
    c, r = smallest_eigenvalue(k, s)
    assert c == pytest.approx(low, rel=1e-10)
    assert r == pytest.approx(low, rel=1e-10)
    _overshooting_cholesky(monkeypatch, s, 1e-6)
    with pytest.raises(NumericalBreach, match="fell below the certified"):
        smallest_eigenvalue(k, s)


@pytest.mark.parametrize("config, schedule, dofs", [
    ("random_resolvent", (0.1, 0.05), [226, 226, 452, 452]),
    ("stabilizing_resolvent", (0.1, 0.05, 0.025),
     [159, 159, 319, 319, 639, 639]),
], ids=["random_resolvent", "stabilizing_resolvent"])
def test_find_lambda_brackets_dense_lambda_min(config, schedule, dofs):
    # c <= lambda_min <= r on every form at the accepted shift, c from the
    # inertia bisection and r from the witness
    forms, masses, grams = _shift_search_forms(config, schedule)
    assert [g.shape[0] for g in forms] == dofs
    rep = find_lambda(forms, masses, grams)
    assert rep.c4 == min(rep.per_eps)
    lows = _dense_lambda_mins(forms, masses, grams, rep.lambda0)
    for g, m, s, c4, low in zip(forms, masses, grams, rep.per_eps, lows):
        c, r = smallest_eigenvalue(
            norms._hermitian_part(g - rep.lambda0 * m), s)
        assert c == c4
        assert c <= low * (1 + 1e-10)
        assert low <= r * (1 + 1e-10)
        assert r == pytest.approx(c, rel=1e-10)


def _hermitian_band(rng, n, off, scale):
    """scale (D + D^H) for a random complex diagonal D at offset off."""
    d = sp.diags(scale * (rng.standard_normal(n - off)
                          + 1j * rng.standard_normal(n - off)), off)
    return (d + d.getH()).tocsr()


@pytest.mark.parametrize("band, ends", [(2, "dirichlet"), (1, "perturbed")])
def test_smallest_eigenvalue_on_banded_forms(band, ends):
    # band is the pencil's half-bandwidth: 1 for a P1 form, 2 for a
    # complex Hermitian pencil assembled directly, the shape of wider
    # couplings such as augmented systems
    rng = np.random.default_rng(60 + band)
    op = assemble_base(OperatorSpec(UNIT), build_mesh(UNIT, 48))
    q = _random_trig_field(rng)
    v = _random_trig_field(rng)
    pert = assemble_perturbation(op.space, q=(q,), v=v, refine=4)
    g = (op.base_form + pert.matrix).tocsr()
    s = op.gram_h1
    if band == 2:
        # complex couplings of second neighbours in both forms; the one
        # added to the Gram is B^H B, so the Gram stays positive definite
        g = (g + _hermitian_band(rng, op.dof, 2, 5.0)).tocsr()
        b = sp.eye(op.dof) + sp.diags(rng.standard_normal(op.dof - 2)
                                      + 1j * rng.standard_normal(op.dof - 2),
                                      2)
        s = (s + 0.5 * (b.getH() @ b)).tocsr()
        assert half_bandwidth(g, s) == 2
    if ends == "perturbed":
        # a complex and a negative shift on the first and last dof rows
        shift = np.zeros(op.dof, dtype=complex)
        shift[0] = -0.7
        shift[-1] = 2.0 + 1.0j
        g = (g + sp.diags(shift)).tocsr()
    h = ((g + g.getH()) * 0.5).tocsr()
    got, upper = smallest_eigenvalue(h, s)
    expect = float(sla.eigh(h.toarray(), s.toarray(),
                            eigvals_only=True)[0])
    assert got <= expect + 1e-10 * abs(expect)
    assert got == pytest.approx(expect, rel=1e-10)
    assert upper == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("s", [[[0.0, 0.0], [0.0, 1.0]],
                               [[1.0, 2.0], [2.0, 1.0]]])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_smallest_eigenvalue_rejects_indefinite_gram(s):
    # no shift c makes H - c S positive definite, so the downward steps
    # run until the shift overflows
    h = sp.csr_matrix(np.diag([-1.0, 1.0]))
    with pytest.raises(NumericalBreach):
        smallest_eigenvalue(h, sp.csr_matrix(np.array(s)))

