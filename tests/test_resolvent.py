"""Resolvent series and difference identities against dense oracles."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from homlab import registry, study
from homlab.config import StudyConfig
from homlab.families import make_regular
from homlab.fem import NumericalBreach, assemble_base, assemble_perturbation, \
    build_mesh, default_operator
from homlab.fields import interval, scalar_field, zero_field
from homlab.resolvent import (
    assemble_setting,
    build_setting,
    context_from_setting,
    convergence_verdict,
    identity_residual,
    improved_bound_check,
    l2_to_v_norm,
    make_context,
    neumann_apply,
    perturbation_norm,
    resolvent_norm,
    truncation_error_norm,
    truncation_study,
)

UNIT = interval(0.0, 1.0)


def sin_family(amplitude=1.0):
    def v_of(eps):
        return scalar_field(
            1, lambda x: amplitude * np.sin(x[..., 0] / eps), abs(amplitude),
            UNIT)

    return make_regular(
        v_of, zero_field(1, 1, UNIT),
        rate=lambda eps: 2.0 * abs(amplitude) * math.sqrt(eps),
        domain=UNIT,
        name="sin",
        finest_scale=lambda eps: 2.0 * math.pi * eps,
    )


def small_context(n=5, lam=-1.0, amplitude=1.0):
    mesh = build_mesh(UNIT, n)
    op = assemble_base(default_operator(UNIT), mesh)
    v = scalar_field(1, lambda x: amplitude * np.sin(9.0 * x[..., 0]),
                     abs(amplitude), UNIT)
    pert = assemble_perturbation(op.space, v=v, refine=8)
    return make_context(op, lam, pert=pert.matrix)


# ------------------------------------------------------------- construction

def test_make_context_needs_some_perturbation():
    mesh = build_mesh(UNIT, 5)
    op = assemble_base(default_operator(UNIT), mesh)
    with pytest.raises(ValueError):
        make_context(op, -1.0)


def test_context_difference_is_exact_entrywise():
    ctx = small_context()
    gap = abs(ctx.Geps - (ctx.G0 + ctx.L)).max()
    assert gap == 0.0


def test_route_mismatch_is_rejected():
    mesh = build_mesh(UNIT, 5)
    op = assemble_base(default_operator(UNIT), mesh)
    v = scalar_field(1, lambda x: np.sin(9.0 * x[..., 0]), 1.0, UNIT)
    pert = assemble_perturbation(op.space, v=v, refine=8).matrix
    geps = (op.base_form + 1.0 * op.gram_l2 + (pert * (1.0 + 1e-5))).tocsr()
    with pytest.raises(NumericalBreach, match="disagrees"):
        make_context(op, -1.0, pert=pert, geps=geps)


def test_solve_meets_residual_contract():
    ctx = small_context(n=64)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(ctx.dim)
    x = ctx.solve(f, which="eps")
    assert ctx.solver_eps.last_residual <= 1e-10 * np.linalg.norm(f)
    assert np.linalg.norm(ctx.Geps @ x - f) <= 1e-10 * np.linalg.norm(f)


def test_real_data_keeps_solutions_real():
    ctx = small_context(n=32)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(ctx.dim).astype(complex)
    for which in ("eps", "base"):
        u = ctx.solve(f, which=which)
        total = float(np.linalg.norm(u))
        assert float(np.linalg.norm(u.imag)) <= 1e-10 * total


# ------------------------------------------------------------- series

def test_truncated_series_matches_dense_partial_sums():
    ctx = small_context(n=5)
    g0 = ctx.G0.toarray()
    ell = ctx.L.toarray()
    r0 = np.linalg.inv(g0)
    step = -r0 @ ell
    rng = np.random.default_rng(2)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    expect = r0 @ f
    term = r0 @ f
    for order in range(5):
        got = neumann_apply(ctx, f, order)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)
        term = step @ term
        expect = expect + term


def test_truncated_series_adjoint_matches_dense():
    ctx = small_context(n=5)
    g0 = ctx.G0.toarray()
    ell = ctx.L.toarray()
    r0 = np.linalg.inv(g0)
    dense = r0.copy()
    term = r0.copy()
    step = -r0 @ ell
    for _ in range(3):
        term = step @ term
        dense = dense + term
    rng = np.random.default_rng(3)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = neumann_apply(ctx, f, 3, adjoint=True)
    expect = dense.conj().T @ f
    assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)


def test_series_order_must_be_nonnegative():
    ctx = small_context(n=5)
    with pytest.raises(ValueError):
        neumann_apply(ctx, np.ones(4), -1)


def test_partial_sum_recursion_consistency():
    ctx = small_context(n=40)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    u3 = neumann_apply(ctx, f, 3)
    u2 = neumann_apply(ctx, f, 2)
    lhs = u3 + ctx.solve(ctx.L @ u2, which="base")
    rhs = ctx.solve(f, which="base")
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


# ------------------------------------------------------------- identity

def test_difference_identity_on_fe_context():
    fam = sin_family()
    ctx = build_setting(default_operator(UNIT), fam, eps=0.05, lam=-1.0)
    assert identity_residual(ctx) <= 1e-10


def test_identity_residual_zero_perturbation():
    mesh = build_mesh(UNIT, 16)
    op = assemble_base(default_operator(UNIT), mesh)
    zero = assemble_perturbation(op.space)
    ctx = make_context(op, -1.0, pert=zero.matrix)
    assert identity_residual(ctx, n_rhs=5) == 0.0


# ------------------------------------------------------------- norms

def dense_dual_to_h1_norm(mat, s):
    w, u = np.linalg.eigh(s)
    s_half = (u * np.sqrt(w)) @ u.conj().T
    return float(np.linalg.svd(s_half @ mat @ s_half, compute_uv=False)[0])


def test_resolvent_norm_matches_dense():
    ctx = small_context(n=21)
    s = ctx.op.gram_h1.toarray()
    for which, g in (("eps", ctx.Geps), ("base", ctx.G0)):
        expect = dense_dual_to_h1_norm(np.linalg.inv(g.toarray()), s)
        rep = resolvent_norm(ctx, which)
        assert rep.value == pytest.approx(expect, rel=2e-8)


def test_l2_to_v_norm_matches_dense():
    ctx = small_context(n=21)
    s = ctx.op.gram_h1.toarray()
    m = ctx.op.gram_l2.toarray()
    d = np.linalg.inv(ctx.Geps.toarray()) - np.linalg.inv(ctx.G0.toarray())
    wm, um = np.linalg.eigh(m)
    m_half = (um * np.sqrt(wm)) @ um.conj().T
    ws, us = np.linalg.eigh(s)
    s_half = (us * np.sqrt(ws)) @ us.conj().T
    expect = float(np.linalg.svd(s_half @ d @ m_half, compute_uv=False)[0])
    rep = l2_to_v_norm(ctx)
    assert rep.value == pytest.approx(expect, rel=2e-8)


def test_truncation_errors_decay_geometrically():
    ctx = small_context(n=32, amplitude=0.4)
    rep = truncation_study(ctx, orders=(0, 1, 2, 3))
    errs = [row["error"] for row in rep.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert not rep.divergent
    assert rep.c2 >= 1.0
    for row in rep.rows:
        assert row["error"] <= row["bound"] * (1.0 + 1e-8)
    # consecutive ratios settle near the contraction factor
    assert rep.rows[-1]["ratio_vs_prev"] == pytest.approx(rep.contraction,
                                                          rel=0.3)


def test_truncation_flags_divergent_series():
    ctx = small_context(n=16, amplitude=60.0)
    rep = truncation_study(ctx, orders=(0, 1))
    assert rep.divergent
    errs = [row["error"] for row in rep.rows]
    assert errs[1] > errs[0]


@pytest.fixture(scope="module")
def sin_neumann_context():
    """The context of configs/sin_neumann.cfg: 63 dof, eps 0.05, shift -2."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = StudyConfig.load(configs / "sin_neumann.cfg")
    family = registry.build_family(cfg)
    ctx = build_setting(study._operator_spec(cfg, family), family,
                        eps=0.05, lam=-2.0, **study._mesh_opts(cfg))
    assert ctx.dim == 63
    return ctx


def _h1_frame_norm(s, mat):
    """Norm of mat from the dual space into H1: |U mat U^H|, S = U^H U."""
    u = sla.cholesky(s.toarray())
    return float(sla.svdvals(u @ mat @ u.conj().T)[0])


def test_resolvent_norm_on_clustered_spectrum_matches_dense(
        sin_neumann_context):
    # the top singular values of R_eps cluster within 1e-6 below one
    ctx = sin_neumann_context
    expect = _h1_frame_norm(ctx.op.gram_h1, np.linalg.inv(ctx.Geps.toarray()))
    rep = resolvent_norm(ctx, "eps")
    assert rep.value == pytest.approx(expect, rel=2e-8)
    assert not rep.flagged


def test_truncation_errors_match_dense_partial_sums(sin_neumann_context):
    ctx = sin_neumann_context
    s = ctx.op.gram_h1
    r_eps = np.linalg.inv(ctx.Geps.toarray())
    r0 = np.linalg.inv(ctx.G0.toarray())
    step = -r0 @ ctx.L.toarray()
    partial = r0.copy()
    term = r0.copy()
    remainder = r_eps.copy()
    for order in range(5):
        remainder = step @ remainder
        exact = _h1_frame_norm(s, remainder)
        # R_eps - S_N = (-R0 L)^(N+1) R_eps; the dense partial sums agree
        # up to the rounding of order-one matrices, which swamps the
        # higher orders in relative terms
        assert _h1_frame_norm(s, r_eps - partial) == pytest.approx(
            exact, abs=1e-13)
        got = truncation_error_norm(ctx, order)
        assert got.value == pytest.approx(exact, rel=1e-10, abs=0.0)
        assert not got.flagged
        term = step @ term
        partial = partial + term


def test_perturbation_norm_is_difference_form_norm():
    from homlab.norms import norm_v_to_vstar
    ctx = small_context(n=20)
    direct = norm_v_to_vstar(ctx.L, ctx.op.gram_h1).value
    assert perturbation_norm(ctx).value == pytest.approx(direct, rel=1e-10)


# ------------------------------------------------------------- settings

def test_setting_routes_cross_check():
    fam = sin_family()
    setting = assemble_setting(default_operator(UNIT), fam, eps=0.1)
    ctx = context_from_setting(setting, -1.0)
    assert ctx.meta["eps"] == 0.1
    assert ctx.meta["n_elements"] >= 64
    # tampering with the deviation route must trip the entrywise check
    bad = dict(setting)
    bad["x_dev"] = (setting["x_dev"] * (1.0 + 1e-6)).tocsr()
    with pytest.raises(NumericalBreach):
        context_from_setting(bad, -1.0)


def test_deviation_route_equals_direct_difference():
    fam = sin_family()
    setting = assemble_setting(default_operator(UNIT), fam, eps=0.1)
    gap = abs(setting["x_eps"] - (setting["x_lim"] + setting["x_dev"])).max()
    scale = abs(setting["x_eps"]).max()
    assert gap <= 1e-12 * scale


# ------------------------------------------------------------- verdicts

def test_convergence_verdict_accepts_shrinking_norms():
    rows = [{"kappa": v, "norm_L": v} for v in (1.0, 0.6, 0.3, 0.1)]
    verdict, detail = convergence_verdict(rows)
    assert verdict == "convergent"
    assert detail == {"kappa": True, "norm_L": True}


def test_convergence_verdict_tolerates_small_wobble():
    rows = [{"kappa": v, "norm_L": v} for v in (1.0, 0.5, 0.54, 0.2)]
    verdict, _ = convergence_verdict(rows)
    assert verdict == "convergent"


def test_convergence_verdict_rejects_flat_tail():
    rows = [{"kappa": v, "norm_L": 1.0 / (i + 1)}
            for i, v in enumerate((1.0, 0.98, 0.97, 0.96))]
    verdict, detail = convergence_verdict(rows)
    assert verdict == "not_convergent"
    assert not detail["kappa"]
    assert detail["norm_L"]


@pytest.mark.parametrize("key", ["flagged", "capped"])
def test_convergence_verdict_rejects_flagged_or_capped_rows(key):
    rows = [{"eps": e, "kappa": v, "norm_L": v, key: int(e == 0.025)}
            for e, v in ((0.1, 1.0), (0.05, 0.6), (0.025, 0.3))]
    verdict, detail = convergence_verdict(rows)
    assert verdict == "not_convergent"
    assert detail == {"kappa": True, "norm_L": True, f"{key}_rows": (0.025,)}


def test_convergence_verdict_rejects_rebound():
    rows = [{"kappa": v, "norm_L": v} for v in (1.0, 0.3, 0.5, 0.1)]
    verdict, _ = convergence_verdict(rows)
    assert verdict == "not_convergent"


def test_improved_bound_check_calibrates_first_row():
    out = improved_bound_check([2.0, 0.9, 0.4], [1.0, 0.5, 0.25])
    assert out["c3"] == pytest.approx(2.0)
    assert out["all_ok"]
    bad = improved_bound_check([2.0, 9.0], [1.0, 1.0])
    assert not bad["all_ok"]
    with pytest.raises(ValueError):
        improved_bound_check([1.0], [])
    with pytest.raises(ValueError):
        improved_bound_check([1.0], [0.0])
