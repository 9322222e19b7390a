"""Resolvent series and difference identities against dense oracles."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from homlab import registry, resolvent, study
from homlab.config import StudyConfig
from homlab.families import make_family
from homlab.fem import LinearSolver, NumericalBreach, OperatorSpec, \
    adjoint, assemble_base, assemble_perturbation, band_form, build_mesh
from homlab.fields import Box, CoefficientField, constant_field, zero_field
from homlab.norms import norm_v_to_vstar
from homlab.resolvent import (
    assemble_setting,
    context_from_setting,
    convergence_verdict,
    identity_residual,
    series_columns,
    truncation_error_norm,
)
from homlab.study import CAP_DOF, MIN_ELEMENTS

UNIT = Box((0.0,), (1.0,))
MESH = {"min_elements": MIN_ELEMENTS, "cap_dof": CAP_DOF}


def sin_family(amplitude=1.0):
    def v_of(eps):
        return CoefficientField(
            1, lambda x: amplitude * np.sin(x[0] / eps), abs(amplitude))

    return make_family(
        v_of, zero_field(1),
        rate=lambda eps: 2.0 * abs(amplitude) * math.sqrt(eps),
        domain=UNIT,
       
        finest_scale=lambda eps: 2.0 * math.pi * eps,
    )


def neumann_apply(ctx, f, order):
    """Order-N truncated series applied to a load block f (n, k).

    Recursion: u_0 = R0 f, u_k = R0 (f - L u_{k-1}).  Every solve is a
    refined one of the base solver, whose solve_pair raises on a column
    that misses the residual contract.
    """
    if order < 0:
        raise ValueError("series order must be at least 0")
    acc = ctx.solver0.solve_pair(f)[0]
    for _ in range(order):
        acc = ctx.solver0.solve_pair(f - ctx.L @ acc)[0]
    return acc


def difference_setting(op, pert):
    """A setting whose limit adds nothing and whose eps route adds pert."""
    zero = band_form(np.zeros((1, pert.shape[0]), dtype=pert.dtype))
    return {"op": op, "x_lim": zero, "x_eps": pert, "x_dev": pert,
            "meta": {}}


def context_from_difference(op, lam, pert):
    """The context of the base operator and base plus pert at shift lam."""
    return context_from_setting(difference_setting(op, pert), lam)


def build_setting(op_spec, family, eps, lam, mesh=MESH):
    """Assemble one eps of a family and shift it into a context."""
    return context_from_setting(
        assemble_setting(op_spec, family, eps, **mesh), lam)


def small_context(n=5, lam=-1.0, amplitude=1.0):
    mesh = build_mesh(UNIT, n)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    v = CoefficientField(1, lambda x: amplitude * np.sin(9.0 * x[0]),
                         abs(amplitude))
    pert = assemble_perturbation(op.space, v, 8)
    return context_from_difference(op, lam, pert.matrix)


# ------------------------------------------------------------- construction

def test_context_difference_is_exact_entrywise():
    ctx = small_context()
    gap = abs(ctx.Geps - (ctx.G0 + ctx.L)).tocsr().max()
    assert gap == 0.0


def test_route_mismatch_is_rejected():
    mesh = build_mesh(UNIT, 5)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    v = CoefficientField(1, lambda x: np.sin(9.0 * x[0]), 1.0)
    pert = assemble_perturbation(op.space, v, 8).matrix
    setting = difference_setting(op, pert)
    setting["x_eps"] = pert * (1.0 + 1e-5)
    with pytest.raises(NumericalBreach, match="disagrees"):
        context_from_setting(setting, -1.0)


def test_solve_meets_residual_contract():
    ctx = small_context(n=64)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((ctx.dim, 1))
    x, _ = ctx.solver_eps.solve_pair(f)
    assert np.linalg.norm(ctx.Geps @ x - f) <= 1e-10 * np.linalg.norm(f)


def test_real_data_keeps_solutions_real():
    ctx = small_context(n=32)
    rng = np.random.default_rng(1)
    f = rng.standard_normal((ctx.dim, 1)).astype(complex)
    for solver in (ctx.solver_eps, ctx.solver0):
        u, _ = solver.solve_pair(f)
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
    f = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    expect = r0 @ f
    term = r0 @ f
    for order in range(5):
        got = neumann_apply(ctx, f, order)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)
        term = step @ term
        expect = expect + term


def test_truncated_series_adjoint_matches_dense():
    # the adjoint of R_eps - S_3 = (-R0 L)^4 R_eps, the map whose norm is
    # the order-3 truncation error
    ctx = small_context(n=5)
    r0 = np.linalg.inv(ctx.G0.toarray())
    r_eps = np.linalg.inv(ctx.Geps.toarray())
    remainder = np.linalg.matrix_power(-r0 @ ctx.L.toarray(), 4) @ r_eps
    rng = np.random.default_rng(3)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = resolvent._series_remainder(ctx, f, 3, adjoint=True)
    expect = remainder.conj().T @ f
    assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)


def test_series_order_must_be_nonnegative():
    ctx = small_context(n=5)
    with pytest.raises(ValueError):
        neumann_apply(ctx, np.ones((4, 1)), -1)


def test_partial_sum_recursion_consistency():
    ctx = small_context(n=40)
    rng = np.random.default_rng(4)
    f = (rng.standard_normal((ctx.dim, 1))
         + 1j * rng.standard_normal((ctx.dim, 1)))
    u3 = neumann_apply(ctx, f, 3)
    u2 = neumann_apply(ctx, f, 2)
    lhs = u3 + ctx.solver0.solve_pair(ctx.L @ u2)[0]
    rhs = ctx.solver0.solve_pair(f)[0]
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


# ------------------------------------------------------------- identity

def test_difference_identity_on_fe_context():
    fam = sin_family()
    ctx = build_setting(OperatorSpec(UNIT), fam, eps=0.05, lam=-1.0)
    assert identity_residual(ctx, seed=1234) <= 1e-10


def test_identity_residual_zero_perturbation(monkeypatch):
    monkeypatch.setattr(resolvent, "IDENTITY_LOADS", 5)
    mesh = build_mesh(UNIT, 16)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    zero = assemble_perturbation(op.space, zero_field(1), 1)
    ctx = context_from_difference(op, -1.0, zero.matrix)
    assert identity_residual(ctx, seed=1234) == 0.0


def test_identity_residual_detects_a_scaled_difference_form(
        sin_neumann_context):
    # L scaled by 1 + 1e-12, with its adjoint, breaks the identity by that
    # much: the intact context reads 3.6e-16, the scaled one 1.0e-12
    ctx = sin_neumann_context
    scaled = ctx.L * (1 + 1e-12)
    bad = dataclasses.replace(ctx, L=scaled, LH=adjoint(scaled))
    assert identity_residual(ctx, seed=1234) <= 1e-14
    assert identity_residual(bad, seed=1234) >= 5e-13


def _identity_residual_per_load(ctx, n_rhs, seed):
    """identity_residual one load at a time: the defect
    R_eps f - R_0 (f - g), g = L R_eps f, from a refined solve of f and an
    unrefined R_0 solve of t = (h - G0 ue) + h_lo, where h = fl(f - g),
    h_lo its rounding error and h - G0 ue the compensated residual."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_rhs):
        f = (rng.standard_normal((ctx.dim, 1))
             + 1j * rng.standard_normal((ctx.dim, 1)))
        ue, ue_lo = ctx.solver_eps.solve_pair(f)
        g = ctx.L @ ue + ctx.L @ ue_lo
        # Knuth's TwoSum of f and -g: h + h_lo == f - g exactly
        h = f - g
        bv = h - f
        h_lo = (f - (h - bv)) + (-g - bv)
        t = ctx.solver0.residual(h, ue) + h_lo
        scale = max(float(np.linalg.norm(ue - ctx.solver0.quick(f))),
                    float(np.linalg.norm(ctx.solver0.quick(g))))
        if scale == 0.0:
            continue
        defect = ue_lo - ctx.solver0.quick(t)
        worst = max(worst, float(np.linalg.norm(defect)) / scale)
    return worst


@pytest.mark.parametrize("width", [1, 3, 7, 50])
def test_identity_residual_blocks_match_per_load_loop(width, monkeypatch):
    fam = sin_family()
    ctx = build_setting(OperatorSpec(UNIT), fam, eps=0.05, lam=-1.0)
    expect = _identity_residual_per_load(ctx, n_rhs=7, seed=5)
    # blocks of width loads each
    monkeypatch.setattr(resolvent, "IDENTITY_BLOCK", 2 * width * ctx.dim)
    monkeypatch.setattr(resolvent, "IDENTITY_LOADS", 7)
    calls = {"eps": [], "base": [], "residual": [], "quick": []}

    def counted(solver, name, which):
        inner = getattr(solver, name)

        def wrapper(rhs, *args):
            calls[which].append(rhs.shape[1])
            return inner(rhs, *args)
        monkeypatch.setattr(solver, name, wrapper)

    counted(ctx.solver_eps, "solve_pair", "eps")
    counted(ctx.solver0, "solve_pair", "base")
    counted(ctx.solver0, "residual", "residual")
    counted(ctx.solver0, "quick", "quick")
    assert identity_residual(ctx, seed=5) == expect
    # 7 loads are not a multiple of the width: the last block is narrower
    widths = [min(width, 7 - a) for a in range(0, 7, width)]
    # one refined solve of the block's k loads with R_eps, none with R_0
    assert calls["eps"] == widths
    assert calls["base"] == []
    # one compensated residual of the k loads on G0's bands, and one
    # unrefined R_0 solve of [t | f | g]
    assert calls["residual"] == widths
    assert calls["quick"] == [3 * k for k in widths]


@pytest.mark.parametrize("which", ["solver0", "solver_eps"])
def test_identity_residual_detects_a_scaled_form_in_either_solver(
        which, sin_neumann_context):
    # a solver of its form scaled by 1 + 1e-12 breaks the identity by
    # more than that: this context reads 4.6e-10 (solver0) and 4.3e-10
    # (solver_eps), the intact one 3.6e-16
    ctx = sin_neumann_context
    form = ctx.G0 if which == "solver0" else ctx.Geps
    bad = dataclasses.replace(
        ctx, **{which: LinearSolver(form * (1 + 1e-12))})
    assert identity_residual(bad, seed=1234) >= 5e-13


# ------------------------------------------------------------- norms

def series_of(ctx, orders):
    """The series columns of a row, from the kappa and |L| it measured."""
    return series_columns(ctx, orders, truncation_error_norm(ctx, 0, 1234),
                          norm_v_to_vstar(ctx.L, ctx.h1, 1234), 1234)


def test_truncation_errors_decay_geometrically():
    ctx = small_context(n=32, amplitude=0.4)
    orders = (0, 1, 2, 3)
    cols, flagged = series_of(ctx, orders)
    assert list(cols) == ["c2", "contraction", "divergent", "err_0",
                          "bound_0", "err_1", "bound_1", "err_2", "bound_2",
                          "err_3", "bound_3"]
    assert not flagged
    errs = [cols[f"err_{n}"] for n in orders]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert cols["divergent"] == 0
    assert cols["c2"] >= 1.0
    for n in orders:
        assert cols[f"err_{n}"] <= cols[f"bound_{n}"] * (1.0 + 1e-8)
    # consecutive ratios settle near the contraction factor
    assert errs[-1] / errs[-2] == pytest.approx(cols["contraction"], rel=0.3)


def test_truncation_flags_divergent_series():
    # V = 20: both forms coercive with c about 1, |L R_0| about 1.83
    mesh = build_mesh(UNIT, 16)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    pert = assemble_perturbation(op.space, constant_field(1, 20.0), 1)
    ctx = context_from_difference(op, -1.0, pert.matrix)
    cols, _ = series_of(ctx, (0, 1))
    assert cols["divergent"] == 1
    assert cols["err_1"] > cols["err_0"]


@pytest.fixture(scope="module")
def sin_neumann_context():
    """The context of the first row of configs/sin_neumann.cfg: 63 dof,
    eps 0.05, shift -2."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    cfg = StudyConfig.load(configs / "sin_neumann.cfg")
    family = registry.build_family(cfg)
    ctx = build_setting(study._operator_spec(cfg, family), family,
                        eps=0.05, lam=-2.0, mesh=study._mesh_opts(cfg))
    assert ctx.dim == 63
    return ctx


def _h1_frame_norm(s, mat):
    """Norm of mat from the dual space into H1: |U mat U^H|, S = U^H U."""
    u = sla.cholesky(s.toarray())
    return float(sla.svdvals(u @ mat @ u.conj().T)[0])


@pytest.mark.parametrize("which", ["base", "eps"])
def test_lax_milgram_bound_matches_dense_resolvent_norm(sin_neumann_context,
                                                        which):
    # on sin_neumann the top singular values of both resolvents cluster
    # within 1e-6 below one
    for ctx in (sin_neumann_context, small_context(n=21)):
        g = ctx.Geps if which == "eps" else ctx.G0
        expect = _h1_frame_norm(ctx.op.gram_h1, np.linalg.inv(g.toarray()))
        bound = resolvent._lax_milgram_bound(ctx, which)
        assert bound >= expect
        assert bound == pytest.approx(expect, rel=1e-10)


def test_lax_milgram_bound_refuses_a_noncoercive_form():
    # V = -50 at shift -1 leaves K - 49 M indefinite, since the pencil
    # (K, M) starts near pi^2; a study's fixed-shift check stops such a
    # form before any row, so no CLI run reaches this guard
    op = assemble_base(OperatorSpec(UNIT), build_mesh(UNIT, 32))
    pert = assemble_perturbation(op.space, constant_field(1, -50.0), 1)
    ctx = context_from_difference(op, -1.0, pert.matrix)
    assert resolvent._lax_milgram_bound(ctx, "base") == pytest.approx(1.0)
    with pytest.raises(resolvent.CoercivityError,
                       match="Geps is not coercive at operator.shift = -1"):
        resolvent._lax_milgram_bound(ctx, "eps")


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
        got = truncation_error_norm(ctx, order, seed=1234)
        assert got.value == pytest.approx(exact, rel=1e-10, abs=0.0)
        assert not got.flagged
        term = step @ term
        partial = partial + term


def test_perturbation_norm_is_difference_form_norm():
    # a row's norm_L, on the context's shared H1 factor, against the
    # dense |U^-H L U^-1| of the H1 Gram S = U^H U
    ctx = small_context(n=20)
    u_inv = np.linalg.inv(sla.cholesky(ctx.op.gram_h1.toarray()))
    expect = sla.svdvals(u_inv.conj().T @ ctx.L.toarray() @ u_inv)[0]
    assert norm_v_to_vstar(ctx.L, ctx.h1, seed=1234).value == pytest.approx(
        expect, rel=2e-8)


# ------------------------------------------------------------- settings

def test_setting_routes_cross_check():
    fam = sin_family()
    setting = assemble_setting(OperatorSpec(UNIT), fam, eps=0.1,
                               **MESH)
    ctx = context_from_setting(setting, -1.0)
    assert ctx.meta["eps"] == 0.1
    assert ctx.meta["n_elements"] >= 64
    # tampering with the deviation route must trip the entrywise check
    bad = dict(setting)
    bad["x_dev"] = setting["x_dev"] * (1.0 + 1e-6)
    with pytest.raises(NumericalBreach):
        context_from_setting(bad, -1.0)


def test_deviation_route_equals_direct_difference():
    fam = sin_family()
    setting = assemble_setting(OperatorSpec(UNIT), fam, eps=0.1,
                               **MESH)
    gap = abs(setting["x_eps"] - (setting["x_lim"] + setting["x_dev"])) \
        .tocsr().max()
    scale = abs(setting["x_eps"]).tocsr().max()
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


# regular_sin at amplitude 1000 on (0, 0.6): at the eta 0.3017 of the
# first row one whole cell fits, so rho1 leaves 0.3 of the domain out,
# and norm_L reads 1.38 times bound_m1m1 there
BREACH_CFG = """
study.kind = resolvent
family.name = regular_sin
family.amplitude = 1000
family.domain = 0, 0.6
schedule.eps = 0.05, 0.04
operator.shift = auto
"""


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 26: bound_m1m1 bounds norm_L only "
                          "on the part of the domain its cells cover")
def test_row_inequalities_hold_where_cells_miss_part_of_the_domain():
    cfg = StudyConfig.from_text(BREACH_CFG, "<config>")
    res = study.run_study("resolvent", cfg, seed=1234)
    for lo, hi, _ in resolvent.row_inequalities(study._series_orders(cfg)):
        assert all(row[lo] <= row[hi] for row in res.rows), (lo, hi)
