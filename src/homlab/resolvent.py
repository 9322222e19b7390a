"""Resolvent differences, truncated perturbation series, and studies.

The shifted forms G = base - lam * mass are kept as sparse matrices with
their factorizations; every norm of a resolvent expression is an induced
norm between the discrete H1 space and its dual, evaluated matrix-free
with plain LU solves.  Resolvent differences are applied through the
identity R_eps - S_N = (-R_0 L)^(N+1) R_eps (S_N the order-N series,
S_-1 = 0), so no norm measures a difference of nearby solutions; the
resolvent difference kappa = |R_eps - R_0| is the order-0 remainder.  A
lone resolvent G^{-1} is bounded instead by Lax-Milgram, by one over the
coercivity constant of G.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import criteria
from .errors import CoercivityError, NumericalBreach
from .families import deviation_triple
from .fem import (LinearSolver, assemble_base, assemble_triple, build_mesh,
                  column_norms, mesh_rule, perturbation_refine)
from .norms import (Space, _hermitian_part, _witness, induced_norm,
                    norm_v_to_vstar, smallest_eigenvalue)

SOLVE_RTOL = 1e-10
# entries per column block of identity_residual's loads: 2**14 solved the
# 2559-dof rows faster but raised a resolvent study's peak memory by 10 MB
IDENTITY_BLOCK = 2 ** 12


def _max_entry(mat):
    data = mat.tocsr().data
    return float(np.abs(data).max()) if data.size else 0.0


@dataclass(frozen=True)
class ResolventContext:
    """Shifted base and perturbed forms with shared factorizations."""

    op: object
    G0: object
    Geps: object
    L: object
    LH: object
    solver0: LinearSolver
    solver_eps: LinearSolver
    meta: dict = dc_field(default_factory=dict)

    @property
    def dim(self):
        return self.G0.shape[0]

    def solve_pair(self, rhs, which="eps"):
        """Refined solve keeping the sub-ulp correction, contract-checked.

        rhs is a column block (n, k); returns the solution block and its
        correction block.  The residual of every column must clear 1e-10
        of its load; a solution stored in doubles cannot have a residual
        below roundoff of G x, so the check also admits that
        attainability floor.
        """
        solver = self.solver_eps if which == "eps" else self.solver0
        x, x_lo, residuals = solver.solve_pair(rhs)
        self._check_contract(solver, x, rhs, residuals, which)
        return x, x_lo

    def _check_contract(self, solver, x, rhs, residuals, which):
        for res, nf, nx in zip(residuals, column_norms(rhs), column_norms(x)):
            floor = 32.0 * np.finfo(float).eps * (solver.matrix_norm * nx + nf)
            if res > max(SOLVE_RTOL * nf, floor):
                raise NumericalBreach(
                    f"linear solve residual {res:.3e} above {SOLVE_RTOL:.0e} "
                    f"of |rhs| = {nf:.3e} ({which})"
                )


def _series_remainder(ctx, f, order, adjoint=False):
    """(R_eps - S_N) f = (-R_0 L)^(N+1) R_eps f, or its adjoint."""
    if adjoint:
        for _ in range(order + 1):
            f = -(ctx.LH @ ctx.solver0.quick(f, adjoint=True))
        return ctx.solver_eps.quick(f, adjoint=True)
    u = ctx.solver_eps.quick(f)
    for _ in range(order + 1):
        u = -ctx.solver0.quick(ctx.L @ u)
    return u


def _lax_milgram_bound(ctx, which):
    """1/c >= |G^{-1}| from the dual space into H1, with equality for a
    Hermitian G.

    c is the certified lower end of the smallest eigenvalue of G's
    Hermitian part against the H1 Gram, the bracket find_lambda uses,
    checked by its witness; Re (G u, u) >= c |u|^2 gives the bound.
    """
    name, G = ("Geps", ctx.Geps) if which == "eps" else ("G0", ctx.G0)
    H = _hermitian_part(G)
    c = smallest_eigenvalue(H, ctx.op.gram_h1)
    if c <= 0:
        raise CoercivityError(
            f"{name} is not coercive at operator.shift = "
            f"{ctx.meta['shift']:g}: c = {c:.3g}, so its resolvent has no "
            "Lax-Milgram bound")
    _witness(H, ctx.op.gram_h1, c)
    return 1.0 / c


def perturbation_norm(ctx, seed=1234):
    """Norm of the difference form from H1 into the dual space."""
    return norm_v_to_vstar(ctx.L, ctx.op.gram_h1, seed=seed)


def contraction_norm(ctx, seed=1234):
    """Norm of L R0 as a map of the dual space to itself.

    This is the series contraction factor; at 1 or above the expansion
    has no convergence certificate.
    """
    dual = Space(ctx.op.gram_h1, dual=True)
    return induced_norm(
        lambda f: ctx.L @ ctx.solver0.quick(f),
        lambda g: ctx.solver0.quick(ctx.LH @ g, adjoint=True),
        dual, dual,
        seed=seed,
    )


def truncation_error_norm(ctx, order, seed=1234):
    """Norm of R_eps minus the order-N series, dual space into H1.

    Order 0 is the resolvent difference kappa = |R_eps - R_0|.
    """
    h1 = Space(ctx.op.gram_h1)
    return induced_norm(
        lambda f: _series_remainder(ctx, f, order),
        lambda g: _series_remainder(ctx, g, order, adjoint=True),
        h1.star(), h1,
        seed=seed,
    )


@dataclass(frozen=True)
class TruncationReport:
    """Truncated-series errors against their certified envelope."""

    norm_L: float
    c2: float
    contraction: float
    rows: tuple
    divergent: bool
    flagged: bool


def truncation_study(ctx, orders=(0, 1, 2, 3), seed=1234):
    """Measure series truncation errors and the a-priori envelope.

    The envelope is c2^(N+2) |L|^(N+1) with c2 bounding |R_0| and
    |R_eps|: the larger Lax-Milgram bound 1/c, floored at one (ROADMAP
    item 4 drops the floor).  A form that is not coercive at the shift
    raises CoercivityError.  Consecutive error ratios are reported next
    to the contraction factor they should track.
    """
    c2 = max(1.0, _lax_milgram_bound(ctx, "base"),
             _lax_milgram_bound(ctx, "eps"))
    rep_L = perturbation_norm(ctx, seed)
    rep_c = contraction_norm(ctx, seed)
    flagged = rep_L.flagged or rep_c.flagged
    rows = []
    prev = None
    for order in orders:
        rep_err = truncation_error_norm(ctx, order, seed)
        flagged = flagged or rep_err.flagged
        err = rep_err.value
        bound = c2 ** (order + 2) * rep_L.value ** (order + 1)
        ratio = err / prev if prev else math.nan
        rows.append({
            "order": order,
            "error": err,
            "bound": bound,
            "ratio_vs_prev": ratio,
        })
        prev = err
    return TruncationReport(
        norm_L=rep_L.value,
        c2=c2,
        contraction=rep_c.value,
        rows=tuple(rows),
        divergent=rep_c.value >= 1.0,
        flagged=flagged,
    )


# op_spec repeats family.domain; perfbench/oracle.py passes it (ROADMAP item 7)
def assemble_setting(op_spec, family, eps, min_elements, cap_dof):
    """Mesh and assemble everything one epsilon needs, shift-free.

    The perturbed form is assembled twice, once from the full epsilon
    coefficients and once as base plus deviations; both routes are kept
    so the context constructor can cross-check them once a shift is
    chosen.  Splitting assembly from shifting lets a coercivity search
    reuse the matrices across candidate shifts.
    """
    finest = family.finest_scale(eps)
    n, capped = mesh_rule(finest, ncomp=family.ncomp,
                          min_elements=min_elements, cap_dof=cap_dof)
    mesh = build_mesh(op_spec.domain, n)
    op = assemble_base(op_spec, mesh)
    refine = perturbation_refine(op.space, finest)
    x_lim = assemble_triple(op.space, family.limit, refine)
    x_eps = assemble_triple(op.space, family.at(eps), refine)
    x_dev = assemble_triple(op.space, deviation_triple(family, eps), refine)
    return {
        "op": op,
        "x_lim": x_lim.matrix.tocsr(),
        "x_eps": x_eps.matrix.tocsr(),
        "x_dev": x_dev.matrix.tocsr(),
        "meta": {"eps": eps, "n_elements": n, "capped": capped,
                 "refine": refine, "finest_scale": finest},
    }


def context_from_setting(setting, lam):
    """Shift an assembled setting into a factored, cross-checked context.

    G0 = base + x_lim - lam M and Geps = base + x_eps - lam M must agree
    with the deviation route: Geps = G0 + x_dev entrywise to 1e-12 of the
    matrix scale.  The difference form L is the entrywise Geps - G0;
    nearby entries subtract exactly, so the second-resolvent identity
    holds to roundoff of the difference, not of the full forms.  The
    context keeps the unshifted operator, for its H1 Gram, and the shift
    as meta["shift"].
    """
    op = setting["op"]
    G0 = ((op.base_form + setting["x_lim"]).tocsr()
          - lam * op.gram_l2).tocsr()
    Geps = (op.base_form + setting["x_eps"] - lam * op.gram_l2).tocsr()
    scale = max(_max_entry(Geps), _max_entry(G0))
    gap = _max_entry(Geps - (G0 + setting["x_dev"]))
    if gap > 1e-12 * scale:
        raise NumericalBreach(
            f"perturbed form disagrees with base + difference by {gap:.3e} "
            f"(scale {scale:.3e})"
        )
    L = (Geps - G0).tocsr()
    return ResolventContext(
        op=op,
        G0=G0,
        Geps=Geps,
        L=L,
        LH=L.getH().tocsr(),
        solver0=LinearSolver(G0),
        solver_eps=LinearSolver(Geps),
        meta={**setting["meta"], "shift": lam},
    )


def identity_residual(ctx, n_rhs=20, seed=1234):
    """Worst relative defect of the exact difference identity.

    For every random load f the solved difference R_eps f - R_0 f must
    match -R_0 L R_eps f; the defect is measured relative to the larger
    of the two sides.  Both sides are tiny differences of order-one
    solutions, so each solve carries its sub-ulp correction and the big
    parts are cancelled before the corrections come back in; without
    that the comparison floor sits at roundoff of the solutions instead
    of roundoff of their difference.  This exercises both factorizations
    and the deviation-route difference form in one shot.

    The loads are drawn one after another and solved in column blocks of
    at most IDENTITY_BLOCK entries; a column's result does not depend on
    the block it sits in.
    """
    rng = np.random.default_rng(seed)
    width = max(1, IDENTITY_BLOCK // ctx.dim)
    worst = 0.0
    for start in range(0, n_rhs, width):
        f = np.empty((ctx.dim, min(width, n_rhs - start)), dtype=complex,
                     order="F")
        for j in range(f.shape[1]):
            f[:, j] = (rng.standard_normal(ctx.dim)
                       + 1j * rng.standard_normal(ctx.dim))
        ue, ue_lo = ctx.solve_pair(f, which="eps")
        u0, u0_lo = ctx.solve_pair(f, which="base")
        g = np.asfortranarray(ctx.L @ ue + ctx.L @ ue_lo)
        y, y_lo = ctx.solve_pair(g, which="base")
        lhs = (ue - u0) + (ue_lo - u0_lo)
        rhs = -(y + y_lo)
        defect = ((ue - u0) + y) + ((ue_lo - u0_lo) + y_lo)
        for nl, nr, nd in zip(column_norms(lhs), column_norms(rhs),
                              column_norms(defect)):
            scale = max(nl, nr)
            if scale == 0.0:
                continue
            worst = max(worst, nd / scale)
    return worst


def convergence_row(family, eps, lam, setting, seed=1234,
                    eta_exponents=None):
    """All measurements for one epsilon of a convergence study, on the
    setting assemble_setting made for that epsilon."""
    ctx = context_from_setting(setting, lam)
    eta, crit = criteria.optimize_eta(
        family, eps,
        exponents=eta_exponents or criteria.DEFAULT_ETA_EXPONENTS,
    )
    rep_kappa = truncation_error_norm(ctx, 0, seed)
    rep_L = perturbation_norm(ctx, seed)
    return {
        "eps": eps,
        "n_elements": ctx.meta["n_elements"],
        "capped": int(ctx.meta["capped"]),
        "eta": eta,
        "rho1": crit.rho1,
        "rho3": crit.rho3,
        "bound_m1m1": crit.bound_m1m1,
        "bound_m10": crit.bound_m10,
        "kappa": rep_kappa.value,
        "norm_L": rep_L.value,
        "identity_err": identity_residual(ctx, seed=seed),
        "predicted": family.rate(eps),
        "flagged": int(rep_kappa.flagged or rep_L.flagged),
    }


def convergence_verdict(rows, step_slack=1.1, drop=0.5):
    """Declare convergence only when both norms genuinely shrink.

    Each step may rise by at most the slack factor, and the last value
    must drop below the stated fraction of the first, for the resolvent
    difference and for the difference-form norm simultaneously.  A row
    with a flagged norm or a capped mesh rules convergence out; the
    detail then names those rows' eps under flagged_rows / capped_rows.
    """
    verdicts = {}
    for key in ("kappa", "norm_L"):
        vals = [row[key] for row in rows]
        mono = all(vals[i + 1] <= vals[i] * step_slack
                   for i in range(len(vals) - 1))
        shrunk = vals[-1] <= drop * vals[0] if vals[0] > 0 else True
        verdicts[key] = bool(mono and shrunk)
    ok = verdicts["kappa"] and verdicts["norm_L"]
    for key in ("flagged", "capped"):
        bad = tuple(row["eps"] for row in rows if row.get(key))
        if bad:
            verdicts[f"{key}_rows"] = bad
            ok = False
    return ("convergent" if ok else "not_convergent"), verdicts
