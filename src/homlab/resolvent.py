"""Resolvent differences, truncated perturbation series, and studies.

The shifted forms G = base - lam * mass are kept as sparse matrices with
their factorizations; every norm of a resolvent expression is an induced
norm between the discrete H1 space and its dual, evaluated matrix-free
with plain LU solves.  Resolvent differences are applied through the
identity R_eps - S_N = (-R_0 L)^(N+1) R_eps (S_N the order-N series,
S_-1 = 0), so no norm measures a difference of nearby solutions.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import criteria
from .families import FieldTriple
from .fem import (LinearSolver, NumericalBreach, assemble_base,
                  assemble_triple, build_mesh, mesh_rule,
                  perturbation_refine)
from .norms import Space, induced_norm, kappa as kappa_norm, \
    norm_v_to_vstar

SOLVE_RTOL = 1e-10


def _max_entry(mat):
    data = mat.tocsr().data
    return float(np.abs(data).max()) if data.size else 0.0


@dataclass(frozen=True)
class ResolventContext:
    """Shifted base and perturbed forms with shared factorizations."""

    op: object
    lam: complex
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

    def solve(self, rhs, which="eps", adjoint=False):
        """Solve the shifted system; the residual must clear 1e-10.

        A solution stored in doubles cannot have a residual below roundoff
        of G x, so the check also admits that attainability floor.
        """
        solver = self.solver_eps if which == "eps" else self.solver0
        x = solver.solve(rhs, adjoint=adjoint)
        self._check_contract(solver, x, rhs, which, adjoint)
        return x

    def solve_pair(self, rhs, which="eps", adjoint=False):
        """Contract-checked solve keeping the sub-ulp correction."""
        solver = self.solver_eps if which == "eps" else self.solver0
        x, x_lo = solver.solve_pair(rhs, adjoint=adjoint)
        self._check_contract(solver, x, rhs, which, adjoint)
        return x, x_lo

    def _check_contract(self, solver, x, rhs, which, adjoint):
        res = solver.last_residual
        nf = float(np.linalg.norm(rhs))
        floor = 32.0 * np.finfo(float).eps * (
            solver.matrix_norm * float(np.linalg.norm(x)) + nf
        )
        if res > max(SOLVE_RTOL * nf, floor):
            raise NumericalBreach(
                f"linear solve residual {res:.3e} above {SOLVE_RTOL:.0e} "
                f"of |rhs| = {nf:.3e} ({which}, adjoint={adjoint})"
            )


def make_context(op, lam, pert=None, geps=None, meta=None):
    """Assemble shifted forms; cross-check the two assembly routes.

    pert is the perturbation matrix (difference form); geps the fully
    assembled perturbed form.  Given both, they must agree: the identity
    Geps = G0 + L is enforced entrywise to 1e-12 of the matrix scale.

    The difference form used operationally is always the entrywise
    difference of the two factored matrices.  Nearby entries subtract
    exactly in floating point, so the discrete second-resolvent identity
    holds to roundoff of the difference itself, not of the full forms.
    """
    if pert is None and geps is None:
        raise ValueError("need a perturbation matrix or a perturbed form")
    G0 = (op.base_form - lam * op.gram_l2).tocsr()
    if geps is not None:
        Geps = geps.tocsr()
    else:
        Geps = (G0 + pert.tocsr()).tocsr()
    if pert is not None and geps is not None:
        scale = max(_max_entry(Geps), _max_entry(G0))
        gap = _max_entry(Geps - (G0 + pert.tocsr()))
        if gap > 1e-12 * scale:
            raise NumericalBreach(
                f"perturbed form disagrees with base + difference by {gap:.3e} "
                f"(scale {scale:.3e})"
            )
    L = (Geps - G0).tocsr()
    return ResolventContext(
        op=op,
        lam=lam,
        G0=G0,
        Geps=Geps,
        L=L,
        LH=L.getH().tocsr(),
        solver0=LinearSolver(G0),
        solver_eps=LinearSolver(Geps),
        meta=dict(meta or {}),
    )


def neumann_apply(ctx, f, order, adjoint=False):
    """Order-N truncated series applied to a vector.

    Forward recursion: u_0 = R0 f, u_k = R0 (f - L u_{k-1}); the adjoint
    mirrors it with the conjugate-transposed difference form.
    """
    if order < 0:
        raise ValueError("series order must be at least 0")
    mat = ctx.LH if adjoint else ctx.L
    acc = ctx.solve(f, which="base", adjoint=adjoint)
    for _ in range(order):
        acc = ctx.solve(f - mat @ acc, which="base", adjoint=adjoint)
    return acc


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


def resolvent_norm(ctx, which="eps", seed=1234):
    """Norm of a shifted resolvent from the dual space into H1."""
    solver = ctx.solver_eps if which == "eps" else ctx.solver0
    h1 = Space(ctx.op.gram_h1)
    return induced_norm(
        solver.quick,
        lambda g: solver.quick(g, adjoint=True),
        h1.star(), h1,
        seed=seed,
        labels=(f"resolvent_{which}", "gram_h1"),
    )


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
        labels=("difference_form", "resolvent_base", "gram_h1"),
    )


def truncation_error_norm(ctx, order, seed=1234):
    """Norm of R_eps minus the order-N series, dual space into H1."""
    h1 = Space(ctx.op.gram_h1)
    return induced_norm(
        lambda f: _series_remainder(ctx, f, order),
        lambda g: _series_remainder(ctx, g, order, adjoint=True),
        h1.star(), h1,
        seed=seed,
        labels=("resolvent_eps", "series", "gram_h1"),
    )


def l2_to_v_norm(ctx, order=None, seed=1234):
    """Norm of the resolvent difference from L2 into H1.

    order None compares against the base resolvent, otherwise against
    the order-N truncated series.
    """
    M = ctx.op.gram_l2
    order = 0 if order is None else order
    return induced_norm(
        lambda f: _series_remainder(ctx, M @ f, order),
        lambda g: M @ _series_remainder(ctx, g, order, adjoint=True),
        Space(M), Space(ctx.op.gram_h1),
        seed=seed,
        labels=("resolvent_eps", "resolvent_base", "gram_l2", "gram_h1"),
    )


@dataclass(frozen=True)
class TruncationReport:
    """Truncated-series errors against their certified envelope."""

    lam: complex
    norm_L: float
    c2: float
    contraction: float
    rows: tuple
    divergent: bool
    flagged: bool


def truncation_study(ctx, orders=(0, 1, 2, 3), seed=1234):
    """Measure series truncation errors and the a-priori envelope.

    The envelope is c2^(N+2) |L|^(N+1) with c2 the largest resolvent
    norm (floored at one); consecutive error ratios are reported next
    to the contraction factor they should track.
    """
    rep_L = perturbation_norm(ctx, seed)
    rep_r0 = resolvent_norm(ctx, "base", seed)
    rep_re = resolvent_norm(ctx, "eps", seed)
    rep_c = contraction_norm(ctx, seed)
    c2 = max(1.0, rep_r0.value, rep_re.value)
    flagged = any(r.flagged for r in (rep_L, rep_r0, rep_re, rep_c))
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
        lam=ctx.lam,
        norm_L=rep_L.value,
        c2=c2,
        contraction=rep_c.value,
        rows=tuple(rows),
        divergent=rep_c.value >= 1.0,
        flagged=flagged,
    )


def deviation_triple(family, eps):
    """Deviation-from-limit fields regrouped as an assembly triple."""
    devs = family.deviations(eps)
    v = None
    qs = []
    ps = []
    for label, field_ in devs:
        if label == "v":
            v = field_
        elif label.startswith("q"):
            qs.append(field_)
        elif label.startswith("p"):
            ps.append(field_)
    return FieldTriple(v=v, q=tuple(qs), p=tuple(ps))


def assemble_setting(op_spec, family, eps, min_elements=64, cap_dof=8192):
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
    """Shift an assembled setting and factor it into a context."""
    op = setting["op"]
    full = (op.base_form + setting["x_eps"] - lam * op.gram_l2).tocsr()
    op_shift = op.__class__(
        spec=op.spec,
        space=op.space,
        base_form=(op.base_form + setting["x_lim"]).tocsr(),
        gram_h1=op.gram_h1,
        gram_l2=op.gram_l2,
        bc_mask=op.bc_mask,
        meta=dict(op.meta),
    )
    return make_context(op_shift, lam, pert=setting["x_dev"], geps=full,
                        meta=dict(setting["meta"]))


def build_setting(op_spec, family, eps, lam, min_elements=64, cap_dof=8192):
    """Mesh, assemble, shift, and factor everything one epsilon needs."""
    setting = assemble_setting(op_spec, family, eps,
                               min_elements=min_elements, cap_dof=cap_dof)
    return context_from_setting(setting, lam)


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
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_rhs):
        f = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
        ue, ue_lo = ctx.solve_pair(f, which="eps")
        u0, u0_lo = ctx.solve_pair(f, which="base")
        g = ctx.L @ ue + ctx.L @ ue_lo
        y, y_lo = ctx.solve_pair(g, which="base")
        lhs = (ue - u0) + (ue_lo - u0_lo)
        rhs = -(y + y_lo)
        scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
        if scale == 0.0:
            continue
        defect = ((ue - u0) + y) + ((ue_lo - u0_lo) + y_lo)
        worst = max(worst, float(np.linalg.norm(defect)) / scale)
    return worst


def convergence_row(op_spec, family, eps, lam, seed=1234,
                    eta_exponents=None, lattice=None,
                    min_elements=64, cap_dof=8192, setting=None):
    """All measurements for one epsilon of a convergence study."""
    if setting is None:
        setting = assemble_setting(op_spec, family, eps,
                                   min_elements=min_elements,
                                   cap_dof=cap_dof)
    ctx = context_from_setting(setting, lam)
    eta, crit = criteria.optimize_eta(
        family, eps,
        exponents=eta_exponents or criteria.DEFAULT_ETA_EXPONENTS,
        lattice=lattice,
    )
    rep_kappa = kappa_norm(ctx.solver_eps.quick, ctx.solver0.quick, ctx.L,
                           ctx.op.gram_h1, seed=seed)
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


def convergence_study(op_spec, family, eps_schedule, lam, seed=1234,
                      eta_exponents=None, lattice=None,
                      min_elements=64, cap_dof=8192, row_hook=None):
    """Serial convergence study over a decreasing epsilon schedule."""
    eps_schedule = list(eps_schedule)
    if sorted(eps_schedule, reverse=True) != eps_schedule:
        raise ValueError("epsilon schedule must decrease")
    rows = []
    for eps in eps_schedule:
        row = convergence_row(op_spec, family, eps, lam, seed=seed,
                              eta_exponents=eta_exponents, lattice=lattice,
                              min_elements=min_elements, cap_dof=cap_dof)
        rows.append(row)
        if row_hook:
            row_hook(row)
    verdict, detail = convergence_verdict(rows)
    return {"rows": rows, "verdict": verdict, "detail": detail}


def improved_bound_check(values, bounds, slack=2.0):
    """Calibrate the leading constant on the first pair, test the rest.

    values[i] should stay below slack * c3 * bounds[i] where c3 makes
    the first pair tight; returns per-row booleans and the constant.
    """
    if len(values) != len(bounds) or not values:
        raise ValueError("need matching nonempty value and bound lists")
    if bounds[0] <= 0:
        raise ValueError("first criterion bound must be positive")
    c3 = values[0] / bounds[0]
    ok = [v <= slack * max(c3, 1e-300) * b for v, b in zip(values, bounds)]
    return {"c3": c3, "ok": ok, "all_ok": all(ok)}
