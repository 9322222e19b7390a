"""Resolvent differences, truncated perturbation series, and the row
of a resolvent convergence study.

The shifted forms G = base - lam * mass are kept as band forms
(fem.band_form) with their factorizations; every norm of a resolvent
expression is an induced norm between the discrete H1 space and its
dual, evaluated matrix-free with plain LU solves, and all of a context's
norms share one H1 factor of its mesh (ResolventContext.h1).  Resolvent
differences are applied through the identity
R_eps - S_N = (-R_0 L)^(N+1) R_eps (S_N the order-N series, S_-1 = 0),
so no norm measures a difference of nearby solutions; the resolvent
difference kappa = |R_eps - R_0| is the order-0 remainder.  A lone
resolvent G^{-1} is bounded instead by Lax-Milgram, by one over the
coercivity constant of G, whose bracket smallest_eigenvalue witnesses.
The difference identity is checked on one refined solve of R_eps per
load, whose residual contract LinearSolver.solve_pair checks, and on an
unrefined R_0 solve of the compensated residual that solution leaves
(identity_residual).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import criteria
from .errors import CoercivityError, NumericalBreach
from .families import deviation_triple
from .fem import (SOLVE_RTOL, LinearSolver, adjoint, aligned_bands,
                  assemble_triple, band_form, column_norms, discretize)
from .norms import Space, _hermitian_part, induced_norm, smallest_eigenvalue

# twice the entries of identity_residual's refined block, its loads f for
# R_eps; the unrefined R_0 block [t | f | g] holds three halves of it.  A
# refined solve's transient memory grows with its block.  The width rule
# dates from two refined blocks a load, f and h = fl(f - g), that counted
# together: on the resolvent_mix benchmark (6 alternating pairs, 2-core
# x86 VM, one BLAS thread) 3 * 2**12 entries then read wall_s 0.365 s
# against 0.374 s here (medians), for 74.4 against 73.5 MB peak RSS,
# higher in 6 of 6 pairs, so this size stays
IDENTITY_BLOCK = 3 * 2 ** 11
IDENTITY_LOADS = 20  # random loads of identity_residual
# convergence_verdict: a step may rise VERDICT_SLACK-fold, and the last
# value must be at most VERDICT_DROP times the first
VERDICT_SLACK, VERDICT_DROP = 1.1, 0.5


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
    meta: dict

    @property
    def dim(self):
        return self.G0.shape[0]

    @cached_property
    def h1(self):
        """The H1 space of the context's mesh, factored on first use and
        shared by every norm the context takes."""
        return Space(self.op.gram_h1)


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
    Hermitian part against the H1 Gram, the witnessed bracket find_lambda
    uses; Re (G u, u) >= c |u|^2 gives the bound.
    """
    name, G = ("Geps", ctx.Geps) if which == "eps" else ("G0", ctx.G0)
    c, _ = smallest_eigenvalue(_hermitian_part(G), ctx.op.gram_h1)
    if c <= 0:
        raise CoercivityError(
            f"{name} is not coercive at operator.shift = "
            f"{ctx.meta['shift']:g}: c = {c:.3g}, so its resolvent has no "
            "Lax-Milgram bound")
    return 1.0 / c


def contraction_norm(ctx, seed):
    """Norm of L R0 as a map of the dual space to itself.

    This is the series contraction factor; at 1 or above the expansion
    has no convergence certificate.
    """
    dual = ctx.h1.star()
    return induced_norm(
        lambda f: ctx.L @ ctx.solver0.quick(f),
        lambda g: ctx.solver0.quick(ctx.LH @ g, adjoint=True),
        dual, dual,
        seed=seed,
    )


def truncation_error_norm(ctx, order, seed):
    """Norm of R_eps minus the order-N series, dual space into H1.

    Order 0 is the resolvent difference kappa = |R_eps - R_0|.
    """
    h1 = ctx.h1
    return induced_norm(
        lambda f: _series_remainder(ctx, f, order),
        lambda g: _series_remainder(ctx, g, order, adjoint=True),
        h1.star(), h1,
        seed=seed,
    )


def series_columns(ctx, orders, rep_kappa, rep_L, seed):
    """Truncated-series errors against their a-priori envelope.

    c2 bounds |R_0| and |R_eps|: the larger Lax-Milgram bound 1/c,
    floored at one (ROADMAP item 4 drops the floor); a form that is not
    coercive at the shift raises CoercivityError.  For each order N,
    err_N is the norm of R_eps minus the order-N series and bound_N =
    c2^(N+2) |L|^(N+1) its envelope (a row_inequalities entry).  Order 0
    is kappa, so rep_kappa serves it, and rep_L gives |L|.  The series is
    divergent when the contraction factor is 1 or above.  Returns the
    columns, in order, and whether a norm they read missed its tolerance.
    """
    c2 = max(1.0, _lax_milgram_bound(ctx, "base"),
             _lax_milgram_bound(ctx, "eps"))
    rep_c = contraction_norm(ctx, seed)
    cols = {"c2": c2, "contraction": rep_c.value,
            "divergent": int(rep_c.value >= 1.0)}
    flagged = rep_c.flagged
    for order in orders:
        rep = (rep_kappa if order == 0
               else truncation_error_norm(ctx, order, seed))
        flagged = flagged or rep.flagged
        cols[f"err_{order}"] = rep.value
        cols[f"bound_{order}"] = c2 ** (order + 2) * rep_L.value ** (order + 1)
    return cols, flagged


# op_spec repeats family.domain; perfbench/oracle.py passes it
# (ROADMAP item 7a)
def assemble_setting(op_spec, family, eps, min_elements, cap_dof):
    """Mesh and assemble everything one epsilon needs, shift-free.

    The perturbed form is assembled twice, once from the full epsilon
    coefficients and once as base plus deviations; both routes are kept
    so the context constructor can cross-check them once a shift is
    chosen.  Splitting assembly from shifting lets a coercivity search
    reuse the matrices across candidate shifts.
    """
    op, mesh = discretize(op_spec, family, eps, min_elements, cap_dof)
    refine = mesh["refine"]
    x_lim = assemble_triple(op.space, family.limit, refine)
    x_eps = assemble_triple(op.space, family.at(eps), refine)
    x_dev = assemble_triple(op.space, deviation_triple(family, eps), refine)
    return {
        "op": op,
        "x_lim": x_lim.matrix,
        "x_eps": x_eps.matrix,
        "x_dev": x_dev.matrix,
        "meta": {"eps": eps, **mesh},
    }


def shifted_forms(setting, lam):
    """(Geps, G0) = (base + x_eps - lam M, base + x_lim - lam M): the
    perturbed and limit forms of an assembled setting at shift lam."""
    op = setting["op"]
    base, mass, *forms = aligned_bands(op.base_form, op.gram_l2,
                                       setting["x_eps"], setting["x_lim"])
    return tuple(band_form(base + x - lam * mass) for x in forms)


def context_from_setting(setting, lam):
    """Shift an assembled setting into a factored, cross-checked context.

    The shifted forms G0 and Geps (shifted_forms) must agree with the
    deviation route: Geps = G0 + x_dev entrywise to 1e-12 of the matrix
    scale.  The difference form L is the entrywise Geps - G0; nearby
    entries subtract exactly, so the second-resolvent identity holds to
    roundoff of the difference, not of the full forms.  L and L^H are
    held complex, as the vectors they multiply are.  The context keeps
    the unshifted operator, for its H1 Gram, and the shift as
    meta["shift"].
    """
    op = setting["op"]
    Geps, G0 = shifted_forms(setting, lam)
    g_eps, g0, dev = aligned_bands(Geps, G0, setting["x_dev"])
    scale = float(max(np.abs(g_eps).max(), np.abs(g0).max()))
    gap = float(np.abs(g_eps - (g0 + dev)).max())
    if gap > 1e-12 * scale:
        raise NumericalBreach(
            f"perturbed form disagrees with base + difference by {gap:.3e} "
            f"(scale {scale:.3e})"
        )
    L = band_form((g_eps - g0).astype(complex))
    return ResolventContext(
        op=op,
        G0=G0,
        Geps=Geps,
        L=L,
        LH=adjoint(L),
        solver0=LinearSolver(G0),
        solver_eps=LinearSolver(Geps),
        meta={**setting["meta"], "shift": lam},
    )


def identity_residual(ctx, seed):
    """Worst relative defect of the exact difference identity.

    For each of IDENTITY_LOADS random loads f, R_eps f - R_0 f must match
    -R_0 g, g = L R_eps f; the defect R_eps f - R_0 (f - g) is measured
    relative to the larger of the two sides.  It is a tiny difference of
    order-one solutions, so R_eps f comes from a refined solve with its
    sub-ulp correction, and R_0 (f - g) is taken as ue plus a solve of
    what ue leaves of f - g, so the big parts cancel before any solve:

        (ue, ue_lo) = R_eps f, refined, and g = L ue + L ue_lo
        h = fl(f - g) and its rounding error h_lo (TwoSum), so that
            h + h_lo = f - g exactly
        t = (h - G0 ue) + h_lo, h - G0 ue the compensated residual on
            G0's bands (LinearSolver.residual)
        defect = ue_lo - R_0 t

    R_0 t = R_0 (f - g) - ue, so the defect is (ue + ue_lo) - R_0 (f - g),
    R_eps f - R_0 f + R_0 g regrouped: a wrong L, or a wrong factor in
    either solver, shows in it in full.  t is about one ulp of G0 ue, so
    the unrefined solve's relative error, about cond u, costs only about
    cond u^2 |ue|.  h_lo is about u |f|; left out, its image under R_0
    would stay in the defect and lift the comparison floor to about u |x|
    / |du|, roundoff of the solutions x instead of roundoff of their
    difference du.  With L = 0, t is bit for bit solver_eps's last
    residual and R_0 t is ue_lo, so the defect is exactly 0.  The scale
    needs no such care: R_0 f and R_0 g, for the two sides, come with
    R_0 t from one unrefined solve, accurate to about cond u relative,
    which is ample for a denominator.  This exercises both
    factorizations and the deviation-route difference form in one shot.

    The loads are drawn one after another and solved in column blocks;
    a column's result does not depend on the block it sits in.  A block
    of k loads makes one refined solve of k columns with solver_eps, at
    most IDENTITY_BLOCK / 2 entries or one load, and one unrefined R_0
    solve of the 3k columns [t | f | g].
    """
    rng = np.random.default_rng(seed)
    width = max(1, IDENTITY_BLOCK // (2 * ctx.dim))
    worst = 0.0
    for start in range(0, IDENTITY_LOADS, width):
        k = min(width, IDENTITY_LOADS - start)
        # the unrefined R_0 block [t | f | g]
        block = np.empty((ctx.dim, 3 * k), dtype=complex, order="F")
        t, f, g = block[:, :k], block[:, k:2 * k], block[:, 2 * k:]
        for j in range(k):
            f[:, j] = (rng.standard_normal(ctx.dim)
                       + 1j * rng.standard_normal(ctx.dim))
        ue, ue_lo = ctx.solver_eps.solve_pair(f)
        g[...] = ctx.L @ ue + ctx.L @ ue_lo
        # TwoSum of f and -g, on the real and imaginary parts alike
        h = f - g
        bv = h - f
        h_lo = (f - (h - bv)) - (g + bv)
        t[...] = ctx.solver0.residual(h, ue) + h_lo
        x = ctx.solver0.quick(block)
        defect = ue_lo - x[:, :k]
        lhs = ue - x[:, k:2 * k]
        for nl, nr, nd in zip(column_norms(lhs), column_norms(x[:, 2 * k:]),
                              column_norms(defect)):
            scale = max(nl, nr)
            if scale == 0.0:
                continue
            worst = max(worst, nd / scale)
    return worst


def convergence_row(family, eps, lam, setting, seed, eta_exponents, orders):
    """All measurements for one epsilon of a convergence study, on the
    setting assemble_setting made for that epsilon; the keys, in order,
    are the study's CSV columns; eta comes from the grid eps^eta_exponents.

    Nonempty orders add series_columns before flagged: c2, contraction,
    divergent, then err_N and bound_N for each order N.  flagged is 1
    when any norm of the row missed its tolerance.
    """
    ctx = context_from_setting(setting, lam)
    eta, crit = criteria.optimize_eta(family, eps, eta_exponents)
    rep_kappa = truncation_error_norm(ctx, 0, seed)
    rep_L = induced_norm(lambda v: ctx.L @ v, lambda v: ctx.LH @ v, ctx.h1,
                         ctx.h1.star(), seed=seed)
    row = {
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
        "identity_err": identity_residual(ctx, seed),
        "predicted": family.rate(eps),
    }
    flagged = rep_kappa.flagged or rep_L.flagged
    if orders:
        series, series_flagged = series_columns(ctx, orders, rep_kappa,
                                                rep_L, seed)
        row.update(series)
        flagged = flagged or series_flagged
    row["flagged"] = int(flagged)
    return row


def row_inequalities(orders):
    """The inequalities lo <= hi on every row of a resolvent study with
    series orders `orders`, as (lo, hi, lanczos) column names, lanczos the
    side that is a Lanczos lower estimate, not a certified value.

    norm_L <= bound_m1m1: the criterion's multiplier bound holds the
    difference form.  err_N <= bound_N: each series remainder stays under
    its envelope, whose |L| is the Lanczos norm_L.  A breach is a defect
    the study's footer names, never a verdict input nor a tolerance.
    """
    return [("norm_L", "bound_m1m1", "norm_L")] + [
        (f"err_{n}", f"bound_{n}", f"err_{n}") for n in orders]


def convergence_verdict(rows):
    """Declare convergence only when both norms genuinely shrink.

    Each step may rise at most VERDICT_SLACK-fold, and the last value
    must be at most VERDICT_DROP times the first, for the resolvent
    difference and for the difference-form norm simultaneously.  A row
    with a flagged norm or a capped mesh rules convergence out; the
    detail then names those rows' eps under flagged_rows / capped_rows.
    """
    verdicts = {}
    for key in ("kappa", "norm_L"):
        vals = [row[key] for row in rows]
        mono = all(vals[i + 1] <= vals[i] * VERDICT_SLACK
                   for i in range(len(vals) - 1))
        shrunk = vals[-1] <= VERDICT_DROP * vals[0] if vals[0] > 0 else True
        verdicts[key] = bool(mono and shrunk)
    ok = verdicts["kappa"] and verdicts["norm_L"]
    for key in ("flagged", "capped"):
        bad = tuple(row["eps"] for row in rows if row.get(key))
        if bad:
            verdicts[f"{key}_rows"] = bad
            ok = False
    return ("convergent" if ok else "not_convergent"), verdicts
