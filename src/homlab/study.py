"""Config-driven studies producing deterministic CSV tables.

A study maps a decreasing epsilon schedule to one measurement row per
entry, computed in schedule order.  Every row gets its seed from the
base seed and its schedule index.

Import boundary: the criterion and homogenize studies need only cell
quadrature, so this module does not import fem, norms or resolvent, and
through them SciPy, when it loads.  The norm and resolvent studies
import what they use at the top of their own body, so SciPy loads only
when a discretizing study starts, and a cell-criterion run starts
without its import cost.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import criteria, registry
from .config import ConfigError
from .families import deviation_triple
from .fields import sampled_sup
from .lattice import MAX_REFINE

STUDY_KINDS = ("criterion", "homogenize", "norm", "resolvent")


def __getattr__(name):
    # perfbench reads study.find_lambda; it is norms' own, looked up on
    # access, so a traced norms.find_lambda shows here too
    if name == "find_lambda":
        from .norms import find_lambda
        return find_lambda
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class StudyResult:
    """One finished study: rows plus provenance for the CSV header."""

    fieldnames: tuple
    rows: tuple
    footer: tuple
    echo: tuple


def fit_rate(eps_values, values):
    """Least-squares slope of log(value) against log(eps).

    Nonpositive or non-finite pairs are dropped (and counted); fewer than
    two surviving points yields nan slope and constant.
    """
    pairs = [
        (e, v)
        for e, v in zip(eps_values, values)
        if e > 0 and v > 0 and math.isfinite(e) and math.isfinite(v)
    ]
    dropped = len(list(values)) - len(pairs)
    if len(pairs) < 2:
        return {"slope": math.nan, "constant": math.nan, "r_squared": math.nan,
                "used": len(pairs), "dropped": dropped}
    xs = np.log([p[0] for p in pairs])
    ys = np.log([p[1] for p in pairs])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    total = ys - ys.mean()
    ss_tot = float(total @ total)
    ss_res = float(resid @ resid)
    if ss_tot > 0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res <= 1e-28 else 0.0
    return {"slope": float(slope), "constant": float(math.exp(intercept)),
            "r_squared": r_squared, "used": len(pairs), "dropped": dropped}


def _fit_line(column, eps_values, values):
    fit = fit_rate(eps_values, values)
    return (f"# fit {column}: slope={fit['slope']:.6g} "
            f"constant={fit['constant']:.6g} r2={fit['r_squared']:.6g} "
            f"used={fit['used']} dropped={fit['dropped']}")


def _table(cfg, rows, footer, fits=()):
    """A study's result: the keys of its first row, in order, are the CSV
    columns; the footer is a fit line per column named in fits, then
    footer."""
    lines = [_fit_line(c, [r["eps"] for r in rows], [r[c] for r in rows])
             for c in fits]
    return StudyResult(fieldnames=tuple(rows[0]), rows=tuple(rows),
                       footer=tuple(lines) + tuple(footer),
                       echo=tuple(cfg.echo()))


def _cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    text = str(value)
    if "," in text or "\n" in text:
        raise ValueError(f"CSV cell would need quoting: {text!r}")
    return text


def render_csv(result: StudyResult):
    """Render a study to CSV text; identical inputs give identical bytes."""
    lines = [f"# {k} = {v}" for k, v in result.echo]
    lines.append(",".join(result.fieldnames))
    for row in result.rows:
        lines.append(",".join(_cell(row[name]) for name in result.fieldnames))
    lines.extend(result.footer)
    return "\n".join(lines) + "\n"


def write_csv(result: StudyResult, path):
    text = render_csv(result)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


def read_csv(path):
    """Read a study CSV back: (fieldnames, rows, comment lines)."""
    comments = []
    fieldnames = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line)
                continue
            cells = line.split(",")
            if fieldnames is None:
                fieldnames = tuple(cells)
                continue
            row = {}
            for name, cell in zip(fieldnames, cells):
                try:
                    row[name] = float(cell)
                except ValueError:
                    row[name] = cell
            rows.append(row)
    if fieldnames is None:
        raise ConfigError(f"{path}: no header row found")
    return fieldnames, rows, comments


def _schedule(cfg):
    eps = cfg.get_floats("schedule.eps")
    if any(e <= 0 for e in eps):
        raise ConfigError("schedule.eps entries must be positive")
    if list(eps) != sorted(eps, reverse=True) or len(set(eps)) != len(eps):
        raise ConfigError("schedule.eps must be strictly decreasing")
    return eps


def _require_1d(cfg, family, kind):
    if family.dim != 1:
        raise ConfigError(
            f"{kind} studies discretize the operator and need a 1D family; "
            f"{cfg.get_str('family.name')} has dim {family.dim}"
        )


# cfg is unused; perfbench/oracle.py passes it (ROADMAP item 7a)
def _operator_spec(cfg, family):
    """The base operator on the family's domain; no key of cfg sets it."""
    from .fem import OperatorSpec

    return OperatorSpec(family.domain)


# mesh.min_elements and mesh.cap_dof when a config leaves them out
MIN_ELEMENTS = 64
CAP_DOF = 8192


def _mesh_opts(cfg):
    opts = {
        "min_elements": cfg.get_int("mesh.min_elements", MIN_ELEMENTS),
        "cap_dof": cfg.get_int("mesh.cap_dof", CAP_DOF),
    }
    if opts["min_elements"] < 2:
        raise ConfigError("mesh.min_elements must be at least 2, got "
                          f"{opts['min_elements']}")
    if opts["cap_dof"] < 1:
        raise ConfigError("mesh.cap_dof must be positive, got "
                          f"{opts['cap_dof']}")
    if opts["min_elements"] > opts["cap_dof"]:
        raise ConfigError(f"mesh.min_elements = {opts['min_elements']} "
                          f"exceeds mesh.cap_dof = {opts['cap_dof']}, "
                          "which it would override")
    return opts


def _row_seeds(seed, schedule):
    return [(seed + 1000 * i, eps) for i, eps in enumerate(schedule)]


def _criterion_exponents(cfg):
    return cfg.get_floats("criterion.exponents", (0.3, 0.4, 0.5, 0.6, 0.7))


# criterion_study's verdict: bound_m1m1 <= RATE_FACTOR * predicted on every
# row.  On the shipped configs the 11 families whose declared limit is
# right reach at most 1.011 (sparse_criterion), 1.98-fold below the factor,
# and sign_criterion, whose declared limit is wrong, reads 10.72 to 13.62,
# at least 5.36-fold above it.  Never raise the factor to make a row pass
RATE_FACTOR = 2.0


def criterion_study(cfg, seed):
    """Optimized cell-criterion table over the epsilon schedule.

    The footer gives the largest bound_m1m1 / predicted and the verdict:
    rate_certified when bound_m1m1 <= RATE_FACTOR * predicted on every
    row, the criterion bound then following the family's declared rate,
    and not_certified otherwise.
    """
    family = registry.build_family(cfg)
    schedule = _schedule(cfg)
    exponents = _criterion_exponents(cfg)
    refine = cfg.get_int("criterion.refine", 0)
    if not 0 <= refine <= MAX_REFINE:
        raise ConfigError(f"criterion.refine must be from 0 to {MAX_REFINE} "
                          f"(0 derives it from the family), got {refine}")
    refine = refine or None

    rows = []
    for eps in schedule:
        eta, rep = criteria.optimize_eta(family, eps, exponents, refine=refine)
        rows.append({
            "eps": eps,
            "eta": eta,
            "rho1": rep.rho1,
            "rho3": rep.rho3,
            "bound_m1m1": rep.bound_m1m1,
            "bound_m10": rep.bound_m10,
            "quad_error": rep.quad_error,
            "cell_count": rep.cell_count,
            "predicted": family.rate(eps),
        })
    certified = all(r["bound_m1m1"] <= RATE_FACTOR * r["predicted"]
                    for r in rows)
    worst = max(r["bound_m1m1"] / r["predicted"] for r in rows)
    verdict = "rate_certified" if certified else "not_certified"
    footer = [f"# max bound_m1m1/predicted = {worst:.17g}",
              f"# verdict: {verdict}"]
    return _table(cfg, rows, fits=("bound_m1m1", "bound_m10"), footer=footer)


def homogenize_study(cfg, seed):
    """Local-mean limit identification against the declared limit.

    The declared limit is consistent when the gap between the window
    means at the finest eps and the declared limit's values is at most
    the budget, the sum of two terms:

    - the tail: the gap of the finest pair of successive eps.  It is the
      change the last step of the schedule made to the means, and so an
      estimate, not a bound, of how far they still are from their limit;
    - the window term sqrt(mu_final).  The gap compares a window mean
      over x + mu (0,1)^d with the declared limit's value at x, and for a
      limit of Lipschitz constant Lip they differ by up to Lip mu / 2.
      sqrt(mu) covers that for every Lip up to 2 / sqrt(mu_final), 13.4
      on two_scale_homogenize, whose limit x has Lip 1.

    There is no slack factor.  Measured margins (final gap against
    budget, at sample_points 33 and mu_power 0.5): two_scale_homogenize
    0.0156 against 0.162; sign_sin with its limit misdeclared as 0.5 is
    rejected, 0.518 against 0.191 on that schedule (sign_homogenize) and
    0.622 against 0.438 on sign_resolvent's, and with its true limit 0
    accepted, 0.018 against 0.191.  The families of the other nine
    resolvent configs, on their schedules, are accepted, the tightest
    sparse_bumps (0.429 against 0.763) and modulated_periodic (0.486
    against 1.209).

    A nan gap, from no sampled window at the final eps or at the finest
    pair, is no evidence: the declared limit is then not consistent.
    """
    family = registry.build_family(cfg)
    schedule = _schedule(cfg)
    if len(schedule) < 2:
        raise ConfigError("homogenize needs at least two schedule entries")
    points = cfg.get_int("homogenize.sample_points", 33)
    if points < 1:
        raise ConfigError(
            f"homogenize.sample_points must be at least 1, got {points}")
    mu_power = cfg.get_float("homogenize.mu_power", 0.5)
    if not mu_power > 0:
        raise ConfigError(
            f"homogenize.mu_power must be positive, got {mu_power!r}")
    rep = criteria.local_mean_limit(
        family, schedule,
        mu_rule=lambda eps: eps ** mu_power,
        sample_points=points,
    )
    limit_vals = family.limit.v(rep["grid"])

    # the last eps has no successor to compare with
    pair_gaps = rep["pair_gaps"] + [math.nan]
    rows = []
    for eps, vals, pair_gap in zip(schedule, rep["samples"], pair_gaps):
        rows.append({
            "eps": eps,
            "mu": eps ** mu_power,
            "declared_gap": criteria.worst_gap(zip(vals, limit_vals)),
            "pair_gap": pair_gap,
        })

    final_gap = rows[-1]["declared_gap"]
    budget = rep["pair_gaps"][-1] + math.sqrt(rep["mu_final"])
    consistent = final_gap <= budget
    footer = [
        f"# rho2 = {rep['rho2']:.17g}",
        f"# mu_final = {rep['mu_final']:.17g}",
        f"# finest_pair_gap = {rep['pair_gaps'][-1]:.17g}",
        f"# skipped_windows = {len(rep['skipped'])}",
        f"# declared_limit_consistent: {'true' if consistent else 'false'} "
        f"(gap {final_gap:.6g} vs budget {budget:.6g})",
    ]
    return _table(cfg, rows, footer=footer)


def norm_study(cfg, seed):
    """Multiplier norms of the deviation components per epsilon.

    Measures the assembled difference form against the triangle-type
    budget: sum over first-order weights of sqrt(d) |Q|_prod + |P|_prod
    plus the potential form norm.  A row with a flagged norm, or on a
    mesh capped below the resolution mesh_rule wants, is not within
    budget, and the footer then names its eps under flagged_rows or
    capped_rows.
    """
    from .fem import assemble_perturbation, assemble_triple, discretize
    from .norms import Space, norm_m10, norm_v_to_vstar

    family = registry.build_family(cfg)
    _require_1d(cfg, family, "norm")
    schedule = _schedule(cfg)
    op_spec = _operator_spec(cfg, family)
    opts = _mesh_opts(cfg)
    sqrt_d = math.sqrt(family.dim)

    rows, marks = [], []
    for row_seed, eps in _row_seeds(seed, schedule):
        op, mesh = discretize(op_spec, family, eps, **opts)
        refine, capped = mesh["refine"], mesh["capped"]
        trip = deviation_triple(family, eps)
        pert = assemble_triple(op.space, trip, refine)
        h1 = Space(op.gram_h1)  # every norm of the row shares the factor
        rep_x = norm_v_to_vstar(pert.matrix, h1, seed=row_seed)
        # a bare potential's triple form is the potential form, under the
        # same seed: assembling the potential apart would measure it again
        rep_v = (norm_v_to_vstar(
            assemble_perturbation(op.space, trip.v, refine).matrix, h1,
            row_seed) if trip.q or trip.p else rep_x)
        reports = [rep_x, rep_v, norm_m10(op, trip.v, h1, refine, row_seed)]
        measured, v_m1m1, v_m10 = (rep.value for rep in reports)
        comps = {}
        chain = v_m1m1
        for name, weight, fields_ in (("q", sqrt_d, trip.q),
                                      ("p", 1.0, trip.p)):
            for j, f in enumerate(fields_):
                rep = norm_m10(op, f, h1, refine, row_seed)
                reports.append(rep)
                comps[f"{name}{j}_m10"] = rep.value
                chain += weight * rep.value
        flagged = any(rep.flagged for rep in reports)
        fits = measured <= chain * (1 + 1e-8) + 1e-12
        rows.append({
            "eps": eps,
            "n_elements": mesh["n_elements"],
            "norm_x": measured,
            "chain_bound": chain,
            "v_m1m1": v_m1m1,
            "v_m10": v_m10,
            "v_sup": sampled_sup(trip.v, family.domain),
            **comps,
            "within_budget": int(fits and not flagged and not capped),
        })
        marks.append({"fits": fits, "flagged": flagged, "capped": capped})

    footer = []
    if not all(m["fits"] for m in marks):
        footer.append("# budget_violation: measured norm exceeded the "
                      "multiplier chain bound")
    for mark in ("flagged", "capped"):
        marked = [row["eps"] for row, m in zip(rows, marks) if m[mark]]
        if marked:
            footer.append(f"# {mark}_rows=" + ";".join(f"{e:g}"
                                                        for e in marked))
    return _table(cfg, rows, fits=("norm_x", "v_m1m1"), footer=footer)


def _resolve_shift(cfg, settings):
    """Fixed negative shift, or a coercive one found by descent.

    operator.shift = auto runs the doubling search over the perturbed
    and the limit forms of every scheduled epsilon, so the returned
    shift is coercive on all of them; a fixed shift must be as well.
    """
    from .norms import (CoercivityError, _hermitian_part, find_lambda,
                        is_coercive)
    from .resolvent import shifted_forms

    raw = cfg.get("operator.shift", -2.0)
    if raw == "auto":
        rep = find_lambda(lambda lam: [
            (_hermitian_part(G), s["op"].gram_h1)
            for s in settings for G in shifted_forms(s, lam)])
        return rep.lambda0, rep
    if isinstance(raw, str):
        raise ConfigError("operator.shift must be a negative number or auto")
    lam = cfg.get_float("operator.shift", raw)  # raw: -2.0 when unset
    if lam >= 0:
        raise ConfigError("operator.shift must be negative")
    for s in settings:
        for name, G in zip(("Geps", "G0"), shifted_forms(s, lam)):
            if not is_coercive(G):
                raise CoercivityError(
                    f"{name} is not coercive at operator.shift = {lam:g} "
                    f"(eps = {s['meta']['eps']:g})")
    return lam, None


def _series_orders(cfg):
    orders = cfg.get_floats("series.orders", ())
    if not all(o.is_integer() for o in orders):
        raise ConfigError("series.orders must be whole numbers")
    orders = tuple(int(o) for o in orders)
    if any(o < 0 for o in orders) or list(orders) != sorted(set(orders)):
        raise ConfigError("series.orders must be increasing and nonnegative")
    return orders


def resolvent_study(cfg, seed):
    """Resolvent-difference convergence over the epsilon schedule.

    series.orders, when set, adds the truncated perturbation series at
    those orders to every row (see resolvent.convergence_row).

    Every epsilon's setting is assembled first, since the auto shift
    search needs all of their forms.  Once the shift is resolved, the
    settings are released row by row: each one is held only while its
    own row is measured.

    The footer gives the largest norm_L / bound_m1m1, the criterion's
    upper side of the link to |L|, and names the eps of any row where
    norm_L exceeds bound_m1m1 under norm_l_above_bound_rows.
    """
    from .resolvent import (assemble_setting, convergence_row,
                            convergence_verdict)

    family = registry.build_family(cfg)
    _require_1d(cfg, family, "resolvent")
    schedule = _schedule(cfg)
    if len(schedule) < 2:
        raise ConfigError("resolvent needs at least two schedule.eps "
                          "entries to judge convergence")
    orders = _series_orders(cfg)
    op_spec = _operator_spec(cfg, family)
    opts = _mesh_opts(cfg)
    exponents = _criterion_exponents(cfg)

    settings = [assemble_setting(op_spec, family, eps, **opts)
                for eps in schedule]
    lam, coercivity = _resolve_shift(cfg, settings)
    rows = []
    for row_seed, eps in _row_seeds(seed, schedule):
        # the list gives up each setting as its row starts, so no
        # earlier mesh is alive while a later, finer row runs
        rows.append(convergence_row(family, eps, lam, settings.pop(0),
                                    row_seed, exponents, orders))
    verdict, detail = convergence_verdict(rows)
    max_identity = max(r["identity_err"] for r in rows)
    footer = [f"# shift = {lam:.17g}"]
    if coercivity is not None:
        footer.append(f"# coercivity_c4 = {coercivity.c4:.17g}")
    detail_line = (f"# verdict_detail: "
                   f"kappa_shrinks={str(detail['kappa']).lower()} "
                   f"norm_l_shrinks={str(detail['norm_L']).lower()}")
    for key in ("flagged_rows", "capped_rows"):
        if key in detail:
            detail_line += f" {key}=" + ";".join(f"{e:g}" for e in detail[key])
    # the criterion's multiplier bound rho1 + eta > 0 must hold |L|;
    # norm_L is the Lanczos value, a lower estimate, until it carries a
    # certified upper end (ROADMAP item 3)
    link = max(r["norm_L"] / r["bound_m1m1"] for r in rows)
    footer += [
        f"# max_identity_err = {max_identity:.17g}",
        f"# max norm_L/bound_m1m1 = {link:.17g} "
        "(norm_L is a Lanczos lower estimate)",
    ]
    above = [r["eps"] for r in rows if r["norm_L"] > r["bound_m1m1"]]
    if above:
        footer.append("# norm_l_above_bound_rows="
                      + ";".join(f"{e:g}" for e in above))
    footer += [f"# verdict: {verdict}", detail_line]
    return _table(cfg, rows, fits=("kappa", "norm_L", "bound_m1m1"),
                  footer=footer)


_RUNNERS = {
    "criterion": criterion_study,
    "homogenize": homogenize_study,
    "norm": norm_study,
    "resolvent": resolvent_study,
}


def run_study(kind, cfg, seed):
    """Dispatch one study kind with the base seed of the --seed flag.

    Keys the study never read are rejected once it returns, so a
    misspelled key fails instead of running with the default.
    """
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown study kind {kind!r}")
    declared = cfg.get_str("study.kind", kind)
    if declared != kind:
        raise ConfigError(
            f"config declares study.kind = {declared}, but the {kind} "
            "study was requested"
        )
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    result = _RUNNERS[kind](cfg, seed=seed)
    cfg.check_all_used()
    return result
