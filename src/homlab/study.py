"""Config-driven studies producing deterministic CSV tables.

A study maps a decreasing epsilon schedule (or a series-order schedule)
to one measurement row per entry.  Rows are computed independently, so
they parallelize over threads without changing the output bytes: every
row gets its seed from the base seed and its schedule index, and rows
are written in schedule order regardless of completion order.

Import boundary: the criterion and homogenize studies need only cell
quadrature, so this module does not import fem, norms or resolvent, and
through them SciPy, when it loads.  The norm, resolvent and neumann
studies import what they use at the top of their own body, in the
calling thread, before any row worker starts: a first import never runs
inside a worker, and a cell-criterion run starts without SciPy's import
cost.
"""

import math
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import criteria, registry
from .config import ConfigError
from .families import deviation_triple
from .fields import sampled_sup

STUDY_KINDS = ("criterion", "homogenize", "norm", "resolvent", "neumann")


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
    footer: tuple = ()
    echo: tuple = ()
    meta: dict = dc_field(default_factory=dict)


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


def _parallel(items, fn, threads):
    """Index-ordered map, optionally over a thread pool."""
    items = list(items)
    if threads and threads > 1 and len(items) > 1:
        out = [None] * len(items)
        with ThreadPoolExecutor(max_workers=threads) as ex:
            futures = {ex.submit(fn, i, item): i for i, item in enumerate(items)}
            for fut in as_completed(futures):
                out[futures[fut]] = fut.result()
        return out
    return [fn(i, item) for i, item in enumerate(items)]


def _schedule(cfg):
    eps = cfg.get_floats("schedule.eps")
    if any(e <= 0 for e in eps):
        raise ConfigError("schedule.eps entries must be positive")
    if list(eps) != sorted(eps, reverse=True) or len(set(eps)) != len(eps):
        raise ConfigError("schedule.eps must be strictly decreasing")
    return eps


def _require_1d(family, kind):
    if family.dim != 1:
        raise ConfigError(
            f"{kind} studies discretize the operator and need a 1D family; "
            f"{family.name} has dim {family.dim}"
        )


def _operator_spec(cfg, family):
    """The base operator on the family's domain; no key of cfg sets it."""
    from .fem import OperatorSpec

    return OperatorSpec(family.domain, family.ncomp)


def _mesh_opts(cfg):
    from .fem import CAP_DOF, MIN_ELEMENTS

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
    return opts


def _criterion_exponents(cfg):
    return cfg.get_floats("criterion.exponents",
                          criteria.DEFAULT_ETA_EXPONENTS)


def criterion_study(cfg, seed=1234, threads=1):
    """Optimized cell-criterion table over the epsilon schedule."""
    family = registry.build_family(cfg)
    schedule = _schedule(cfg)
    exponents = _criterion_exponents(cfg)
    refine = cfg.get_int("criterion.refine", 0)
    if refine < 0:
        raise ConfigError("criterion.refine must be nonnegative (0 derives "
                          "it from the family)")
    refine = refine or None

    def one(i, eps):
        eta, rep = criteria.optimize_eta(family, eps, exponents, refine=refine)
        return {
            "eps": eps,
            "eta": eta,
            "rho1": rep.rho1,
            "rho3": rep.rho3,
            "bound_m1m1": rep.bound_m1m1,
            "bound_m10": rep.bound_m10,
            "quad_error": rep.quad_error,
            "cell_count": rep.cell_count,
            "predicted": family.rate(eps),
        }

    rows = _parallel(schedule, one, threads)
    eps_col = [r["eps"] for r in rows]
    footer = [
        _fit_line("bound_m1m1", eps_col, [r["bound_m1m1"] for r in rows]),
        _fit_line("bound_m10", eps_col, [r["bound_m10"] for r in rows]),
    ]
    return StudyResult(
        fieldnames=("eps", "eta", "rho1", "rho3", "bound_m1m1", "bound_m10",
                    "quad_error", "cell_count", "predicted"),
        rows=tuple(rows),
        footer=tuple(footer),
        echo=tuple(cfg.echo()),
        meta={"family": family.name},
    )


def homogenize_study(cfg, seed=1234, threads=1):
    """Local-mean limit identification against the declared limit.

    A row with no sampled window has a nan gap, and a nan gap at the final
    eps is no evidence: the declared limit is then not consistent.  So is
    a nan rho2, which says no window was sampled at two successive eps.
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
    slack = cfg.get_float("homogenize.slack", 1.5)
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
    budget = slack * rep["bound"]
    consistent = final_gap <= budget
    footer = [
        f"# rho2 = {rep['rho2']:.17g}",
        f"# mu_final = {rep['mu_final']:.17g}",
        f"# bound = {rep['bound']:.17g}",
        f"# skipped_windows = {len(rep['skipped'])}",
        f"# declared_limit_consistent: {'true' if consistent else 'false'} "
        f"(gap {final_gap:.6g} vs budget {budget:.6g})",
    ]
    return StudyResult(
        fieldnames=("eps", "mu", "declared_gap", "pair_gap"),
        rows=tuple(rows),
        footer=tuple(footer),
        echo=tuple(cfg.echo()),
        meta={"family": family.name, "consistent": consistent},
    )


def norm_study(cfg, seed=1234, threads=1):
    """Multiplier norms of the deviation components per epsilon.

    Measures the assembled difference form against the triangle-type
    budget: sum over first-order weights of sqrt(d) |Q|_prod + |P|_prod
    plus the potential form norm.  A row with a flagged norm, or on a
    mesh capped below the resolution mesh_rule wants, is not within
    budget, and the footer then names its eps under flagged_rows or
    capped_rows.
    """
    from .fem import (assemble_base, assemble_triple, build_mesh, mesh_rule,
                      perturbation_refine)
    from .norms import norm_m1m1, norm_m10, norm_v_to_vstar

    family = registry.build_family(cfg)
    _require_1d(family, "norm")
    schedule = _schedule(cfg)
    op_spec = _operator_spec(cfg, family)
    opts = _mesh_opts(cfg)
    sqrt_d = math.sqrt(family.dim)

    probe = deviation_triple(family, schedule[0])
    comp_fields = [f"q{j}_m10" for j in range(len(probe.q))]
    comp_fields += [f"p{j}_m10" for j in range(len(probe.p))]
    fieldnames = tuple(
        ["eps", "n_elements", "norm_x", "chain_bound", "v_m1m1", "v_m10",
         "v_sup"] + comp_fields + ["within_budget"]
    )

    def one(i, eps):
        row_seed = seed + 1000 * i
        finest = family.finest_scale(eps)
        n, capped = mesh_rule(finest, ncomp=family.ncomp, **opts)
        mesh = build_mesh(family.domain, n)
        op = assemble_base(op_spec, mesh)
        refine = perturbation_refine(op.space, finest)
        trip = deviation_triple(family, eps)
        pert = assemble_triple(op.space, trip, refine)
        rep_x = norm_v_to_vstar(pert.matrix, op.gram_h1, seed=row_seed)
        # a bare potential's triple form is the potential form, under the
        # same seed: norm_m1m1 would measure it again
        rep_v = (norm_m1m1(op, trip.v, refine, row_seed)
                 if trip.q or trip.p else rep_x)
        reports = [rep_x, rep_v, norm_m10(op, trip.v, refine, row_seed)]
        measured, v_m1m1, v_m10 = (rep.value for rep in reports)
        v_sup = sampled_sup(trip.v, family.domain)
        row = {
            "eps": eps,
            "n_elements": n,
            "v_m1m1": v_m1m1,
            "v_m10": v_m10,
            "v_sup": v_sup,
        }
        chain = v_m1m1
        for j, qf in enumerate(trip.q):
            rep = norm_m10(op, qf, refine, row_seed)
            reports.append(rep)
            row[f"q{j}_m10"] = rep.value
            chain += sqrt_d * rep.value
        for j, pf in enumerate(trip.p):
            rep = norm_m10(op, pf, refine, row_seed)
            reports.append(rep)
            row[f"p{j}_m10"] = rep.value
            chain += rep.value
        row["norm_x"] = measured
        row["chain_bound"] = chain
        flagged = any(rep.flagged for rep in reports)
        fits = measured <= chain * (1 + 1e-8) + 1e-12
        row["within_budget"] = int(fits and not flagged and not capped)
        return row, fits, {"flagged": flagged, "capped": capped}

    results = _parallel(schedule, one, threads)
    rows = [row for row, _, _ in results]
    eps_col = [r["eps"] for r in rows]
    footer = [
        _fit_line("norm_x", eps_col, [r["norm_x"] for r in rows]),
        _fit_line("v_m1m1", eps_col, [r["v_m1m1"] for r in rows]),
    ]
    if not all(fits for _, fits, _ in results):
        footer.append("# budget_violation: measured norm exceeded the "
                      "multiplier chain bound")
    for mark in ("flagged", "capped"):
        marked = [row["eps"] for row, _, marks in results if marks[mark]]
        if marked:
            footer.append(f"# {mark}_rows=" + ";".join(f"{e:g}"
                                                        for e in marked))
    return StudyResult(
        fieldnames=fieldnames,
        rows=tuple(rows),
        footer=tuple(footer),
        echo=tuple(cfg.echo()),
        meta={"family": family.name},
    )


def _resolve_shift(cfg, settings, seed):
    """Fixed negative shift, or a coercive one found by descent.

    operator.shift = auto runs the doubling search over the perturbed
    and the limit forms of every scheduled epsilon, so the returned
    shift is uniformly coercive across the whole study.
    """
    from .norms import find_lambda

    raw = cfg.get("operator.shift", -2.0)
    if isinstance(raw, str):
        if raw != "auto":
            raise ConfigError("operator.shift must be a negative number "
                              "or auto")
        forms, masses, grams = [], [], []
        for s in settings:
            op = s["op"]
            forms.append((op.base_form + s["x_eps"]).tocsr())
            forms.append((op.base_form + s["x_lim"]).tocsr())
            masses.extend([op.gram_l2, op.gram_l2])
            grams.extend([op.gram_h1, op.gram_h1])
        rep = find_lambda(forms, masses, grams, seed=seed)
        return rep.lambda0, rep
    lam = float(raw)
    if lam >= 0:
        raise ConfigError("operator.shift must be negative")
    return lam, None


def resolvent_study(cfg, seed=1234, threads=1):
    """Resolvent-difference convergence over the epsilon schedule."""
    from .resolvent import (assemble_setting, convergence_row,
                            convergence_verdict)

    family = registry.build_family(cfg)
    _require_1d(family, "resolvent")
    schedule = _schedule(cfg)
    op_spec = _operator_spec(cfg, family)
    opts = _mesh_opts(cfg)
    exponents = _criterion_exponents(cfg)

    settings = _parallel(
        schedule,
        lambda i, eps: assemble_setting(op_spec, family, eps, **opts),
        threads,
    )
    lam, coercivity = _resolve_shift(cfg, settings, seed)

    def one(i, pair):
        eps, setting = pair
        return convergence_row(family, eps, lam, setting,
                               seed=seed + 1000 * i,
                               eta_exponents=exponents)

    rows = _parallel(zip(schedule, settings), one, threads)
    verdict, detail = convergence_verdict(rows)
    eps_col = [r["eps"] for r in rows]
    max_identity = max(r["identity_err"] for r in rows)
    footer = [
        _fit_line("kappa", eps_col, [r["kappa"] for r in rows]),
        _fit_line("norm_L", eps_col, [r["norm_L"] for r in rows]),
        _fit_line("bound_m1m1", eps_col, [r["bound_m1m1"] for r in rows]),
        f"# shift = {lam:.17g}",
    ]
    if coercivity is not None:
        footer.append(f"# coercivity_c4 = {coercivity.c4:.17g}")
    detail_line = (f"# verdict_detail: "
                   f"kappa_shrinks={str(detail['kappa']).lower()} "
                   f"norm_l_shrinks={str(detail['norm_L']).lower()}")
    for key in ("flagged_rows", "capped_rows"):
        if key in detail:
            detail_line += f" {key}=" + ";".join(f"{e:g}" for e in detail[key])
    footer += [
        f"# max_identity_err = {max_identity:.17g}",
        f"# verdict: {verdict}",
        detail_line,
    ]
    fieldnames = ("eps", "n_elements", "capped", "eta", "rho1", "rho3",
                  "bound_m1m1", "bound_m10", "kappa", "norm_L",
                  "identity_err", "predicted", "flagged")
    return StudyResult(
        fieldnames=fieldnames,
        rows=tuple(rows),
        footer=tuple(footer),
        echo=tuple(cfg.echo()),
        meta={"family": family.name, "verdict": verdict},
    )


def neumann_study(cfg, seed=1234, threads=1):
    """Truncated-series error table at one fixed epsilon."""
    from .resolvent import (assemble_setting, context_from_setting,
                            truncation_study)

    family = registry.build_family(cfg)
    _require_1d(family, "neumann")
    eps = cfg.get_float("study.eps")
    if eps <= 0:
        raise ConfigError("study.eps must be positive")
    orders = cfg.get_floats("schedule.orders", (0.0, 1.0, 2.0, 3.0, 4.0))
    if not all(o.is_integer() for o in orders):
        raise ConfigError("schedule.orders must be whole numbers")
    orders = tuple(int(o) for o in orders)
    if any(o < 0 for o in orders) or list(orders) != sorted(set(orders)):
        raise ConfigError("schedule.orders must be increasing and nonnegative")
    lam = cfg.get_float("operator.shift", -2.0)
    if lam >= 0:
        raise ConfigError("operator.shift must be negative")
    op_spec = _operator_spec(cfg, family)
    opts = _mesh_opts(cfg)
    ctx = context_from_setting(assemble_setting(op_spec, family, eps, **opts),
                               lam)
    rep = truncation_study(ctx, orders, seed=seed)
    rows = [dict(r) for r in rep.rows]
    footer = [
        f"# eps = {eps:.17g}",
        f"# norm_L = {rep.norm_L:.17g}",
        f"# c2 = {rep.c2:.17g}",
        f"# contraction = {rep.contraction:.17g}",
        f"# divergent: {'true' if rep.divergent else 'false'}",
    ]
    if rep.flagged:
        footer.append("# norm_flagged: some norm missed its residual "
                      "tolerance")
    return StudyResult(
        fieldnames=("order", "error", "bound", "ratio_vs_prev"),
        rows=tuple(rows),
        footer=tuple(footer),
        echo=tuple(cfg.echo()),
        meta={"family": family.name, "report": rep},
    )


_RUNNERS = {
    "criterion": criterion_study,
    "homogenize": homogenize_study,
    "norm": norm_study,
    "resolvent": resolvent_study,
    "neumann": neumann_study,
}


def run_study(kind, cfg, seed=1234, threads=1):
    """Dispatch one study kind with the base seed and row thread count of
    the --seed and --threads flags.

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
    if threads < 1:
        raise ConfigError("--threads must be at least 1")
    result = _RUNNERS[kind](cfg, seed=seed, threads=threads)
    cfg.check_all_used()
    return result
