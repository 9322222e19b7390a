"""Config-driven studies producing deterministic CSV tables.

A study maps a decreasing epsilon schedule (or a series-order schedule)
to one measurement row per entry.  Rows are computed independently, so
they parallelize over threads without changing the output bytes: every
row gets its seed from the base seed and its schedule index, and rows
are written in schedule order regardless of completion order.
"""

import math
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import criteria, registry
from .config import ConfigError, StudyConfig
from .fem import (assemble_base, assemble_triple, build_mesh, mesh_rule,
                  perturbation_refine)
from .fields import constant_field, matrix_abs, sampled_sup
from .norms import find_lambda, norm_m1m1, norm_m10, norm_v_to_vstar
from .resolvent import (assemble_setting, build_setting, convergence_row,
                        convergence_verdict, deviation_triple,
                        truncation_study)

STUDY_KINDS = ("criterion", "homogenize", "norm", "resolvent", "neumann")


@dataclass(frozen=True)
class StudyResult:
    """One finished study: rows plus provenance for the CSV header."""

    kind: str
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


def _schedule(cfg, key="schedule.eps"):
    eps = cfg.get_floats(key)
    if any(e <= 0 for e in eps):
        raise ConfigError(f"{key} entries must be positive")
    if list(eps) != sorted(eps, reverse=True) or len(set(eps)) != len(eps):
        raise ConfigError(f"{key} must be strictly decreasing")
    return eps


def _require_1d(family, kind):
    if family.dim != 1:
        raise ConfigError(
            f"{kind} studies discretize the operator and need a 1D family; "
            f"{family.name} has dim {family.dim}"
        )


def _operator_spec(cfg, family):
    from .fem import OperatorSpec

    a11 = cfg.get_float("operator.a11", 1.0)
    a0v = cfg.get_float("operator.a0", 0.0)
    bc = cfg.get_str("operator.bc", "dirichlet")
    if bc not in ("dirichlet", "robin"):
        raise ConfigError("operator.bc must be dirichlet or robin")
    if a11 <= 0:
        raise ConfigError("operator.a11 must be positive")
    n = family.ncomp
    eye = constant_field(1, a11 * np.eye(n), family.domain)
    a0 = None
    if a0v:
        a0 = constant_field(1, a0v * np.eye(n), family.domain)
    kz = np.zeros((n, n))
    return OperatorSpec(family.domain, n, eye, a0=a0, bc=bc,
                        k_lower=kz, k_upper=kz, c1=a11)


def _mesh_opts(cfg):
    return {
        "min_elements": cfg.get_int("mesh.min_elements", 64),
        "cap_dof": cfg.get_int("mesh.cap_dof", 8192),
    }


def _lattice_for(cfg, family):
    if cfg.get_bool("criterion.use_suggested_lattice", True):
        return family.meta.get("suggested_lattice")
    return None


def _criterion_exponents(cfg):
    return cfg.get_floats("criterion.exponents",
                          criteria.DEFAULT_ETA_EXPONENTS)


def criterion_study(cfg, seed=1234, threads=1):
    """Optimized cell-criterion table over the epsilon schedule."""
    family = registry.build_family(cfg)
    schedule = _schedule(cfg)
    exponents = _criterion_exponents(cfg)
    objective = cfg.get_str("criterion.objective", "m1m1")
    lattice = _lattice_for(cfg, family)
    refine = cfg.get_int("criterion.refine", 0) or None

    def one(i, eps):
        eta, rep = criteria.optimize_eta(family, eps, exponents, lattice,
                                         refine=refine, objective=objective)
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
        kind="criterion",
        fieldnames=("eps", "eta", "rho1", "rho3", "bound_m1m1", "bound_m10",
                    "quad_error", "cell_count", "predicted"),
        rows=tuple(rows),
        footer=tuple(footer),
        echo=tuple(cfg.echo()),
        meta={"family": family.name},
    )


def homogenize_study(cfg, seed=1234, threads=1):
    """Local-mean limit identification against the declared limit."""
    family = registry.build_family(cfg)
    schedule = _schedule(cfg)
    if len(schedule) < 2:
        raise ConfigError("homogenize needs at least two schedule entries")
    points = cfg.get_int("homogenize.sample_points", 33)
    mu_power = cfg.get_float("homogenize.mu_power", 0.5)
    slack = cfg.get_float("homogenize.slack", 1.5)
    candidate, rep = criteria.local_mean_limit(
        family, schedule,
        mu_rule=lambda eps: eps ** mu_power,
        sample_points=points,
    )
    grid = rep["grid"]
    samples = rep["samples"]
    limit_vals = family.limit.v(grid)

    rows = []
    for i, eps in enumerate(schedule):
        declared_gap = 0.0
        for k, val in enumerate(samples[i]):
            if val is None:
                continue
            declared_gap = max(declared_gap,
                               float(matrix_abs(val - limit_vals[k])))
        pair_gap = math.nan
        if i + 1 < len(schedule):
            pair_gap = 0.0
            for va, vb in zip(samples[i], samples[i + 1]):
                if va is None or vb is None:
                    continue
                pair_gap = max(pair_gap, float(matrix_abs(va - vb)))
        rows.append({
            "eps": eps,
            "mu": eps ** mu_power,
            "declared_gap": declared_gap,
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
        kind="homogenize",
        fieldnames=("eps", "mu", "declared_gap", "pair_gap"),
        rows=tuple(rows),
        footer=tuple(footer),
        echo=tuple(cfg.echo()),
        meta={"family": family.name, "consistent": consistent,
              "rho2": rep["rho2"], "bound": rep["bound"],
              "final_gap": final_gap, "candidate": candidate},
    )


def norm_study(cfg, seed=1234, threads=1):
    """Multiplier norms of the deviation components per epsilon.

    Measures the assembled difference form against the triangle-type
    budget: sum over first-order weights of sqrt(d) |Q|_prod + |P|_prod
    plus the potential form norm.
    """
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
        n, _ = mesh_rule(finest, ncomp=family.ncomp, **opts)
        mesh = build_mesh(family.domain, n)
        op = assemble_base(op_spec, mesh)
        refine = perturbation_refine(op.space, finest)
        trip = deviation_triple(family, eps)
        pert = assemble_triple(op.space, trip, refine)
        measured = norm_v_to_vstar(pert.matrix, op.gram_h1,
                                   seed=row_seed).value
        v_m1m1 = norm_m1m1(op, trip.v, refine, row_seed).value
        v_m10 = norm_m10(op, trip.v, refine, row_seed).value
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
            val = norm_m10(op, qf, refine, row_seed).value
            row[f"q{j}_m10"] = val
            chain += sqrt_d * val
        for j, pf in enumerate(trip.p):
            val = norm_m10(op, pf, refine, row_seed).value
            row[f"p{j}_m10"] = val
            chain += val
        row["norm_x"] = measured
        row["chain_bound"] = chain
        row["within_budget"] = int(measured <= chain * (1 + 1e-8) + 1e-12)
        return row

    rows = _parallel(schedule, one, threads)
    eps_col = [r["eps"] for r in rows]
    footer = [
        _fit_line("norm_x", eps_col, [r["norm_x"] for r in rows]),
        _fit_line("v_m1m1", eps_col, [r["v_m1m1"] for r in rows]),
    ]
    if not all(r["within_budget"] for r in rows):
        footer.append("# budget_violation: measured norm exceeded the "
                      "multiplier chain bound")
    return StudyResult(
        kind="norm",
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
    family = registry.build_family(cfg)
    _require_1d(family, "resolvent")
    schedule = _schedule(cfg)
    op_spec = _operator_spec(cfg, family)
    opts = _mesh_opts(cfg)
    exponents = _criterion_exponents(cfg)
    lattice = _lattice_for(cfg, family)

    settings = _parallel(
        schedule,
        lambda i, eps: assemble_setting(op_spec, family, eps, **opts),
        threads,
    )
    lam, coercivity = _resolve_shift(cfg, settings, seed)

    def one(i, pair):
        eps, setting = pair
        return convergence_row(op_spec, family, eps, lam,
                               seed=seed + 1000 * i,
                               eta_exponents=exponents, lattice=lattice,
                               setting=setting)

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
        kind="resolvent",
        fieldnames=fieldnames,
        rows=tuple(rows),
        footer=tuple(footer),
        echo=tuple(cfg.echo()),
        meta={"family": family.name, "verdict": verdict, "detail": detail,
              "shift": lam, "coercivity": coercivity,
              "max_identity_err": max_identity},
    )


def neumann_study(cfg, seed=1234, threads=1):
    """Truncated-series error table at one fixed epsilon."""
    family = registry.build_family(cfg)
    _require_1d(family, "neumann")
    eps = cfg.get_float("study.eps")
    if eps <= 0:
        raise ConfigError("study.eps must be positive")
    orders = tuple(int(o) for o in cfg.get_floats("schedule.orders",
                                                  (0.0, 1.0, 2.0, 3.0, 4.0)))
    if any(o < 0 for o in orders) or list(orders) != sorted(set(orders)):
        raise ConfigError("schedule.orders must be increasing and nonnegative")
    lam = cfg.get_float("operator.shift", -2.0)
    if lam >= 0:
        raise ConfigError("operator.shift must be negative")
    op_spec = _operator_spec(cfg, family)
    opts = _mesh_opts(cfg)
    ctx = build_setting(op_spec, family, eps, lam, **opts)
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
        kind="neumann",
        fieldnames=("order", "error", "bound", "ratio_vs_prev"),
        rows=tuple(rows),
        footer=tuple(footer),
        echo=tuple(cfg.echo()),
        meta={"family": family.name, "report": rep,
              "n_elements": ctx.meta["n_elements"]},
    )


_RUNNERS = {
    "criterion": criterion_study,
    "homogenize": homogenize_study,
    "norm": norm_study,
    "resolvent": resolvent_study,
    "neumann": neumann_study,
}


def run_study(kind, cfg, seed=None, threads=None):
    """Dispatch one study kind; flags override run.* config keys.

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
    # read the run.* keys even when a flag overrides them: they are known
    cfg_seed = cfg.get_int("run.seed", 1234)
    cfg_threads = cfg.get_int("run.threads", 1)
    use_seed = seed if seed is not None else cfg_seed
    use_threads = threads if threads is not None else cfg_threads
    if use_threads < 1:
        raise ConfigError("run.threads must be at least 1")
    result = _RUNNERS[kind](cfg, seed=use_seed, threads=use_threads)
    cfg.check_all_used()
    return result
