"""Where the tracer attaches to homlab, and the per-layer metrics it yields.

Layers are homlab's modules, grouped as in the benchmark README:

    cli_study        cli + study: dispatch, row scheduling, CSV rendering
    config_registry  config + registry + families (fields, ergodic inside)
    criteria_lattice criteria + lattice: cell quadrature, optimize_eta
    fem              mesh, assembly, LinearSolver factor and solves
    norms            induced_norm, find_lambda, smallest_eigenvalue
    resolvent        contexts, identity_residual

Every frame name starts with its layer's module, so the self times of the
frames roll up into one self time per layer, and the layer self times add
up to the traced wall time of the studies.
"""

import inspect
import math

LAYERS = {
    "study": "cli_study",
    "cli": "cli_study",
    "config": "config_registry",
    "registry": "config_registry",
    "criteria": "criteria_lattice",
    "lattice": "criteria_lattice",
    "fem": "fem",
    "norms": "norms",
    "resolvent": "resolvent",
}

EXIT_MODES = ("residual", "stagnation", "plateau", "max_iter", "zero")


def install(tracer):
    """Patch homlab's layer boundaries into tracer.  Call after import."""
    from homlab import config, criteria, fem, lattice, norms, registry
    from homlab import resolvent, study

    counts = tracer.counts

    def count(key):
        def after(args, kwargs, result):
            counts[key] += 1
        return after

    def factor_size(args, kwargs, result):
        counts["fem.max_dof"] = max(counts["fem.max_dof"],
                                    args[0].shape[0])

    def power_exit(args, kwargs, result):
        _, sweeps, _, mode = result
        counts["norms.sweeps"] += sweeps
        counts[f"norms.exit.{mode}.n"] += 1

    def norm_flagged(args, kwargs, result):
        counts["norms.flagged.n"] += int(result.flagged)

    find_sig = inspect.signature(norms.find_lambda)

    def shifts(args, kwargs, result):
        bound = find_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        start = bound.arguments["lambda_start"]
        # the descent doubles the shift from lambda_start until one passes
        counts["norms.shifts_tried"] += round(
            math.log2(result.lambda0 / start)) + 1

    def csv_bytes(args, kwargs, result):
        counts["cli.write_csv.bytes"] += len(result.encode("utf-8"))

    tracer.patch(config.StudyConfig, "load", "config.load")
    tracer.patch(registry, "build_family", "registry.build_family")
    tracer.patch(criteria, "optimize_eta", "criteria.optimize_eta")
    tracer.patch(criteria, "criterion_report", timed=False,
                 after=count("criteria.criterion_report.n"))
    tracer.patch(criteria, "local_mean_limit", "criteria.local_mean_limit")
    tracer.patch(lattice, "cell_integral", "lattice.cell_integral", leaf=True)
    tracer.patch(fem, "assemble_base", "fem.assemble")
    tracer.patch(fem, "assemble_perturbation", "fem.assemble")
    tracer.patch(fem.LinearSolver, "__init__", "fem.factor", leaf=True,
                 after=factor_size)
    tracer.patch(fem.LinearSolver, "solve", "fem.solve", leaf=True)
    tracer.patch(fem.LinearSolver, "solve_pair", "fem.solve_pair", leaf=True)
    tracer.patch(fem.LinearSolver, "quick", "fem.quick", leaf=True)
    tracer.patch(norms, "induced_norm", "norms.induced_norm",
                 after=norm_flagged)
    tracer.patch(norms, "_power_singular", timed=False, after=power_exit)
    tracer.patch(norms, "find_lambda", "norms.find_lambda", after=shifts)
    tracer.patch(norms, "smallest_eigenvalue", "norms.smallest_eigenvalue")
    tracer.patch(resolvent, "assemble_setting", "resolvent.assemble_setting")
    tracer.patch(resolvent, "context_from_setting",
                 "resolvent.context_from_setting")
    tracer.patch(resolvent, "convergence_row", "resolvent.convergence_row")
    tracer.patch(resolvent, "identity_residual",
                 "resolvent.identity_residual")
    tracer.patch(study, "write_csv", "cli.write_csv", after=csv_bytes)


def layer_of(frame_name):
    return LAYERS[frame_name.split(".", 1)[0]]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, configs, untraced_wall, traced_wall):
    """Per-layer metric values of one traced pass, oracle ones aside.

    configs lists every config any workload runs; a config outside the
    traced workload reports 0.
    """
    st = tracer.self_times()
    counts = tracer.counts

    def n(name):
        return st.get(name, (0, 0.0))[0]

    def s(name):
        return st.get(name, (0, 0.0))[1]

    m = {}
    for cfg in configs:
        m[f"study.{cfg}.s"] = sum(
            rec[3] - rec[2] for rec in tracer.spans
            if rec is not None and rec[1] == f"study.{cfg}")
    m["registry.build_family.s"] = s("registry.build_family")
    m["criteria.optimize_eta.n"] = n("criteria.optimize_eta")
    m["criteria.optimize_eta.s"] = s("criteria.optimize_eta")
    m["criteria.criterion_report.n"] = counts["criteria.criterion_report.n"]
    m["criteria.candidates_per_row"] = _ratio(
        counts["criteria.criterion_report.n"], n("criteria.optimize_eta"))
    m["criteria.local_mean_limit.s"] = s("criteria.local_mean_limit")
    m["lattice.cell_integral.n"] = n("lattice.cell_integral")
    m["lattice.cell_integral.s"] = s("lattice.cell_integral")
    for name in ("assemble", "factor", "solve", "solve_pair", "quick"):
        m[f"fem.{name}.n"] = n(f"fem.{name}")
        m[f"fem.{name}.s"] = s(f"fem.{name}")
    m["fem.max_dof"] = counts["fem.max_dof"]
    m["norms.induced_norm.n"] = n("norms.induced_norm")
    m["norms.induced_norm.s"] = s("norms.induced_norm")
    m["norms.sweeps"] = counts["norms.sweeps"]
    exits = {mode: counts[f"norms.exit.{mode}.n"] for mode in EXIT_MODES}
    for mode, k in exits.items():
        m[f"norms.exit.{mode}.n"] = k
    m["norms.certified_frac"] = _ratio(exits["residual"] + exits["zero"],
                                       sum(exits.values()))
    m["norms.flagged.n"] = counts["norms.flagged.n"]
    for name in ("find_lambda", "smallest_eigenvalue"):
        m[f"norms.{name}.n"] = n(f"norms.{name}")
        m[f"norms.{name}.s"] = s(f"norms.{name}")
    m["norms.shifts_tried"] = counts["norms.shifts_tried"]
    for name in ("context_from_setting", "identity_residual"):
        m[f"resolvent.{name}.n"] = n(f"resolvent.{name}")
        m[f"resolvent.{name}.s"] = s(f"resolvent.{name}")
    m["cli.write_csv.s"] = s("cli.write_csv")
    m["cli.write_csv.bytes"] = counts["cli.write_csv.bytes"]
    layers = dict.fromkeys(sorted(set(LAYERS.values())), 0.0)
    for name, (_, secs) in st.items():
        layers[layer_of(name)] += secs
    for layer, secs in layers.items():
        m[f"layer.{layer}.s"] = secs
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return {k: float(v) for k, v in m.items()}
