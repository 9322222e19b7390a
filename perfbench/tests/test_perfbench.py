"""Tests of the benchmark harness itself, on tiny studies.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import probes  # noqa: E402
import run  # noqa: E402
from calibrate import REFERENCE_S, calibrate, host_scaled  # noqa: E402
from checks import check_study, notes  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ALL_CONFIGS, WORKLOADS  # noqa: E402

from homlab import norms, study  # noqa: E402
from homlab.cli import main  # noqa: E402
from homlab.study import read_csv  # noqa: E402

TINY = {
    "tiny_resolvent": """
study.kind = resolvent
family.name = regular_sin
schedule.eps = 0.2, 0.1
operator.shift = auto
mesh.min_elements = 16
""",
    "tiny_criterion": """
study.kind = criterion
family.name = regular_sin
schedule.eps = 0.1, 0.05
criterion.exponents = 0.5
criterion.refine = 16
""",
    "tiny_norm": """
study.kind = norm
family.name = regular_sin
schedule.eps = 0.2, 0.1
mesh.min_elements = 16
""",
}


@pytest.fixture
def tiny(tmp_path):
    for name, text in TINY.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    return tmp_path


def _run(tmp, name, seed=5):
    kind = name.split("_")[1]
    out = tmp / f"{name}-{seed}.csv"
    code = main([kind, "--config", str(tmp / f"{name}.cfg"), "--out",
                 str(out), "--threads", "1", "--seed", str(seed)])
    return code, out


def _traced(tmp, names):
    tracer = Tracer()
    probes.install(tracer)
    try:
        for i, name in enumerate(names):
            with tracer.study(i, "study." + name):
                assert _run(tmp, name)[0] == 0
    finally:
        tracer.restore()
    return tracer


def test_self_times_add_up_to_the_root():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "fem.solve", leaf=True)
    inner = tracer.wrap(lambda: leaf(), "norms.induced_norm")
    with tracer.study(0, "study.x"):
        inner()
        leaf()
    root = [rec for rec in tracer.spans if rec[1] == "study.x"][0]
    total = sum(secs for _, secs in tracer.self_times().values())
    assert total == root[3] - root[2]
    assert tracer.self_times()["fem.solve"][0] == 2
    assert tracer.study_self_times(0)["fem.solve"] == 2.0


def test_every_layer_is_reached_on_tiny_studies(tiny):
    tracer = _traced(tiny, ["tiny_criterion", "tiny_resolvent", "tiny_norm"])
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    for frame in ("config.load", "registry.build_family",
                  "criteria.optimize_eta", "lattice.cell_integral",
                  "fem.assemble", "fem.factor", "fem.solve",
                  "fem.solve_pair", "fem.quick", "norms.induced_norm",
                  "norms.find_lambda", "norms.smallest_eigenvalue",
                  "resolvent.context_from_setting",
                  "resolvent.identity_residual", "cli.write_csv"):
        assert calls.get(frame, 0) > 0, frame
    metrics = probes.per_layer(tracer, ALL_CONFIGS, 1.0, 1.0)
    layers = [k for k in metrics if k.startswith("layer.")]
    assert len(layers) == len(set(probes.LAYERS.values()))
    assert all(metrics[k] > 0 for k in layers)
    assert metrics["norms.sweeps"] > 0
    assert metrics["norms.shifts_tried"] >= 1
    assert metrics["criteria.candidates_per_row"] >= 1
    roots = sum(rec[3] - rec[2] for rec in tracer.spans
                if rec[1].startswith("study."))
    assert sum(metrics[k] for k in layers) == pytest.approx(roots)


def test_patching_catches_names_imported_into_other_modules(tiny):
    original = norms.find_lambda
    assert study.find_lambda is original
    tracer = Tracer()
    probes.install(tracer)
    try:
        assert study.find_lambda is not original
        assert study.find_lambda is norms.find_lambda
        with tracer.study(0, "study.tiny_resolvent"):
            assert _run(tiny, "tiny_resolvent")[0] == 0
    finally:
        tracer.restore()
    assert study.find_lambda is original
    assert tracer.self_times()["norms.find_lambda"][0] == 1


def test_per_layer_names_match_benchmark_json(tiny):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = probes.per_layer(Tracer(), ALL_CONFIGS, 1.0, 1.0)
    added_by_run = {"norms.oracle_max_rel_err", "oracle.misses",
                    "host.probe_s"}
    assert set(metrics) | added_by_run == {m["name"]
                                           for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_oracle_agrees_and_flags_a_perturbed_value(tiny):
    _, out = _run(tiny, "tiny_resolvent")
    _, rows, comments = read_csv(out)
    info = notes(comments)
    oracle = Oracle(str(tiny))
    checks = oracle.check("tiny_resolvent", "resolvent", rows, info)
    values = [c for c in checks if not c.bound]
    assert len(values) == 2 * len(rows)
    assert all(c.ok for c in values)

    rows[0]["kappa"] *= 1 + 1e-6
    info["coercivity_c4"] = str(checks[-1].ref * (1 + 1e-6))
    missed = [c.label for c in oracle.check("tiny_resolvent", "resolvent",
                                            rows, info) if not c.ok]
    assert any(label.endswith("kappa") for label in missed)
    assert any("coercivity_c4" in label for label in missed)

    _, out = _run(tiny, "tiny_norm")
    _, rows, comments = read_csv(out)
    checks = oracle.check("tiny_norm", "norm", rows, notes(comments))
    assert checks and all(c.ok for c in checks)


def _pass(label, seed, studies, timed=True):
    return {"label": label, "seed": seed, "timed": timed, "traced": False,
            "wall_s": 1.0, "studies": studies}


def _study(name, csv, code=0, error=None):
    return {"name": name, "kind": name.split("_")[1], "code": code,
            "error": error, "csv": str(csv)}


def _fail_frac(problems):
    return sum(1 for *_, found in problems if found) / len(problems)


def test_failed_checks_raise_fail_frac(tiny):
    oracle = Oracle(str(tiny))
    _, crit = _run(tiny, "tiny_criterion")
    ok = [_pass("warmup", 5, [_study("tiny_criterion", crit)], timed=False),
          _pass("pass0", 5, [_study("tiny_criterion", crit)])]
    problems, _ = run.evaluate(ok, oracle)
    assert _fail_frac(problems) == 0

    # two-row tiny schedule: kappa does not halve, so not convergent
    _, res = _run(tiny, "tiny_resolvent")
    crashed = _study("tiny_norm", crit, code=3)
    changed = tiny / "changed.csv"
    changed.write_bytes(crit.read_bytes().replace(b"eta", b"eta ", 1))
    bad = ok + [_pass("pass1", 5, [_study("tiny_resolvent", res), crashed,
                                   _study("tiny_criterion", changed)])]
    problems, _ = run.evaluate(bad, oracle)
    found = {name: found for label, name, found in problems
             if label == "pass1"}
    assert "verdict not_convergent, expected convergent" in \
        found["tiny_resolvent"]
    assert found["tiny_norm"] == ["exit code 3"]
    assert any("differ" in p for p in found["tiny_criterion"])
    assert _fail_frac(problems) == pytest.approx(3 / 5)


def test_host_scaling_divides_out_the_probe():
    assert calibrate(rounds=5) > 0
    assert host_scaled(2.0, [REFERENCE_S] * 3) == pytest.approx(2.0)
    slow = [2 * REFERENCE_S, 2 * REFERENCE_S, 9.0]
    assert host_scaled(2.0, slow) == pytest.approx(1.0)
    # each study is scaled by the two probes around it
    p = {"host_s": [REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S],
         "studies": [{"wall_s": 1.0}, {"wall_s": 4.0}]}
    assert run.scaled_pass(p) == pytest.approx(1.0 + 2.0)


def test_verdict_checks_on_series_and_norm_tables():
    neumann = ("order", "error", "bound", "ratio_vs_prev")
    rows = [{"order": 0.0, "error": 0.5, "bound": 0.4, "ratio_vs_prev": 0.0}]
    found = check_study("sin_neumann", neumann, rows, ["# divergent: true"])
    assert len(found) == 2
    norm_rows = [{"eps": 0.1, "within_budget": 0.0}]
    assert check_study("sin_norm", ("eps", "within_budget"), norm_rows,
                       []) == ["within_budget 0 at eps [0.1]"]
