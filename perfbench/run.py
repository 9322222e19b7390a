"""homlab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a homlab checkout.  The workload's studies run in a
child process (child.py) through homlab.cli.main.  This process then
checks every study's output, compares the certified numbers against a
dense oracle, prints a readable summary and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb), with
--trace 1 the per-layer ones.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S, host_scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"


# studies run serially; one BLAS thread keeps small dense products from
# spinning up a thread team per call, which is slower and noisier here
SERIAL_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _child(args, timeout, stdout):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        stdout=stdout, timeout=timeout, check=True, text=True,
        env={**os.environ, **SERIAL_ENV})


def measure_setup(workload):
    """Median set-up seconds over SETUP_PROBES fresh interpreters, as
    measured and host-scaled by each interpreter's own speed probes."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = _child(["setup", ROOT, workload], 60, subprocess.PIPE)
        probe = json.loads(proc.stdout.splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(host_scaled(probe["setup_s"], probe["host_s"]))
    return statistics.median(raw), statistics.median(scaled)


def scaled_pass(p):
    """A pass's time with each study's time host-scaled by the two probes
    that bracket it."""
    host = p["host_s"]
    return sum(host_scaled(st["wall_s"], host[i:i + 2])
               for i, st in enumerate(p["studies"]))


def evaluate(passes, oracle):
    """Check every study run; return per-run problems and oracle checks.

    A study run fails on a non-zero exit, an exception, a verdict check,
    or CSV bytes that differ from an earlier run with the same seed.
    Oracle checks are made on every pass after the warm-up.
    """
    from checks import check_study, notes
    from homlab.study import read_csv

    seen = {}
    problems = []
    oracle_checks = []
    for p in passes:
        pass_checks = []
        for st in p["studies"]:
            found = []
            if st["error"] is not None:
                found.append("raised: " + st["error"].strip().splitlines()[-1])
            elif st["code"] != 0:
                found.append(f"exit code {st['code']}")
            else:
                with open(st["csv"], "rb") as fh:
                    data = fh.read()
                first = seen.setdefault((st["name"], p["seed"]), data)
                if data != first:
                    found.append(f"CSV bytes differ between runs at seed "
                                 f"{p['seed']}")
                fields, rows, comments = read_csv(st["csv"])
                found += check_study(st["name"], fields, rows, comments)
                if p["label"] != "warmup":
                    pass_checks += oracle.check(st["name"], st["kind"], rows,
                                                notes(comments))
            problems.append((p["label"], st["name"], found))
        if p["label"] != "warmup":
            oracle_checks.append(pass_checks)
    return problems, oracle_checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "homlab", "cli.py")):
        print(f"no homlab source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from oracle import Oracle

    out_root = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                            dir=out_root)
    try:
        setup_raw, setup_s = measure_setup(args.workload)
        _child(["run", ROOT, args.workload, str(args.seed),
                str(args.seconds), str(args.trace), work],
               CHILD_TIMEOUT_S, subprocess.DEVNULL)
        with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        problems, oracle_checks = evaluate(
            result["passes"], Oracle(os.path.join(ROOT, "configs")))
        if args.trace:
            spans = os.path.join(out_root,
                                 f"spans-{args.workload}-{args.seed}.json")
            shutil.copyfile(os.path.join(work, "spans.json"), spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(problems)
    failed = sum(1 for *_, found in problems if found)
    misses = [sum(1 for c in checks if not c.ok) for checks in oracle_checks]
    value_gaps = [c.gap for checks in oracle_checks for c in checks
                  if not c.bound]
    oracle_misses = statistics.median(misses)
    worst_gap = max(value_gaps, default=0.0)
    timed = [p["wall_s"] for p in result["passes"] if p["timed"]]
    scaled = [scaled_pass(p) for p in result["passes"] if p["timed"]]
    host = [s for p in result["passes"] if p["label"] != "warmup"
            for s in p["host_s"]]

    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    if timed:
        print(f"  wall_s        {statistics.median(scaled):.4f} s   "
              f"(host-scaled; measured median of {len(timed)} passes "
              f"{statistics.median(timed):.4f} s, "
              f"{min(timed):.4f} .. {max(timed):.4f})")
        shown = [p for p in result["passes"] if p["timed"]][:9]
        print("  passes        " + ", ".join(
            f"seed {p['seed']}: {p['wall_s']:.3f} s" for p in shown)
            + (", ..." if len(timed) > len(shown) else ""))
    print(f"  setup_s       {setup_s:.4f} s   (host-scaled; measured median "
          f"of {SETUP_PROBES} fresh interpreters {setup_raw:.4f} s)")
    print(f"  host probe    {statistics.median(host):.5f} s   (median of "
          f"{len(host)}; reference {REFERENCE_S} s)")
    if "peak_rss_mb" in result:
        print(f"  peak_rss_mb   {result['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac     {failed / attempted:.4g}   "
          f"({failed} of {attempted} study runs failed)")
    print(f"  oracle_misses {oracle_misses:g} count   (median over "
          f"{len(misses)} checked passes of "
          f"{max(map(len, oracle_checks), default=0)} checks; worst value "
          f"gap {worst_gap:.3g})")
    for label, name, found in problems:
        for problem in found:
            print(f"  FAILED {label} {name}: {problem}")
    reported = set()
    for checks in oracle_checks:
        for c in checks:
            if not c.ok and c.label not in reported:
                reported.add(c.label)
                print(f"  oracle miss: {c.label}: lab {c.lab!r}, dense "
                      f"{c.ref!r} (relative gap {c.gap:.3g})")

    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["norms.oracle_max_rel_err"] = worst_gap
        metrics["oracle.misses"] = oracle_misses
        metrics["host.probe_s"] = statistics.median(host)
        for name in result["study_self"]:
            for what in ("self", "inclusive"):
                frames = result[f"study_{what}"][name]
                top = sorted(((secs, frame) for frame, secs in frames.items()
                              if frame != "study." + name), reverse=True)
                print(f"  {what} time {name}: " + ", ".join(
                    f"{frame} {secs:.3f} s" for secs, frame in top[:3]))
        print(f"  spans written to {OUT_DIR}/spans-{args.workload}-"
              f"{args.seed}.json")
    else:
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    units = _units()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
