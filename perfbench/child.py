"""Benchmark child process: a set-up probe, or the workload's passes.

    python3 child.py setup ROOT WORKLOAD
        Prints {"setup_s": ..., "host_s": [...]}: seconds from a fresh
        interpreter to homlab.cli imported, every config of WORKLOAD loaded
        and every family built, and host speed probe times taken after.

    python3 child.py run ROOT WORKLOAD SEED SECONDS TRACE OUTDIR
        Runs the workload's studies through homlab.cli.main, writing each
        study's CSV under OUTDIR, and writes OUTDIR/result.json.  A host
        speed probe runs before each study and after the last, so every
        study is bracketed by two probes.  One
        untimed warm-up pass at SEED comes first.  Untraced (TRACE 0),
        timed passes follow until SECONDS have passed and at least
        MIN_PASSES ran.  Traced (TRACE 1), one untimed pass and one traced
        pass follow, both at SEED, and the spans go to OUTDIR/spans.json.

The workload runs in its own process so that its peak resident memory is
its own, not the dense oracle's.
"""

import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext

from workloads import ALL_CONFIGS, MIN_PASSES, WORKLOADS, sub_seed

HOST_PROBES = 3


def _config_path(root, name):
    return os.path.join(root, "configs", name + ".cfg")


def setup(root, workload):
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import homlab.cli  # noqa: F401  (the import is what is timed)
    from homlab import registry
    from homlab.config import StudyConfig

    for name in WORKLOADS[workload].configs:
        registry.build_family(StudyConfig.load(_config_path(root, name)))
    setup_s = time.perf_counter() - start
    from calibrate import calibrate  # after the timed imports

    host = [calibrate() for _ in range(HOST_PROBES)]
    print(json.dumps({"setup_s": setup_s, "host_s": host}))


def run(root, workload, seed, seconds, trace, outdir):
    sys.path.insert(0, os.path.join(root, "src"))
    from calibrate import calibrate
    from homlab import cli
    from homlab.config import StudyConfig

    configs = WORKLOADS[workload].configs
    kinds = {name: StudyConfig.load(_config_path(root, name))
             .get_str("study.kind") for name in configs}
    passes = []

    def one_pass(label, pass_seed, timed, tracer=None):
        folder = os.path.join(outdir, label)
        os.mkdir(folder)
        studies = []
        host = []
        wall = 0.0
        for study_id, name in enumerate(configs):
            csv = os.path.join(folder, name + ".csv")
            argv = [kinds[name], "--config", _config_path(root, name),
                    "--out", csv, "--threads", "1", "--seed", str(pass_seed)]
            error = None
            scope = (tracer.study(study_id, "study." + name) if tracer
                     else nullcontext())
            host.append(calibrate())
            start = time.perf_counter()
            try:
                with scope:
                    code = cli.main(argv)
            except Exception:  # a study that raises is recorded as failed
                code, error = None, traceback.format_exc()
            took = time.perf_counter() - start
            wall += took
            studies.append({"name": name, "kind": kinds[name], "code": code,
                            "error": error, "csv": csv, "wall_s": took})
        host.append(calibrate())
        passes.append({"label": label, "seed": pass_seed, "timed": timed,
                       "traced": tracer is not None, "wall_s": wall,
                       "host_s": host, "studies": studies})
        return wall

    one_pass("warmup", seed, timed=False)
    result = {"passes": passes}
    if not trace:
        k = 0
        start = time.perf_counter()
        while k < MIN_PASSES or time.perf_counter() - start < seconds:
            one_pass(f"pass{k}", sub_seed(seed, k), timed=True)
            k += 1
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        import probes
        from tracer import Tracer

        untraced = one_pass("untraced", seed, timed=False)
        tracer = Tracer()
        probes.install(tracer)
        try:
            traced = one_pass("traced", seed, timed=False, tracer=tracer)
        finally:
            tracer.restore()
        tracer.write(os.path.join(outdir, "spans.json"))
        result["per_layer"] = probes.per_layer(tracer, ALL_CONFIGS,
                                               untraced, traced)
        result["study_self"] = {
            name: tracer.study_self_times(i) for i, name in enumerate(configs)
        }
        result["study_inclusive"] = {
            name: tracer.study_inclusive_times(i)
            for i, name in enumerate(configs)
        }
    with open(os.path.join(outdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif mode == "run":
        root, workload, seed, seconds, trace, outdir = sys.argv[2:8]
        run(root, workload, int(seed), float(seconds), trace == "1", outdir)
    else:
        sys.exit(f"unknown mode {mode!r}")
