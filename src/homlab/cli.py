"""Command line entry point.

Subcommands run one study kind from a config file and write CSV, list
the family catalogue, or turn a finished CSV into an SVG rate plot.
Exit codes: 0 success, 2 configuration problems (including keys no
study reads, and a file that cannot be read or written, which names
its path), 3 numerical failures: breaches (a failed Lanczos run
among them) and forms that the auto or fixed shift leaves non-coercive.

Only the studies that discretize the operator (norm, resolvent) load
SciPy, when their study starts; criterion, homogenize, families and
report run without it.  Likewise only report loads the SVG writer (and
through it the html module), when it starts.
"""

import argparse
import functools
import math
import os
import sys

from .config import ConfigError, StudyConfig
from .errors import CoercivityError, NumericalBreach
from .registry import describe_families
from .study import STUDY_KINDS, read_csv, run_study, write_csv
from . import study as study_mod


# built once per process; parse_args keeps no state between calls
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Cell-criterion and resolvent studies for oscillating "
                    "lower-order coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in STUDY_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} study from a config")
        p.add_argument("--config", required=True, help="study config file")
        p.add_argument("--out", default=None,
                       help="output CSV path ('-' for stdout; default from "
                            "output.csv in the config)")
        # rows run in one thread; perfbench/child.py still passes
        # --threads 1 (ROADMAP item 7a)
        p.add_argument("--threads", type=int, default=1, choices=(1,),
                       help=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=1234,
                       help="base seed for iterative norms (default 1234)")

    sub.add_parser("families", help="list the family catalogue")

    pr = sub.add_parser("report", help="plot a study CSV as SVG")
    pr.add_argument("--csv", required=True, help="study CSV to read")
    pr.add_argument("--out", default=None,
                    help="SVG path (default: CSV path with .svg)")
    pr.add_argument("--columns", default=None,
                    help="comma list of columns to plot")
    return parser


_EPS_COLUMNS = ("kappa", "norm_L", "bound_m1m1", "rho1", "predicted",
                "norm_x", "chain_bound", "declared_gap")


def _report(args):
    from .svgplot import write_plot

    fields, rows, _ = read_csv(args.csv)
    if not rows:
        raise ConfigError(f"{args.csv}: no data rows")
    if "eps" not in fields:
        raise ConfigError(f"{args.csv}: need an 'eps' column to plot against")
    if args.columns:
        wanted = [c.strip() for c in args.columns.split(",") if c.strip()]
        missing = [c for c in wanted if c not in fields]
        if missing:
            raise ConfigError(
                f"{args.csv}: columns not present: {', '.join(missing)}"
            )
    else:
        wanted = [c for c in _EPS_COLUMNS if c in fields]
        if not wanted:
            raise ConfigError(f"{args.csv}: no plottable columns found")

    xs = [row["eps"] for row in rows]
    series = {}
    for col in wanted:
        series[col] = [
            row[col] if isinstance(row[col], float) else None for row in rows
        ]
    out = args.out or (args.csv[:-4] if args.csv.endswith(".csv")
                       else args.csv) + ".svg"
    write_plot(
        out, xs, series,
        xlabel="eps", ylabel="value",
        title=f"{args.csv}",
        guides=(0.5, 1.0),
    )
    print(f"wrote {out}")
    for col in wanted:
        fit = study_mod.fit_rate(xs, [v if v is not None else math.nan
                                      for v in series[col]])
        print(f"fit {col}: slope={fit['slope']:.6g} "
              f"constant={fit['constant']:.6g} used={fit['used']}")
    return 0


def _run_kind(kind, args):
    cfg = StudyConfig.load(args.config)
    # read before the study runs, which rejects keys nobody has read
    out = args.out or cfg.get_str("output.csv", None)
    if out is None:
        raise ConfigError(
            "no output path: pass --out or set output.csv in the config"
        )
    if out != "-" and not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"cannot write {out}: its directory does not exist")
    result = run_study(kind, cfg, seed=args.seed)
    if out == "-":
        sys.stdout.write(study_mod.render_csv(result))
    else:
        write_csv(result, out)
        print(f"wrote {out} ({len(result.rows)} rows)")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "families":
            print(describe_families())
            return 0
        if args.command == "report":
            return _report(args)
        return _run_kind(args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalBreach as exc:
        print(f"numerical breach: {exc}", file=sys.stderr)
        return 3
    except CoercivityError as exc:
        print(f"coercivity error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(None))
