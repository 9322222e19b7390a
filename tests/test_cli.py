"""Command line behavior: subcommands, exit codes, outputs."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from homlab import registry
from homlab.cli import main
from homlab.svgplot import plot

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

CRIT_CFG = """
study.kind = criterion
family.name = regular_sin
schedule.eps = 0.1, 0.05
criterion.exponents = 0.5
criterion.refine = 64
"""


@pytest.fixture
def crit_cfg(tmp_path):
    path = tmp_path / "crit.cfg"
    path.write_text(CRIT_CFG)
    return path


def test_families_lists_catalogue(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    for name in ("regular_sin", "sparse_bumps", "almost_periodic",
                 "fractal_2d", "random_rotation"):
        assert name in out


@pytest.mark.parametrize("name", sorted(registry.REGISTRY))
def test_catalogue_lists_the_keys_each_builder_reads(name, capsys):
    # under its name, the builder docstring's first line and the keys
    # recorded from a build
    assert main(["families"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index(name)
    summary = registry.REGISTRY[name].__doc__.splitlines()[0]
    keys = ", ".join(registry.family_keys(name))
    assert lines[at + 1:at + 3] == [f"    {summary}", f"    keys: {keys}"]


def test_families_takes_no_verbose_flag():
    with pytest.raises(SystemExit) as exc:
        main(["families", "--verbose"])
    assert exc.value.code == 2


def test_family_keys_come_in_reading_order():
    assert registry.family_keys("sparse_bumps") == (
        "family.amplitude", "family.rho4_power", "family.rho5_power",
        "family.domain")
    assert registry.family_keys("random_rotation") == (
        "family.amplitude", "family.seed", "family.mean", "family.domain")


def test_every_builder_has_a_docstring():
    # its first line is the entry's description in the catalogue
    assert [name for name, build in registry.REGISTRY.items()
            if not (build.__doc__ or "").strip()] == []


def test_criterion_run_writes_csv(tmp_path, crit_cfg, capsys):
    out = tmp_path / "crit.csv"
    code = main(["criterion", "--config", str(crit_cfg), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# study.kind = criterion")
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header.split(",")[:3] == ["eps", "eta", "rho1"]
    assert "wrote" in capsys.readouterr().out


def test_stdout_output(crit_cfg, capsys):
    code = main(["criterion", "--config", str(crit_cfg), "--out", "-"])
    assert code == 0
    out = capsys.readouterr().out
    assert "eps,eta,rho1" in out


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["criterion", "--config", str(tmp_path / "no.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0.05, 0.1", ","],
                         ids=["increasing", "empty"])
def test_bad_schedule_exits_2(tmp_path, capsys, eps):
    # an empty entry used to be dropped, so "," ran an empty table
    path = tmp_path / "bad.cfg"
    path.write_text(CRIT_CFG.replace("0.1, 0.05", eps))
    code = main(["criterion", "--config", str(path), "--out", "-"])
    assert code == 2
    assert "schedule.eps" in capsys.readouterr().err


@pytest.mark.parametrize("freq", ["0", "-1"])
@pytest.mark.parametrize("name", ["regular_sin", "sign_sin"])
def test_nonpositive_frequency_exits_2(tmp_path, capsys, name, freq):
    # sign_sin used to divide by it in finest_scale, or cap the mesh on a
    # negative scale
    path = tmp_path / "freq.cfg"
    path.write_text("study.kind = resolvent\n"
                    f"family.name = {name}\nfamily.frequency = {freq}\n"
                    "schedule.eps = 0.1, 0.05\n")
    code = main(["resolvent", "--config", str(path), "--out", "-"])
    assert code == 2
    assert "family.frequency" in capsys.readouterr().err


def test_negative_criterion_refine_exits_2(tmp_path, capsys):
    # 0 derives the refine from the family; a negative one was read as 1
    path = tmp_path / "refine.cfg"
    path.write_text(CRIT_CFG.replace("criterion.refine = 64",
                                     "criterion.refine = -3"))
    code = main(["criterion", "--config", str(path), "--out", "-"])
    assert code == 2
    assert "criterion.refine" in capsys.readouterr().err


def test_criterion_refine_above_max_exits_2(tmp_path, capsys):
    # a block of a finer rule would not fit one field evaluation
    path = tmp_path / "refine.cfg"
    path.write_text(CRIT_CFG.replace("criterion.refine = 64",
                                     "criterion.refine = 4097"))
    code = main(["criterion", "--config", str(path), "--out", "-"])
    assert code == 2
    err = capsys.readouterr().err
    assert "criterion.refine" in err and "4096" in err


def run_series_orders(tmp_path, orders):
    path = tmp_path / "orders.cfg"
    path.write_text("study.kind = resolvent\nfamily.name = regular_sin\n"
                    "schedule.eps = 0.05, 0.025\n"
                    f"series.orders = {orders}\n")
    return main(["resolvent", "--config", str(path), "--out", "-"])


def test_fractional_series_orders_exit_2(tmp_path, capsys):
    # int() used to truncate them to 0, 1, 2 and exit 0
    assert run_series_orders(tmp_path, "0.5, 1.5, 2.5") == 2
    assert "series.orders" in capsys.readouterr().err


@pytest.mark.parametrize("orders", ["-1, 0, 1", "0, 2, 1", "0, 1, 1"])
def test_negative_or_unordered_series_orders_exit_2(tmp_path, capsys,
                                                    orders):
    assert run_series_orders(tmp_path, orders) == 2
    assert "series.orders" in capsys.readouterr().err


def test_neumann_kind_is_gone(capsys):
    # the series errors are columns of the resolvent row (series.orders)
    with pytest.raises(SystemExit) as exc:
        main(["neumann", "--config",
              str(ROOT / "configs" / "sin_neumann.cfg"), "--out", "-"])
    assert exc.value.code == 2
    assert "invalid choice: 'neumann'" in capsys.readouterr().err


def test_single_eps_resolvent_exits_2(tmp_path, capsys):
    # one row used to print a not_convergent verdict from nan fits
    path = tmp_path / "one.cfg"
    path.write_text("study.kind = resolvent\nfamily.name = regular_sin\n"
                    "schedule.eps = 0.05\noperator.shift = -2.0\n")
    code = main(["resolvent", "--config", str(path), "--out", "-"])
    assert code == 2
    assert "schedule.eps" in capsys.readouterr().err


def test_kind_mismatch_exits_2(tmp_path, crit_cfg):
    assert main(["norm", "--config", str(crit_cfg), "--out", "-"]) == 2


def test_missing_output_exits_2(tmp_path, crit_cfg, capsys):
    code = main(["criterion", "--config", str(crit_cfg)])
    assert code == 2
    assert "no output path" in capsys.readouterr().err


def test_numerical_breach_exits_3(crit_cfg, monkeypatch, capsys):
    import homlab.cli as cli
    from homlab.fem import NumericalBreach

    def boom(*args, **kwargs):
        raise NumericalBreach("synthetic residual failure")

    monkeypatch.setattr(cli, "run_study", boom)
    code = main(["criterion", "--config", str(crit_cfg), "--out", "-"])
    assert code == 3
    assert "numerical breach" in capsys.readouterr().err


def test_lanczos_failure_exits_3(tmp_path, monkeypatch, capsys):
    from scipy.sparse.linalg import ArpackError
    import homlab.norms as norms

    def boom(*args, **kwargs):
        raise ArpackError(-9999)

    monkeypatch.setattr(norms, "eigs", boom)
    path = tmp_path / "norm.cfg"
    path.write_text("study.kind = norm\nfamily.name = regular_sin\n"
                    "schedule.eps = 0.2\nmesh.min_elements = 16\n")
    code = main(["norm", "--config", str(path), "--out", "-"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical breach" in err and "ARPACK error -9999" in err


def test_coercivity_failure_exits_3(crit_cfg, monkeypatch, capsys):
    import homlab.cli as cli
    from homlab.norms import CoercivityError

    def boom(*args, **kwargs):
        raise CoercivityError("no coercive shift above -1000000.0")

    monkeypatch.setattr(cli, "run_study", boom)
    code = main(["criterion", "--config", str(crit_cfg), "--out", "-"])
    assert code == 3
    err = capsys.readouterr().err
    assert "coercivity error" in err
    assert len(err.strip().splitlines()) == 1


def test_noncoercive_fixed_shift_exits_3(tmp_path, capsys):
    # at amplitude 200 the perturbed form has c = -1.19 at shift -2
    path = tmp_path / "series.cfg"
    path.write_text((ROOT / "configs" / "sin_neumann.cfg").read_text()
                    .replace("family.amplitude = 1.0",
                             "family.amplitude = 200"))
    code = main(["resolvent", "--config", str(path), "--out", "-"])
    assert code == 3
    err = capsys.readouterr().err
    assert "coercivity error: Geps is not coercive at operator.shift = -2" \
        in err


def test_noncoercive_fixed_shift_without_series_exits_3(tmp_path, capsys):
    # at amplitude 40 the perturbed form has c = -0.12 at shift -0.5 and
    # eps 0.1; with no series.orders the row takes no Lax-Milgram bound
    path = tmp_path / "fixed.cfg"
    path.write_text("study.kind = resolvent\nfamily.name = regular_sin\n"
                    "family.amplitude = 40\nschedule.eps = 0.1, 0.05\n"
                    "operator.shift = -0.5\n")
    code = main(["resolvent", "--config", str(path), "--out", "-"])
    assert code == 3
    assert ("coercivity error: Geps is not coercive at operator.shift = "
            "-0.5 (eps = 0.1)") in capsys.readouterr().err


def test_misspelled_key_exits_2(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text(CRIT_CFG + "family.amplitud = 5\n")
    out = tmp_path / "typo.csv"
    code = main(["criterion", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "family.amplitud" in capsys.readouterr().err
    assert not out.exists()


def test_nan_amplitude_exits_2(tmp_path, capsys):
    # a nan amplitude used to certify rho1 = rho3 = 0 on every row
    path = tmp_path / "nan.cfg"
    path.write_text(CRIT_CFG + "family.amplitude = nan\n")
    out = tmp_path / "nan.csv"
    code = main(["criterion", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "'family.amplitude' needs a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_empty_domain_exits_2_naming_the_key(tmp_path, capsys):
    path = tmp_path / "domain.cfg"
    path.write_text(CRIT_CFG + "family.domain = 1, 0\n")
    code = main(["criterion", "--config", str(path), "--out", "-"])
    assert code == 2
    err = capsys.readouterr().err
    assert "family.domain" in err and "(1.0,)" in err and "(0.0,)" in err


def test_discretizing_a_2d_family_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "fractal.cfg"
    path.write_text("study.kind = resolvent\nfamily.name = fractal_2d\n"
                    "schedule.eps = 0.1, 0.05\n")
    assert main(["resolvent", "--config", str(path), "--out", "-"]) == 2
    assert "fractal_2d has dim 2" in capsys.readouterr().err


# parameters that would make a family meaningless: a negative rho8 scale
# gives a negative predicted rate, and a nonpositive rho4 or rho5 power
# places no bump or lets the rate grow as eps falls
@pytest.mark.parametrize("family, line", [
    ("locally_periodic", "family.rho8_scale = -1"),
    ("sparse_bumps", "family.rho4_power = -1"),
    ("sparse_bumps", "family.rho5_power = -0.5"),
    ("sparse_bumps", "family.rho5_power = 0"),
    ("random_rotation", "family.seed = -1"),
])
def test_meaningless_family_parameter_exits_2_naming_the_key(
        tmp_path, capsys, family, line):
    path = tmp_path / "bad.cfg"
    path.write_text(f"study.kind = criterion\nfamily.name = {family}\n"
                    f"schedule.eps = 0.1, 0.05\n{line}\n")
    code = main(["criterion", "--config", str(path), "--out", "-"])
    assert code == 2
    key = line.split(" = ")[0]
    assert capsys.readouterr().err.startswith(f"config error: {key} must ")


def test_no_admissible_eta_exits_2_naming_the_key(tmp_path, capsys):
    # the phase margin |sin| vanishes near pi, so no cell size eta passes
    path = tmp_path / "phase.cfg"
    path.write_text("study.kind = criterion\nfamily.name = modulated_periodic\n"
                    "schedule.eps = 0.014\nfamily.domain = 0.5, 3.14159\n")
    code = main(["criterion", "--config", str(path), "--out", "-"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: family.domain = 0.5, 3.14159")
    assert "eps = 0.014" in err


# (study kind, shipped config, line) per removed key: the config's study
# read the key before it was removed
REMOVED_KEYS = [
    ("criterion", "sin_criterion", "family.negate = true"),
    ("norm", "sin_norm", "operator.bc = dirichlet"),
    ("norm", "sin_norm", "operator.a0 = 0"),
    ("norm", "sin_norm", "operator.a11 = 1"),
    ("criterion", "sin_criterion", "criterion.use_suggested_lattice = true"),
    ("criterion", "sin_criterion", "criterion.objective = m1m1"),
    ("criterion", "sin_criterion", "run.seed = 1234"),
    ("criterion", "sin_criterion", "run.threads = 1"),
    # one scale pays no separation penalty, so rho8 never entered the rate
    ("homogenize", "two_scale_homogenize", "family.rho8_scale = 7.5"),
]


def test_removed_family_switch_exits_2(tmp_path, capsys):
    for kind, config, line in REMOVED_KEYS:
        path = tmp_path / f"{config}.cfg"
        path.write_text((ROOT / "configs" / f"{config}.cfg").read_text()
                        + line + "\n")
        code = main([kind, "--config", str(path), "--out", "-"])
        key = line.split(" = ")[0]
        assert code == 2, key
        assert f"unrecognized keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["mesh.cap_dof = -5",
                                  "mesh.min_elements = 1"])
def test_bad_mesh_option_exits_2(tmp_path, capsys, line):
    # mesh_rule would clamp a negative cap to min_elements and run
    path = tmp_path / "mesh.cfg"
    path.write_text("study.kind = norm\nfamily.name = regular_sin\n"
                    f"schedule.eps = 0.2\n{line}\n")
    code = main(["norm", "--config", str(path), "--out", "-"])
    assert code == 2
    assert line.split(" = ")[0] in capsys.readouterr().err


def test_min_elements_above_cap_exits_2_naming_both_keys(tmp_path, capsys):
    # mesh_rule would let min_elements override the cap: sin_norm would run
    # every row at 199 dof under a cap of 100
    path = tmp_path / "mesh.cfg"
    path.write_text((ROOT / "configs" / "sin_norm.cfg").read_text()
                    + "mesh.cap_dof = 100\nmesh.min_elements = 200\n")
    code = main(["norm", "--config", str(path), "--out", "-"])
    assert code == 2
    err = capsys.readouterr().err
    assert "mesh.min_elements" in err and "mesh.cap_dof" in err


@pytest.mark.parametrize("line", ["homogenize.mu_power = 0",
                                  "homogenize.mu_power = -0.5",
                                  "homogenize.slack = -1"])
def test_nonpositive_homogenize_option_exits_2_naming_the_key(tmp_path,
                                                               capsys, line):
    # mu_power 0 skipped every window and exited 0 with a nan verdict;
    # slack -1 exited 0 against a negative budget
    key = line.split(" = ")[0]
    text = (ROOT / "configs" / "two_scale_homogenize.cfg").read_text()
    path = tmp_path / "homogenize.cfg"
    path.write_text("".join(line + "\n" if old.startswith(key + " ") else old
                            for old in text.splitlines(keepends=True)))
    code = main(["homogenize", "--config", str(path), "--out", "-"])
    assert code == 2
    assert f"{key} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-inf", "-1, -2"])
def test_bad_shift_exits_2_naming_the_key(tmp_path, capsys, value):
    path = tmp_path / "shift.cfg"
    path.write_text("study.kind = resolvent\nfamily.name = regular_sin\n"
                    "schedule.eps = 0.2, 0.1\nmesh.min_elements = 16\n"
                    f"operator.shift = {value}\n")
    code = main(["resolvent", "--config", str(path), "--out", "-"])
    assert code == 2
    assert "'operator.shift'" in capsys.readouterr().err


@pytest.mark.parametrize("kind, config", [
    ("criterion", "sin_criterion"), ("norm", "sin_norm"),
    ("resolvent", "sin_resolvent")])
def test_negative_seed_exits_2_naming_the_flag(capsys, kind, config):
    code = main([kind, "--config", str(ROOT / "configs" / f"{config}.cfg"),
                 "--out", "-", "--seed", "-1"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_report_writes_wellformed_svg(tmp_path, crit_cfg, capsys):
    csv_path = tmp_path / "crit.csv"
    main(["criterion", "--config", str(crit_cfg), "--out", str(csv_path)])
    svg_path = tmp_path / "crit.svg"
    code = main(["report", "--csv", str(csv_path), "--out", str(svg_path)])
    assert code == 0
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    out = capsys.readouterr().out
    assert "fit rho1" in out or "fit bound_m1m1" in out


def test_svg_text_escapes_markup_but_not_quotes():
    svg = plot([0.1, 0.05], {"rho1": [1.0, 0.5]}, xlabel="", ylabel="",
               title="a&<>\"'b", guides=())
    assert "a&amp;&lt;&gt;\"'b</text>" in svg
    ET.fromstring(svg)


def test_report_unknown_column_exits_2(tmp_path, crit_cfg, capsys):
    csv_path = tmp_path / "crit.csv"
    main(["criterion", "--config", str(crit_cfg), "--out", str(csv_path)])
    code = main(["report", "--csv", str(csv_path), "--columns", "nope"])
    assert code == 2


def test_report_default_svg_name(tmp_path, crit_cfg):
    csv_path = tmp_path / "crit.csv"
    main(["criterion", "--config", str(crit_cfg), "--out", str(csv_path)])
    assert main(["report", "--csv", str(csv_path)]) == 0
    assert (tmp_path / "crit.svg").exists()


def test_seed_and_threads_flags_accepted(tmp_path, crit_cfg):
    # perfbench/child.py's flags; --threads 1 changes no byte
    flagged, plain = tmp_path / "a.csv", tmp_path / "b.csv"
    run = ["criterion", "--config", str(crit_cfg), "--seed", "9"]
    assert main([*run, "--out", str(flagged), "--threads", "1",
                 "--verbose"]) == 0
    assert main([*run, "--out", str(plain)]) == 0
    assert flagged.read_bytes() == plain.read_bytes()


def test_threads_other_than_one_exits_2(crit_cfg):
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--config", str(crit_cfg), "--out", "-",
              "--threads", "2"])
    assert exc.value.code == 2


def _fresh_python(args, blas_threads):
    """Run python with homlab importable; BLAS thread variables removed,
    or all set to blas_threads."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_VARS, str(blas_threads)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True).stdout


@pytest.mark.parametrize("name, kind", [("sin_norm", "norm"),
                                        ("random_resolvent", "resolvent")])
def test_csv_bytes_do_not_follow_the_host_blas_default(name, kind):
    # unpinned, OpenBLAS takes every core, and these two studies then
    # differ in their last digits from a one-thread run
    args = ["-m", "homlab.cli", kind,
            "--config", str(ROOT / "configs" / f"{name}.cfg"), "--out", "-"]
    assert _fresh_python(args, None) == _fresh_python(args, 1)


def test_explicit_blas_thread_settings_are_kept():
    show = ["-c", "import os, homlab; "
                  "print(*(os.environ[v] for v in %r))" % (BLAS_VARS,)]
    assert _fresh_python(show, None).split() == [b"1", b"1"]
    assert _fresh_python(show, 2).split() == [b"2", b"2"]


_LOADED = """
import sys
from homlab.cli import main

configs, out = sys.argv[1:]
crit = f"{out}/crit.csv"
runs = [["criterion", "--config", f"{configs}/sin_criterion.cfg",
         "--out", crit],
        ["homogenize", "--config", f"{configs}/two_scale_homogenize.cfg",
         "--out", f"{out}/hom.csv"],
        ["families"],
        ["report", "--csv", crit],
        ["norm", "--config", f"{configs}/sin_norm.cfg",
         "--out", f"{out}/norm.csv"]]
for argv in runs:
    assert main(argv) == 0, argv
    print("loaded:", *sorted(m for m in sys.modules
                              if m.startswith(("scipy", "homlab.", "xml.",
                                               "urllib.", "concurrent."))))
"""
HEAVY = ("homlab.fem", "homlab.norms", "homlab.resolvent", "xml.sax",
         "urllib.request", "concurrent.futures")


def test_cell_criterion_runs_load_no_scipy(tmp_path):
    out = _fresh_python(["-c", _LOADED, str(ROOT / "configs"),
                         str(tmp_path)], None).decode()
    loaded = [line.split()[1:] for line in out.splitlines()
              if line.startswith("loaded:")]
    assert len(loaded) == 5
    *cell_runs, after_norm = loaded
    for modules in cell_runs:
        assert not [m for m in modules
                    if m.startswith("scipy") or m in HEAVY]
    # the boundary is real: a discretizing study does load SciPy
    assert "scipy" in after_norm and "homlab.fem" in after_norm
