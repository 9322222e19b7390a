"""Command line behavior: subcommands, exit codes, outputs."""

import xml.etree.ElementTree as ET

import pytest

from homlab.cli import main

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


def test_bad_schedule_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(CRIT_CFG.replace("0.1, 0.05", "0.05, 0.1"))
    code = main(["criterion", "--config", str(path), "--out", "-"])
    assert code == 2


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

    monkeypatch.setattr(norms, "eigsh", boom)
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


def test_misspelled_key_exits_2(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text(CRIT_CFG + "family.amplitud = 5\n")
    out = tmp_path / "typo.csv"
    code = main(["criterion", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "family.amplitud" in capsys.readouterr().err
    assert not out.exists()


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
    out = tmp_path / "a.csv"
    code = main(["criterion", "--config", str(crit_cfg), "--out", str(out),
                 "--seed", "9", "--threads", "2", "--verbose"])
    assert code == 0
