"""Study plumbing: rate fits, CSV round trips, determinism."""

import dataclasses
import math
import weakref
from pathlib import Path

import pytest

from homlab import study
from homlab.config import ConfigError, StudyConfig
from homlab.norms import norm_v_to_vstar
from homlab.study import (
    StudyResult,
    fit_rate,
    read_csv,
    render_csv,
    run_study,
    write_csv,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CRIT_CFG = """
study.kind = criterion
family.name = regular_sin
schedule.eps = 0.1, 0.05
criterion.exponents = 0.5
criterion.refine = 64
"""


def test_fit_rate_recovers_power_law():
    eps = [0.1, 0.05, 0.025, 0.0125]
    vals = [3.0 * e ** 1.5 for e in eps]
    fit = fit_rate(eps, vals)
    assert fit["slope"] == pytest.approx(1.5, abs=1e-12)
    assert fit["constant"] == pytest.approx(3.0, rel=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert fit["used"] == 4 and fit["dropped"] == 0


def test_fit_rate_drops_nonpositive_points():
    fit = fit_rate([0.1, 0.05, 0.025], [1.0, 0.0, 0.5])
    assert fit["used"] == 2 and fit["dropped"] == 1
    assert math.isfinite(fit["slope"])


def test_fit_rate_underdetermined():
    fit = fit_rate([0.1], [1.0])
    assert math.isnan(fit["slope"])
    assert fit["used"] == 1


def _toy_result():
    return StudyResult(
        fieldnames=("eps", "rho1", "cells", "name"),
        rows=(
            {"eps": 0.1, "rho1": 1.0 / 3.0, "cells": 7, "name": "a"},
            {"eps": 0.05, "rho1": 2.0 / 7.0, "cells": 9, "name": "b"},
        ),
        footer=("# verdict: fine",),
        echo=(("family.name", "demo"), ("schedule.eps", "0.1, 0.05")),
    )


def test_render_csv_layout():
    text = render_csv(_toy_result())
    lines = text.splitlines()
    assert lines[0] == "# family.name = demo"
    assert lines[1] == "# schedule.eps = 0.1, 0.05"
    assert lines[2] == "eps,rho1,cells,name"
    assert lines[3].startswith("0.10000000000000001,0.33333333333333331,7,a")
    assert lines[-1] == "# verdict: fine"


def test_csv_round_trip_preserves_floats(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(_toy_result(), path)
    fieldnames, rows, comments = read_csv(path)
    assert fieldnames == ("eps", "rho1", "cells", "name")
    assert rows[0]["eps"] == 0.1
    assert rows[0]["rho1"] == 1.0 / 3.0
    assert rows[1]["rho1"] == 2.0 / 7.0
    assert rows[0]["name"] == "a"
    assert "# verdict: fine" in comments
    assert any(c.startswith("# family.name") for c in comments)


def test_csv_rejects_cells_needing_quotes():
    res = StudyResult(fieldnames=("a",), rows=({"a": "1,2"},), footer=(),
                      echo=())
    with pytest.raises(ValueError, match="quoting"):
        render_csv(res)


def test_read_csv_requires_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(ConfigError):
        read_csv(path)


# ------------------------------------------------------------- dispatch

def test_run_study_rejects_unknown_kind():
    cfg = StudyConfig.from_text(CRIT_CFG, "<config>")
    with pytest.raises(ConfigError, match="unknown study kind"):
        run_study("frobnicate", cfg, seed=1234)


def test_run_study_rejects_kind_mismatch():
    cfg = StudyConfig.from_text(CRIT_CFG, "<config>")
    with pytest.raises(ConfigError, match="declares study.kind"):
        run_study("norm", cfg, seed=1234)


@pytest.mark.parametrize("schedule", [
    "0.05, 0.1",
    "0.1, 0.1",
    "-0.1, -0.2",
])
def test_schedule_must_strictly_decrease(schedule):
    cfg = StudyConfig.from_text(CRIT_CFG.replace("0.1, 0.05", schedule),
                                "<config>")
    with pytest.raises(ConfigError):
        run_study("criterion", cfg, seed=1234)


def test_resolvent_footer_names_capped_rows():
    # cap_dof 24 caps the eps = 0.1 mesh, which needs 26 elements
    cfg = StudyConfig.from_text("""
study.kind = resolvent
family.name = regular_sin
schedule.eps = 0.2, 0.1
operator.shift = -1.0
mesh.min_elements = 16
mesh.cap_dof = 24
""", "<config>")
    res = run_study("resolvent", cfg, seed=1234)
    assert [row["capped"] for row in res.rows] == [0, 1]
    assert "# verdict: not_convergent" in res.footer
    assert res.footer[-1].endswith(" capped_rows=0.1")
    assert "flagged_rows" not in res.footer[-1]


def test_resolvent_rows_release_earlier_settings(monkeypatch):
    # the auto shift needs every setting at once; after it, a row's
    # matrices must be gone before the next, finer row starts
    from homlab import resolvent

    measure = resolvent.convergence_row
    ops, alive = [], []

    def watched(family, eps, lam, setting, *args):
        alive.append([ref() is not None for ref in ops])
        ops.append(weakref.ref(setting["op"]))
        return measure(family, eps, lam, setting, *args)

    # resolvent_study looks convergence_row up on homlab.resolvent
    monkeypatch.setattr(resolvent, "convergence_row", watched)
    cfg = StudyConfig.from_text("""
study.kind = resolvent
family.name = regular_sin
schedule.eps = 0.2, 0.1, 0.05
operator.shift = auto
mesh.min_elements = 16
""", "<config>")
    run_study("resolvent", cfg, seed=1234)
    assert alive == [[], [False], [False, False]]


# ------------------------------------------------------------- determinism

def test_run_study_rejects_unread_keys():
    cfg = StudyConfig.from_text(CRIT_CFG + "family.amplitud = 5\n", "<config>")
    with pytest.raises(ConfigError, match="family.amplitud"):
        run_study("criterion", cfg, seed=1234)


def test_criterion_study_row_content():
    cfg = StudyConfig.from_text(CRIT_CFG, "<config>")
    res = run_study("criterion", cfg, seed=1)
    assert [r["eps"] for r in res.rows] == [0.1, 0.05]
    for row in res.rows:
        assert row["eta"] == pytest.approx(math.sqrt(row["eps"]))
        assert 0.0 < row["rho1"] < 2.0 * math.sqrt(row["eps"])
        assert row["quad_error"] < 1e-8
    assert any(line.startswith("# fit bound_m1m1") for line in res.footer)
    assert ("family.name", "regular_sin") in res.echo


def test_criterion_verdict_needs_every_row_within_the_factor(monkeypatch):
    # the row with the largest bound_m1m1 / predicted decides: a factor
    # just below that ratio refuses the study, one just above certifies it
    def footer():
        cfg = StudyConfig.from_text(CRIT_CFG, "<config>")
        return run_study("criterion", cfg, seed=1).footer

    lines = footer()
    assert lines[-2].startswith("# max bound_m1m1/predicted = ")
    worst = float(lines[-2].rpartition("= ")[2])
    assert lines[-1] == "# verdict: rate_certified"
    monkeypatch.setattr(study, "RATE_FACTOR", worst * (1 + 1e-9))
    assert footer()[-1] == "# verdict: rate_certified"
    monkeypatch.setattr(study, "RATE_FACTOR", worst * (1 - 1e-9))
    assert footer()[-1] == "# verdict: not_certified"


def test_seed_changes_nothing_for_deterministic_study():
    # criterion rows involve no randomness, so seeds must not leak in
    res_a = run_study("criterion", StudyConfig.from_text(CRIT_CFG, "<config>"),
                      seed=1)
    res_b = run_study("criterion", StudyConfig.from_text(CRIT_CFG, "<config>"),
                      seed=2)
    assert render_csv(res_a) == render_csv(res_b)


# ------------------------------------------------------------- norm study

NORM_CFG = """
study.kind = norm
family.name = regular_sin
schedule.eps = 0.1, 0.05
"""


def test_norm_study_measures_a_bare_potential_once(monkeypatch):
    from homlab import norms

    measured = []

    def counted(X, h1, seed):
        measured.append(seed)
        return norm_v_to_vstar(X, h1, seed)

    # norm_study looks its norms up on homlab.norms when it starts, and
    # norm_m10 looks norm_v_to_vstar up there too: a row measures norm_x
    # and v_m10, and no potential form apart
    monkeypatch.setattr(norms, "norm_v_to_vstar", counted)
    res = run_study("norm", StudyConfig.from_text(NORM_CFG, "<config>"),
                    seed=1234)
    assert measured == [1234, 1234, 2234, 2234]
    assert all(row["v_m1m1"] == row["norm_x"] == row["chain_bound"]
               for row in res.rows)


def test_norm_study_marks_flagged_rows(monkeypatch):
    from homlab import norms

    # regular_sin is a bare potential: norm_x also serves as v_m1m1
    def flag_second_row(X, h1, seed=1234):
        rep = norm_v_to_vstar(X, h1, seed)
        return dataclasses.replace(rep, flagged=seed == 1234 + 1000)

    clean = run_study("norm", StudyConfig.from_text(NORM_CFG, "<config>"),
                      seed=1234)
    monkeypatch.setattr(norms, "norm_v_to_vstar", flag_second_row)
    res = run_study("norm", StudyConfig.from_text(NORM_CFG, "<config>"),
                    seed=1234)
    assert [row["within_budget"] for row in clean.rows] == [1, 1]
    assert [row["within_budget"] for row in res.rows] == [1, 0]
    assert not any("flagged_rows" in line for line in clean.footer)
    assert res.footer[-1] == "# flagged_rows=0.05"
    # a flagged norm is not a budget violation
    assert not any("budget_violation" in line for line in res.footer)


def test_norm_study_marks_capped_rows():
    # the rows want 255 and 2547 elements; both run on the cap of 64
    cfg = StudyConfig.from_text(NORM_CFG.replace("0.1, 0.05", "0.01, 0.001")
                                + "mesh.cap_dof = 64\n", "<config>")
    res = run_study("norm", cfg, seed=1234)
    assert [row["n_elements"] for row in res.rows] == [64, 64]
    assert [row["within_budget"] for row in res.rows] == [0, 0]
    assert res.footer[-1] == "# capped_rows=0.01;0.001"
    # no column is added, and a capped row is not a budget violation
    assert res.fieldnames == ("eps", "n_elements", "norm_x", "chain_bound",
                              "v_m1m1", "v_m10", "v_sup", "within_budget")
    assert not any("budget_violation" in line for line in res.footer)


# ------------------------------------------------------- homogenize study

def _shipped_with(name, *replacements):
    text = (CONFIGS / f"{name}.cfg").read_text()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    return StudyConfig.from_text(text, source=name)


def test_homogenize_without_sampled_windows_is_not_consistent():
    # windows of size eps^0.001 > 0.99 leave the unit domain from every
    # grid point (the first is at 1/34), and sign_sin declares the limit
    # 0.5 against a true mean of 0
    cfg = _shipped_with(
        "two_scale_homogenize",
        ("family.name = two_scale_linear", "family.name = sign_sin"),
        ("homogenize.mu_power = 0.5", "homogenize.mu_power = 0.001"))
    res = run_study("homogenize", cfg, seed=1234)
    assert all(math.isnan(row["declared_gap"]) for row in res.rows)
    assert all(math.isnan(row["pair_gap"]) for row in res.rows)
    assert res.footer[-1].startswith("# declared_limit_consistent: false ")
    # no pair of windows was sampled: rho2 and the finest pair's gap are
    # no evidence
    assert res.footer == (
        "# rho2 = nan",
        f"# mu_final = {0.0005 ** 0.001:.17g}",
        "# finest_pair_gap = nan",
        "# skipped_windows = 165",
        "# declared_limit_consistent: false (gap nan vs budget nan)")


@pytest.mark.parametrize("points", [0, -4])
def test_homogenize_rejects_an_empty_sample_grid(points):
    cfg = _shipped_with(
        "two_scale_homogenize",
        ("homogenize.sample_points = 33",
         f"homogenize.sample_points = {points}"))
    with pytest.raises(ConfigError, match="homogenize.sample_points must be "
                                          f"at least 1, got {points}"):
        run_study("homogenize", cfg, seed=1234)


