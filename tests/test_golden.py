"""The shipped configs end to end: each study shows the outcome it is for.

Resolvent studies converge except the sign_resolvent negative control,
sin_norm stays within its chain budget, the two-scale limit is
consistent, and the sin_neumann series errors stay below their envelope.
No norm in any of them may be flagged.
"""

from pathlib import Path

import pytest

from homlab.config import StudyConfig
from homlab.study import render_csv, run_study

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RESOLVENTS = sorted(p.stem for p in CONFIGS.glob("*_resolvent.cfg"))
NEGATIVE_CONTROLS = {"sign_resolvent"}


def _run(name, threads=None):
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    return run_study(cfg.get_str("study.kind"), cfg, threads=threads)


def test_every_resolvent_config_is_covered():
    assert len(RESOLVENTS) == 10


@pytest.mark.parametrize("name", RESOLVENTS)
def test_resolvent_verdict(name):
    res = _run(name)
    want = "not_convergent" if name in NEGATIVE_CONTROLS else "convergent"
    assert res.meta["verdict"] == want
    assert not any(row["flagged"] for row in res.rows)


def test_sin_norm_within_budget():
    res = _run("sin_norm")
    assert all(row["within_budget"] == 1 for row in res.rows)


def test_two_scale_limit_is_consistent():
    assert _run("two_scale_homogenize").meta["consistent"]


def test_sin_neumann_errors_below_bounds():
    res = _run("sin_neumann")
    assert all(row["error"] <= row["bound"] for row in res.rows)
    assert not res.meta["report"].divergent
    assert not res.meta["report"].flagged


def test_resolvent_bytes_identical_across_threads():
    one = render_csv(_run("sparse_resolvent", threads=1))
    assert render_csv(_run("sparse_resolvent", threads=2)) == one
