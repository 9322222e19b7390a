"""The shipped configs end to end: each study shows the outcome it is for,
and writes the bytes it wrote before.

Resolvent studies converge except the sign_resolvent negative control,
sin_norm stays within its chain budget, the two-scale limit is
consistent and the sign_homogenize negative control is not, and the
sin_neumann series errors stay below their envelope.
No norm in any of them may be flagged.

Every shipped config's CSV text (render_csv, seed 1234) must match the
SHA-256 digest recorded in DIGESTS.  The digests are bytes of one-BLAS-
thread runs under NumPy 2.4 and SciPy 1.17 with their bundled OpenBLAS
0.3.31 on x86-64; another thread count, BLAS build or library version
may move the last digits.  A change that moves bytes on purpose updates
the table and names each moved file in CHANGES.md.

Each config runs once per test run; the verdict tests share that run.
"""

import hashlib
import os
from functools import lru_cache
from pathlib import Path

import pytest

from homlab import registry, resolvent, study
from homlab.config import StudyConfig
from homlab.norms import _hermitian_part, smallest_eigenvalue
from homlab.resolvent import assemble_setting, context_from_setting
from homlab.study import render_csv, run_study

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RESOLVENTS = sorted(
    p.stem for p in CONFIGS.glob("*.cfg")
    if StudyConfig.load(p).get_str("study.kind") == "resolvent")
NEGATIVE_CONTROLS = {"sign_resolvent"}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
DIGESTS = {
    "almost_periodic_criterion": "8442402b957bdb43e7f130295d7f9e09d8d52c4bab038348d8eb857a65521bf9",
    "almost_periodic_resolvent": "42824f81117c39d9d1e9e94e457d20669bfdc6fc7ef0739cd7408fc1735e86eb",
    "fractal_criterion": "3834990e72c6eb00bc6cefee4c34ae44daf7e5a20f8480ec5d3d2ab39134758d",
    "locally_periodic2_criterion": "e8c6e89930bed4bada04879014a89ae111f246d3fce488f5c1f288349d9941cd",
    "locally_periodic2_resolvent": "0e7c85f7eb25e448d43944f230c29023732231dece127d86c2b24638a8c7a2b1",
    "locally_periodic_criterion": "3cf25c12fbeed9d964d910b566671aaa99f593ed3c5894d9ef76d28403d6f536",
    "locally_periodic_resolvent": "e389ba0c617edd74e1c579beee220acdc3da7f35e035c163533cfd9f02c9e65d",
    "modulated_diffeo_criterion": "31d911759af2f8b48769c7aa398b43aac727cee63bbc3334e93b281a4a40c11a",
    "modulated_diffeo_resolvent": "2807f41a96f1e2086c16c1102c3c19ec54334fe8e95c666bf451b48141a9cb3b",
    "modulated_periodic_criterion": "a1a8ee8b83063a41b2a9c30038f9ae8e466d2a217153cdce182ddf98a8a96952",
    "modulated_periodic_resolvent": "3b579ad22d9324912c4bf0c4be501b8d0ae9fc5732aecb731237c3717b516e2a",
    "random_criterion": "94d55ba766d608d1451722a0561a8a8be76ccc3b469480d324bba4e7cfda376e",
    "random_resolvent": "a259479cd3ce5b5496f9bcefe821f51afa35cdfa9808a26d59741b6cfe05927c",
    "regular_criterion": "f7337c882a22cac24541f1f7715ea4931e7c47f27dc262ff396315ed00763e93",
    "sign_criterion": "847c15f747e709067d80cd61e63664959f6036193489c70af91179900625335b",
    "sign_homogenize": "8f13c320fb731cfc10a6d0dbf6ebf2dd9112ce7a4854b42b2105b43639f6e5d1",
    "sign_resolvent": "10adaa30f4a2233f8529b7ad92d572c0739dc62bd168f6ea05e9a6f176b69d5f",
    "sin_criterion": "ac0465e4a6dfe904c0366faa1b69d0443763352e158904da4a603926bedc1773",
    "sin_neumann": "e2d5f0019ebdb07619af9eddb31621d56f0e0358afcdb94c8029f8b2ec625ddb",
    "sin_norm": "2b531ec3f61d40fffb760f42cf665b0eabd140f49f81f4c5a3b279a2faef6522",
    "sin_resolvent": "c31531fa9a6319dcc6f690cf22d873c4a9209bffc9f27d33b4cfe7ce6387829a",
    "sparse_criterion": "bad1d820b19be945b971424193f5a1d319a35d878369dda5ae1cb2155d8e1013",
    "sparse_resolvent": "f8d564fd0d63f9eec0afaf773509a1ed83f4842f92f800ff256b9008b5e0e8e1",
    "stabilizing_criterion": "bc4306fe03985587bf9796d5a492c8cd0351135c4d1d01f651859cc3e5c11270",
    "stabilizing_resolvent": "bcb87078f9e1b040ef77492dd8ad075e30ce28ae9001ad5a893d58b5699ba883",
    "two_scale_homogenize": "f6958ff9faed8d8049fc8f90e9d635c6c8de375b4ad81fe0818cab98944098fb"
}


@lru_cache(maxsize=None)
def _run(name):
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    return run_study(cfg.get_str("study.kind"), cfg, seed=1234)


def test_every_config_has_a_digest():
    assert sorted(DIGESTS) == sorted(p.stem for p in CONFIGS.glob("*.cfg"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_csv_bytes_match_recorded_digest(name):
    threads = {var: os.environ.get(var, "1") for var in BLAS_VARS}
    assert all(v == "1" for v in threads.values()), (
        f"the digests are one-BLAS-thread bytes under NumPy 2.4 and "
        f"SciPy 1.17; got {threads}")
    text = render_csv(_run(name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]


# the digests cover seed 1234 only; the benchmark runs these studies at
# other seeds and refuses a run whose bytes differ from pass to pass
REPEATED = ("stabilizing_resolvent", "sign_resolvent", "sin_norm")


def test_studies_repeat_their_bytes_at_other_seeds():
    # each study, run twice in one process at seeds 7 and 41, the second
    # time after other predecessors: nothing one study factors or caches
    # may carry over into the next
    def texts(order):
        out = {}
        for name, seed in order:
            cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
            out[name, seed] = render_csv(
                run_study(cfg.get_str("study.kind"), cfg, seed=seed))
        return out

    order = [(name, seed) for seed in (7, 41) for name in REPEATED]
    first = texts(order)
    assert texts(order[::-1]) == first
    # the seed reaches the norms' start vectors
    assert first["stabilizing_resolvent", 7] \
        != first["stabilizing_resolvent", 41]


def test_every_resolvent_config_is_covered():
    assert len(RESOLVENTS) == 11


@pytest.mark.parametrize("name", RESOLVENTS)
def test_resolvent_verdict(name):
    res = _run(name)
    want = "not_convergent" if name in NEGATIVE_CONTROLS else "convergent"
    assert f"# verdict: {want}" in res.footer
    assert not any(row["flagged"] for row in res.rows)


def test_sin_norm_within_budget():
    res = _run("sin_norm")
    assert all(row["within_budget"] == 1 for row in res.rows)


def test_two_scale_limit_is_consistent():
    footer = _run("two_scale_homogenize").footer
    assert footer[-1].startswith("# declared_limit_consistent: true ")


def test_misdeclared_sign_limit_is_not_consistent():
    footer = _run("sign_homogenize").footer
    assert footer[-1].startswith("# declared_limit_consistent: false ")


@pytest.mark.parametrize("name", RESOLVENTS)
def test_homogenize_verdict_agrees_with_the_resolvent_verdict(name):
    # the paper's two routes to the limit, local means by cell quadrature
    # and resolvents by finite elements, on each resolvent config's family
    # and schedule: the declared limit is consistent exactly when the
    # resolvents converge
    text = (CONFIGS / f"{name}.cfg").read_text()
    keys = [line for line in text.splitlines()
            if line.startswith(("family.", "schedule."))]
    cfg = StudyConfig.from_text(
        "\n".join(["study.kind = homogenize", *keys]), name)
    consistent = run_study("homogenize", cfg, seed=1234).footer[-1]
    convergent = "# verdict: convergent" in _run(name).footer
    assert consistent.startswith(
        f"# declared_limit_consistent: {'true' if convergent else 'false'} ")


# the series table of sin_neumann at eps 0.05 when it was a study kind of
# its own: (error, bound) per order 0-4, then norm_L, c2 and contraction
SERIES_TABLE = (
    ((0.010334625153686215, 0.011206184118875397),
     (0.00011295341762880907, 0.00012557856250613515),
     (1.1840207957486657e-06, 1.407256492827453e-06),
     (1.2857995100160991e-08, 1.576997536110729e-08),
     (1.3565105743623239e-10, 1.7672124744669685e-10)),
    0.011206184118875397, 1.0, 0.011057807107828055,
)


def test_sin_neumann_errors_below_bounds():
    rows = _run("sin_neumann").rows
    orders = range(5)
    for row in rows:
        assert all(row[f"err_{n}"] <= row[f"bound_{n}"] for n in orders)
        assert row["divergent"] == 0
    first = rows[0]
    errors, norm_l, c2, contraction = SERIES_TABLE
    assert [(first[f"err_{n}"], first[f"bound_{n}"]) for n in orders] \
        == list(errors)
    assert (first["norm_L"], first["c2"], first["contraction"]) \
        == (norm_l, c2, contraction)
    # c2 is the larger Lax-Milgram bound 1/c of the two shifted forms.
    # Both 1/c lie below one, so the floor hides them from c2: they are
    # matched bit for bit on their own
    cfg = StudyConfig.load(CONFIGS / "sin_neumann.cfg")
    family = registry.build_family(cfg)
    ctx = context_from_setting(
        assemble_setting(study._operator_spec(cfg, family), family,
                         first["eps"], **study._mesh_opts(cfg)),
        cfg.get_float("operator.shift"))
    inverse_c = [1.0 / smallest_eigenvalue(_hermitian_part(g),
                                           ctx.op.gram_h1)[0]
                 for g in (ctx.G0, ctx.Geps)]
    assert first["eps"] == 0.05
    assert first["c2"] == max(1.0, *inverse_c)
    assert [resolvent._lax_milgram_bound(ctx, which)
            for which in ("base", "eps")] == inverse_c
