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
    "almost_periodic_criterion": "ebbaae9397281040ce70d4ae6d985e9aa8b88a23dd15853274b728f8fe149c39",
    "almost_periodic_resolvent": "86e6468fe8e10acf3338d92b8f533db6083b5f84a6d80eb84afef0da4b04800b",
    "fractal_criterion": "0adb41e56b2104d442d7572eeee483c16345cce7810cfc41d8a364c1786c4a2a",
    "locally_periodic2_criterion": "6bb9ebffe9930eb8852498714677ad4de497afb9d78414b8eaeba108fe9443b3",
    "locally_periodic2_resolvent": "2e639ae8f8cd58dcd8989d388ba9d9a3ee033e37c1b18e2429c0057610302130",
    "locally_periodic_criterion": "ab1a7486a459e6ab30474c8ad3bde1f8a33d0494d603ff8bf1a57cf33a5446b1",
    "locally_periodic_resolvent": "317c1ba4a673b300d78b0173d616179b7a5bb351af3e17712ee8979c9f497764",
    "modulated_diffeo_criterion": "02b6c65b31e7e92dcc7c7a72b266cfed030bb6987e4964e361d3157d3d5931a5",
    "modulated_diffeo_resolvent": "cfed999fb61d25cf220b2f974ced6e21e89ef7136eb0dbe73296e5d03d4abf2a",
    "modulated_periodic_criterion": "d85afdea8a5dba31beae3577ea09f3148580bb2572387d2d48fb2defe2b91394",
    "modulated_periodic_resolvent": "f8804616ee7ced85b0d936dbb3f51f662f69217846492801c6e6cbde2a8012f0",
    "random_criterion": "37325fe7e24c43d5cd64363a54729393d8345080a678fea9713420ae9b56b0d3",
    "random_resolvent": "2cefbdf927d35a233ff9df6bfa9bca74be42af7c4a8ca5646f681582396d7355",
    "regular_criterion": "f4d12023647df058620736fc1b60a800a330705a8ccd7bbbb9c94874aff3626b",
    "sign_criterion": "2120550c057e5c5e6ecb3fdd9b14e3af10e36f03c60a337006a1b1ad2eda51a7",
    "sign_homogenize": "c5c4826f5f67af3e0c5da9f201fa2633e681ab1dd601533a199337db0db7b545",
    "sign_resolvent": "b86b7fad9ca225b8ae703dbe1bffa9029242029a0697f87e49cf682ad078589c",
    "sin_criterion": "965d58409d88f0e4a5ce3d21c4b54cee8bc5779cf5b5bb2485435ad2c7e805ef",
    "sin_neumann": "c97f56d90c60d181ffaad108e6b44324460526896b1b28a66812b05b7d1196ca",
    "sin_norm": "3184ee7cbec9772eea84b2855d3d150af4f74a974ad2a300ad420ab822f4c818",
    "sin_resolvent": "e414c24566112648c8bb2a620ff429bb4faf7cc5a9a185f78c95fc32ceb1c987",
    "sparse_criterion": "fe9e3410e9aee7200f2f9ef58266407554e1e69e670c3b8201b6df80e1c3d326",
    "sparse_resolvent": "f4419d8d0dee9e1fe26641baabd26e8f6846ff60b67debf3757f88e9109ee95f",
    "stabilizing_criterion": "5ce21454d61161f4cae6d2630e2ad4e4fc942ca0b84229601e65ccecc618a8b8",
    "stabilizing_resolvent": "4fafb2a2a162b47726c0eede96f8f932095186cc453ce3636b993f74a2e524f5",
    "two_scale_homogenize": "2fd89a43a3c6e73ee651da169e940dc31405076a9dbb33d226e675d41921e009"
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
