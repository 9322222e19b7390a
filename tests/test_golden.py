"""The shipped configs end to end: each study shows the outcome it is for,
and writes the bytes it wrote before.

Resolvent studies converge except the sign_resolvent negative control,
criterion bounds follow the declared rate except on the sign_criterion
negative control, sin_norm stays within its chain budget, the two-scale
limit is consistent and the sign_homogenize negative control is not.
No norm in any of them may be flagged.

The per-row inequalities live in one table, resolvent.row_inequalities:
norm_L <= bound_m1m1 on every resolvent row, and err_N <= bound_N at each
series order.  One test asserts every entry on every row of every
resolvent config, with its footer line; a new inequality is a new entry
of that table, not a test of its own.

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
CRITERIA = sorted(
    p.stem for p in CONFIGS.glob("*.cfg")
    if StudyConfig.load(p).get_str("study.kind") == "criterion")
NEGATIVE_CONTROLS = {"sign_resolvent", "sign_criterion"}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
DIGESTS = {
    "almost_periodic_criterion": "1d7034c14920ef53009b915152f7b3a714a11977af312a931edd0ce8171211a4",
    "almost_periodic_resolvent": "54cf6a1da9287f86adc2bf3094b7f4a556612c35d8900ad63868b6ccd6410df7",
    "fractal_criterion": "c8031b7db1e33142f1be56ec8aaeb57d0194dc9fcdf1a89dbf8f42c5daec287a",
    "locally_periodic2_criterion": "4a91fa38b5a35af047b09f3c3df5874bf3e17be4de3fc11dc3272322a47aa469",
    "locally_periodic2_resolvent": "dd41fde37d5da39e7db93ed23a6f56eef33f5981c75c07ee4be1f58ba71b5ae5",
    "locally_periodic_criterion": "607e0aa96d2727d11b9c8e5bb98d168c219754dca15532fbd325f29cb339c96e",
    "locally_periodic_resolvent": "ad8a1ef4a72de1f4d62b249f16b4db2db4f38f41dd132880e86fd7f036cd77f1",
    "modulated_diffeo_criterion": "8cb1a21b1d0d0105ce3526f7369b2ad65b163d1dc3ebbb29358fb2539131c423",
    "modulated_diffeo_resolvent": "b4ed4dc92c74d82a4d43e0e4e0ff9c33b0527361faf6cdce0763924f0da5b1e2",
    "modulated_periodic_criterion": "5bc4e1d60da13821300339f798eb2e5b212df8fa1a487ea6f3b42f3cc5284ec3",
    "modulated_periodic_resolvent": "707ea666394c2094470cd2f75d4bc3d02a61f1a3cf94c282c1724d6cb7d5f10f",
    "random_criterion": "11bc1f841ec0b56a068d8c9f8d7106cae91b0231e672ab3d275c9362219f5fc6",
    "random_resolvent": "bdc1d1b6ec926078487dce09b2a1b90c8b78f0b17e71e7957ed1630bcb05a93e",
    "regular_criterion": "5df31674ac2c9ef2602a6c91f6d89efa12ce072d5ab88218e9dae7ffde5813db",
    "sign_criterion": "784dbf637836bf2f209eb035030ca3519702d49f15eef7b0347bc975dc2173b3",
    "sign_homogenize": "8f13c320fb731cfc10a6d0dbf6ebf2dd9112ce7a4854b42b2105b43639f6e5d1",
    "sign_resolvent": "d9fb2915267964d412c6b7836591919d7b0ee8e3e02bb8f26865fc5a3a3efd9d",
    "sin_criterion": "6b62c0889cab902f9c7b5aec2765810195fbba7dc909e3c4966aa0a8bc3afb9b",
    "sin_neumann": "9c487db76632b1999ae792862e0640f25441102c6bd38a2a9dcf4ebd99677262",
    "sin_norm": "2b531ec3f61d40fffb760f42cf665b0eabd140f49f81f4c5a3b279a2faef6522",
    "sin_resolvent": "be1ce95ba5607745f208b8ba2bfa88e85106f2aa1fa03d7425d52478f5008977",
    "sparse_criterion": "e33ee4a7fed8ab8e81c1d19c21c969b9d99e8b6f37990192388ddce2d6259f8a",
    "sparse_resolvent": "941d1b09fe11c91b0619fe77fb4e39a790fb693de5818678643d477fc64522c0",
    "stabilizing_criterion": "289ef06ba3c243629270e96d9d1b241daadb9bbfb99c1e460caa950268091c25",
    "stabilizing_resolvent": "0c522e2b3aa075ef017f63c36bb4751238e1e79908550f7eae27d54f47860fba",
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


@pytest.mark.parametrize("name", RESOLVENTS)
def test_identity_holds_far_below_the_solve_tolerance(name):
    # 3.0e-13 at most on the shipped rows (random_resolvent): a check
    # whose comparison floor rose toward the solves' own roundoff would
    # still pass the 1e-10 solve tolerance, but not this
    assert all(row["identity_err"] <= 1e-12 for row in _run(name).rows)


@pytest.mark.parametrize("name", RESOLVENTS)
def test_row_inequalities_hold(name):
    # every entry lo <= hi of the table on every row, with its max line
    # and no breach line: norm_L / bound_m1m1 reaches 0.0834 at most
    # (sign_resolvent), err_N / bound_N 0.922 at most (sin_neumann, N = 0)
    res = _run(name)
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    table = resolvent.row_inequalities(study._series_orders(cfg))
    for lo, hi, lanczos in table:
        assert all(row[lo] <= row[hi] for row in res.rows)
        worst = max(row[lo] / row[hi] for row in res.rows)
        assert (f"# max {lo}/{hi} = {worst:.17g} "
                f"({lanczos} is a Lanczos lower estimate)") in res.footer
    assert sum(line.startswith("# max ") for line in res.footer) \
        == len(table)
    assert not any("_above_" in line for line in res.footer)


def test_every_criterion_config_is_covered():
    assert len(CRITERIA) == 12


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion_verdict(name):
    # bound_m1m1 / predicted reaches 1.011 at most on the families whose
    # declared limit is right (sparse_criterion), and 10.72 to 13.62 on
    # sign_criterion, whose declared limit is wrong
    res = _run(name)
    want = "not_certified" if name in NEGATIVE_CONTROLS else "rate_certified"
    assert res.footer[-1] == f"# verdict: {want}"
    worst = max(row["bound_m1m1"] / row["predicted"] for row in res.rows)
    assert res.footer[-2] == f"# max bound_m1m1/predicted = {worst:.17g}"


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
    # err_N <= bound_N on every row is an entry of the row-inequality
    # table (test_row_inequalities_hold)
    rows = _run("sin_neumann").rows
    orders = range(5)
    assert all(row["divergent"] == 0 for row in rows)
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
