"""Micro-benchmarks of single layers (pytest-benchmark).

Each case times one call on a fixed input with a few pedantic rounds, so
the suite stays fast; `pytest tests/test_microbench.py --benchmark-only`
prints the timing table alone.
"""

from pathlib import Path

import pytest

from homlab import registry, study
from homlab.config import StudyConfig
from homlab.norms import (_hermitian_part, kappa, norm_v_to_vstar,
                          smallest_eigenvalue)
from homlab.resolvent import assemble_setting, context_from_setting

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SIZES = [(0.1, 159), (0.025, 639), (0.00625, 2559)]


def _stabilizing_setting(eps, dof):
    cfg = StudyConfig.load(CONFIGS / "stabilizing_resolvent.cfg")
    family = registry.build_family(cfg)
    spec = study._operator_spec(cfg, family)
    setting = assemble_setting(spec, family, eps, **study._mesh_opts(cfg))
    assert setting["op"].dof == dof
    return setting


@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_smallest_eigenvalue(benchmark, eps, dof):
    # the stabilizing_arctan pencil that find_lambda examines at shift -1
    setting = _stabilizing_setting(eps, dof)
    op = setting["op"]
    h = _hermitian_part(op.base_form + setting["x_eps"] + op.gram_l2)
    c4 = benchmark.pedantic(smallest_eigenvalue, args=(h, op.gram_h1),
                            rounds=5, iterations=1)
    assert c4 == pytest.approx(1.0, abs=1e-5)


# the norms of a stabilizing_resolvent row, at the shift -1 its search accepts

@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_norm_v_to_vstar(benchmark, eps, dof):
    ctx = context_from_setting(_stabilizing_setting(eps, dof), -1.0)
    rep = benchmark.pedantic(norm_v_to_vstar, args=(ctx.L, ctx.op.gram_h1),
                             rounds=5, iterations=1)
    assert not rep.flagged


@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_kappa(benchmark, eps, dof):
    ctx = context_from_setting(_stabilizing_setting(eps, dof), -1.0)
    rep = benchmark.pedantic(
        kappa, args=(ctx.solver_eps.quick, ctx.solver0.quick, ctx.L,
                     ctx.op.gram_h1), rounds=5, iterations=1)
    assert not rep.flagged
