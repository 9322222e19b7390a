"""Micro-benchmarks of single layers (pytest-benchmark).

Each case times one call on a fixed input with a few pedantic rounds, so
the suite stays fast; `pytest tests/test_microbench.py --benchmark-only`
prints the timing table alone.
"""

from pathlib import Path

import pytest

from homlab import registry, study
from homlab.config import StudyConfig
from homlab.norms import _hermitian_part, smallest_eigenvalue
from homlab.resolvent import assemble_setting

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("eps, dof", [(0.1, 159), (0.025, 639),
                                      (0.00625, 2559)])
def test_bench_smallest_eigenvalue(benchmark, eps, dof):
    # the stabilizing_arctan pencil that find_lambda examines at shift -1
    cfg = StudyConfig.load(CONFIGS / "stabilizing_resolvent.cfg")
    family = registry.build_family(cfg)
    spec = study._operator_spec(cfg, family)
    setting = assemble_setting(spec, family, eps, **study._mesh_opts(cfg))
    op = setting["op"]
    assert op.dof == dof
    h = _hermitian_part(op.base_form + setting["x_eps"] + op.gram_l2)
    c4 = benchmark.pedantic(smallest_eigenvalue, args=(h, op.gram_h1),
                            rounds=5, iterations=1)
    assert c4 == pytest.approx(1.0, abs=1e-5)
