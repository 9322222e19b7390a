"""Micro-benchmarks of single layers (pytest-benchmark).

Each case times one call on a fixed input with a few pedantic rounds, so
the suite stays fast; `pytest tests/test_microbench.py --benchmark-only`
prints the timing table alone.
"""

from pathlib import Path

import numpy as np
import pytest

from homlab import registry, study
from homlab.config import StudyConfig
from homlab.criteria import criterion_report, optimize_eta
from homlab.lattice import (CHUNK_POINTS, GAUSS_ORDER, cell_integral,
                            cells_inside, default_refine, unit_lattice)
from homlab.fem import (LinearSolver, _split, assemble_base, assemble_triple,
                        diagonals)
from homlab.norms import (Space, _hermitian_part, find_lambda,
                          norm_v_to_vstar, smallest_eigenvalue)
from homlab.resolvent import (assemble_setting, context_from_setting,
                              identity_residual, shifted_forms,
                              truncation_error_norm)
from test_norms import _pencils

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SIZES = [(0.1, 159), (0.025, 639), (0.00625, 2559)]


def _stabilizing():
    """(config, family, operator spec) of stabilizing_resolvent."""
    cfg = StudyConfig.load(CONFIGS / "stabilizing_resolvent.cfg")
    family = registry.build_family(cfg)
    return cfg, family, study._operator_spec(cfg, family)


def _stabilizing_setting(eps, dof):
    cfg, family, spec = _stabilizing()
    setting = assemble_setting(spec, family, eps, **study._mesh_opts(cfg))
    assert setting["op"].dof == dof
    return setting


def _tridiagonal_band(form):
    """Whether a form is a tridiagonal band form, as every form of these
    rows is: a dia_array at offsets -1, 0, 1 whose data is the band."""
    return form.format == "dia" and form.offsets.tolist() == [-1, 0, 1]


# the per-eps assembly of a stabilizing_resolvent row: the base form with
# both Grams on its mesh, and one perturbation triple at the row's refine
@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_assemble_base(benchmark, eps, dof):
    _, _, spec = _stabilizing()
    setting = _stabilizing_setting(eps, dof)
    op = benchmark.pedantic(assemble_base,
                            args=(spec, setting["op"].space.mesh), rounds=5,
                            iterations=1)
    assert op.dof == dof
    for name in ("base_form", "gram_h1", "gram_l2"):
        got, want = getattr(op, name), getattr(setting["op"], name)
        assert (got != want).nnz == 0 and got.nnz == want.nnz == 3 * dof - 2


@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_assemble_triple(benchmark, eps, dof):
    _, family, _ = _stabilizing()
    setting = _stabilizing_setting(eps, dof)
    x = benchmark.pedantic(
        assemble_triple,
        args=(setting["op"].space, family.at(eps), setting["meta"]["refine"]),
        rounds=5, iterations=1)
    assert (x.matrix != setting["x_eps"]).nnz == 0
    assert x.matrix.nnz == setting["x_eps"].nnz


@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_smallest_eigenvalue(benchmark, eps, dof):
    # the stabilizing_arctan pencil that find_lambda examines at shift -1
    setting = _stabilizing_setting(eps, dof)
    op = setting["op"]
    h = _hermitian_part(shifted_forms(setting, -1.0)[0])
    assert _tridiagonal_band(h) and _tridiagonal_band(op.gram_h1)
    c4, upper = benchmark.pedantic(smallest_eigenvalue, args=(h, op.gram_h1),
                                   rounds=5, iterations=1)
    assert c4 == pytest.approx(1.0, abs=1e-5)
    assert upper == pytest.approx(c4, rel=1e-10)


# per-row set-up of a resolvent row: the banded LU of G0 with its split
# bands, and the banded Cholesky factor of the mesh's H1 Gram, taken once
# a row
@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_linear_solver(benchmark, eps, dof):
    ctx = context_from_setting(_stabilizing_setting(eps, dof), -1.0)
    assert _tridiagonal_band(ctx.G0)
    solver = benchmark.pedantic(LinearSolver, args=(ctx.G0,), rounds=5,
                                iterations=1)
    # the tridiagonal G0 has three bands
    assert [band[2] for band in solver._bands] == [-1, 0, 1]
    # split once per entry, each split entry held twice
    offsets, data = diagonals(ctx.G0)
    for j0, j1, off, parts in solver._bands:
        want = _split(data[offsets == off][0].real[j0:j1])
        for got, once in zip(parts, want):
            assert got[0::2].tobytes() == once.tobytes()
            assert got[1::2].tobytes() == got[0::2].tobytes()
    assert solver.matrix_norm == float(abs(ctx.G0).sum(axis=1).max())
    # the factor is band storage alone: (3u + 1) n complex entries at
    # u = 1, and n pivots
    assert solver._lu.dtype == complex and solver._lu.size <= 4 * dof
    assert solver._piv.size == dof


@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_h1_factor(benchmark, eps, dof):
    gram = _stabilizing_setting(eps, dof)["op"].gram_h1
    assert _tridiagonal_band(gram)
    h1 = benchmark.pedantic(Space, args=(gram,), rounds=5, iterations=1)
    x = np.random.default_rng(dof).standard_normal(dof)
    # the primal norm is the Gram's: |U x|^2 = x^T S x
    assert np.linalg.norm(h1.coords(x)) ** 2 == pytest.approx(x @ (gram @ x),
                                                              rel=1e-12)


def test_bench_find_lambda(benchmark):
    # the coercivity search of stabilizing_resolvent on the perturbed and
    # limit forms of its first three eps: six bisections and witnesses at
    # the shift -1 it accepts
    pencils = _pencils([_stabilizing_setting(eps, dof) for eps, dof
                        in [(0.1, 159), (0.05, 319), (0.025, 639)]])
    assert all(_tridiagonal_band(H) and _tridiagonal_band(S)
               for H, S in pencils(-1.0))
    rep = benchmark.pedantic(find_lambda, args=(pencils,), rounds=5,
                             iterations=1)
    assert rep.lambda0 == -1.0
    assert rep.c4 == pytest.approx(1.0, abs=1e-5)


# a row's shift into its context: both shifted forms, the cross-check of
# the deviation route, L and L^H, and both banded LU factorizations
@pytest.mark.parametrize("eps, dof", [SIZES[0], SIZES[-1]])
def test_bench_context_from_setting(benchmark, eps, dof):
    setting = _stabilizing_setting(eps, dof)
    ctx = benchmark.pedantic(context_from_setting, args=(setting, -1.0),
                             rounds=5, iterations=1)
    assert all(_tridiagonal_band(form)
               for form in (ctx.G0, ctx.Geps, ctx.L, ctx.LH))
    assert ctx.L.dtype == ctx.LH.dtype == complex
    assert ctx.solver0.shape == ctx.solver_eps.shape == (dof, dof)


# the norms of a stabilizing_resolvent row, at the shift -1 its search
# accepts.  Each converges at the first check of the 12-vector first
# Lanczos basis: its applications of K^H K are that basis, one more, and
# the explicit residual.  The counts are deterministic, so a wider or
# slower basis fails here even when the timings are noisy
FIRST_RUNG = 12 + 2

@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_norm_v_to_vstar(benchmark, eps, dof):
    ctx = context_from_setting(_stabilizing_setting(eps, dof), -1.0)
    # the norm alone: a row factors its H1 Gram once (test_bench_h1_factor)
    rep = benchmark.pedantic(norm_v_to_vstar, args=(ctx.L, ctx.h1, 1234),
                             rounds=5, iterations=1)
    assert not rep.flagged
    assert rep.method["iterations"] <= FIRST_RUNG


@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_kappa(benchmark, eps, dof):
    # kappa = |R_eps - R_0| is the order-0 series remainder
    ctx = context_from_setting(_stabilizing_setting(eps, dof), -1.0)
    rep = benchmark.pedantic(truncation_error_norm, args=(ctx, 0, 1234),
                             rounds=5, iterations=1)
    assert not rep.flagged
    assert rep.method["iterations"] <= FIRST_RUNG


# a refined solve on these rows: the second refinement pass moves no bit,
# so it takes the residuals of its two passes and no third one.  Counted
# outside the timed rounds; a regression fails here even when the timings
# are noisy
RESIDUALS_PER_SOLVE = 2


def _counted(method, calls, name):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return method(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("eps, dof", SIZES)
def test_bench_identity_residual(benchmark, eps, dof, monkeypatch):
    # 20 loads in column blocks; each block makes one refined solve of the
    # loads f with R_eps, and one compensated residual on G0's bands
    ctx = context_from_setting(_stabilizing_setting(eps, dof), -1.0)
    err = benchmark.pedantic(identity_residual, args=(ctx, 1234), rounds=5,
                             iterations=1)
    assert err <= 1e-15
    calls = {"solve_pair": 0, "residual": 0}
    for solver in (ctx.solver0, ctx.solver_eps):
        for name in calls:
            monkeypatch.setattr(solver, name,
                                _counted(getattr(solver, name), calls, name))
    per_block = {"solve_pair": 0}
    monkeypatch.setattr(ctx.solver_eps, "solve_pair",
                        _counted(ctx.solver_eps.solve_pair, per_block,
                                 "solve_pair"))
    assert identity_residual(ctx, seed=1234) == err
    # one R_eps solve a block, and none with R_0
    assert per_block["solve_pair"] >= 1
    assert calls["solve_pair"] == per_block["solve_pair"]
    # the refined solve's own residuals, and one on G0's bands a block
    assert calls["residual"] == (RESIDUALS_PER_SOLVE + 1) * calls["solve_pair"]


# criterion_report on rows of sign_criterion (1D, many small cells batched
# together) and fractal_criterion (2D, one cell of 706k points), at the eta
# optimize_eta picks for them
CRITERION_ROWS = [("sign_criterion", 0.004, 0.4, 9),
                  ("sign_criterion", 0.002, 0.7, 77),
                  ("fractal_criterion", 0.18, 0.5, 1)]


@pytest.mark.parametrize("name, eps, exponent, cells", CRITERION_ROWS)
def test_bench_criterion_report(benchmark, name, eps, exponent, cells):
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    family = registry.build_family(cfg)
    refine = cfg.get_int("criterion.refine", 0) or None
    rep = benchmark.pedantic(
        criterion_report,
        args=(family, eps, eps ** exponent),
        kwargs={"refine": refine}, rounds=5, iterations=1)
    assert rep.cell_count == cells
    assert rep.rho1 > 0.0


# optimize_eta on the finest rows of sign_criterion (at its fixed refine
# 512) and stabilizing_criterion (at the default refine): every candidate
# eta's fine rule, and no error estimate
OPTIMIZE_ROWS = [("sign_criterion", 0.0016, 0.04, 25),
                 ("stabilizing_criterion", 0.00625, 0.00625 ** 0.4, 7)]


@pytest.mark.parametrize("name, eps, eta, cells", OPTIMIZE_ROWS)
def test_bench_optimize_eta(benchmark, name, eps, eta, cells):
    cfg = StudyConfig.load(CONFIGS / f"{name}.cfg")
    family = registry.build_family(cfg)
    refine = cfg.get_int("criterion.refine", 0) or None
    picked, rep = benchmark.pedantic(
        optimize_eta, args=(family, eps, study._criterion_exponents(cfg)),
        kwargs={"refine": refine}, rounds=5, iterations=1)
    assert picked == rep.eta == eta
    assert rep.cell_count == cells


def test_bench_fractal_cell_integral(benchmark):
    # one 2D cell of fractal_2d at eps 0.13, refine 64: the fine rule is
    # four field evaluations of CHUNK_POINTS points, and no coarse rule
    # runs
    family = registry.build_family(
        StudyConfig.from_text("family.name = fractal_2d\n", "<config>"))
    field_ = family.at(0.13).v
    refine = 64
    assert (GAUSS_ORDER * refine) ** 2 == 4 * CHUNK_POINTS
    # the cell (0.5, 1.5)^2 of the lattice 2 Z^2 - (1, 1) at eta 0.5
    out = benchmark.pedantic(
        cell_integral,
        args=(family.suggested_lattice, [(1, 1)], 0.5, field_, refine),
        kwargs={"squares": True}, rounds=5, iterations=1)
    assert np.isfinite(out).all()


def test_bench_fractal_finest_row_cell_integral(benchmark):
    # fractal_criterion's finest row: eps 0.13 at eta sqrt(eps), its 4
    # cells of the lattice 2 Z^2 - (1, 1) at the default refine 342, with
    # squares, each cell 1368^2 points of the fine rule.  On this
    # axis-aligned lattice the field gets x1 once per block and x2 once
    # per node
    family = registry.build_family(
        StudyConfig.load(CONFIGS / "fractal_criterion.cfg"))
    eps = 0.13
    eta = eps ** 0.5
    lat = family.suggested_lattice
    cells = np.array(cells_inside(lat, eta, family.domain))
    refine = default_refine(eta, family.finest_scale(eps))
    assert (len(cells), refine) == (4, 342)
    out = benchmark.pedantic(
        cell_integral, args=(lat, cells, eta, family.at(eps).v, refine),
        kwargs={"squares": True}, rounds=3, iterations=1)
    assert np.isfinite(out).all()


# cells_inside at the eta of the finest row of fractal_criterion (the
# lattice 2 Z^2 - (1, 1) on its default box [0, 2]^2) and of
# sign_criterion (the 1D unit lattice on (0, 1)), each eps^0.5
FINEST_CELL_ROWS = [("fractal_criterion", 0.13, 4),
                    ("sign_criterion", 0.0016, 25)]


@pytest.mark.parametrize("name, eps, cells", FINEST_CELL_ROWS)
def test_bench_cells_inside(benchmark, name, eps, cells):
    family = registry.build_family(StudyConfig.load(CONFIGS / f"{name}.cfg"))
    lat = family.suggested_lattice or unit_lattice(family.dim)
    found = benchmark.pedantic(cells_inside,
                               args=(lat, eps ** 0.5, family.domain),
                               rounds=5, iterations=100)
    assert len(found) == cells
