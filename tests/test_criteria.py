"""Cell criteria against closed-form cell means of sin(x/eps)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.criteria import (NoCellsError, criterion_report, local_mean_limit,
                             optimize_eta)
from homlab.families import FieldTriple, deviation_triple, make_family
from homlab.fem import NumericalBreach
from homlab.fields import Box, CoefficientField, constant_field, zero_field
from homlab.lattice import Lattice, cell_integral, cells_inside

UNIT = Box((0.0,), (1.0,))


def sin_family(amp=1.0):
    def at(eps):
        return CoefficientField(
            1, lambda p: amp * np.sin(p[:, 0] / eps), abs(amp))

    return make_family(at, zero_field(1),
                       lambda eps: 2.0 * math.sqrt(eps), UNIT,
                       finest_scale=lambda eps: 2 * math.pi * eps)


def family_of(at, limit, domain=UNIT):
    """make_family with a zero rate and a finest scale of 1."""
    return make_family(at, limit, lambda eps: 0.0, domain,
                       finest_scale=lambda eps: 1.0)


def exact_rho1(eps, eta, n_cells):
    # cell mean over [k eta, (k+1) eta] of sin(x/eps)
    vals = [
        abs(eps / eta * (math.cos(k * eta / eps)
                         - math.cos((k + 1) * eta / eps)))
        for k in range(n_cells)
    ]
    return max(vals)


def exact_rho3(eps, eta, n_cells):
    # cell mean of sin^2(x/eps) = 1/2 - eps/(4 eta) [sin(2b/eps) - sin(2a/eps)]
    vals = []
    for k in range(n_cells):
        a, b = k * eta, (k + 1) * eta
        vals.append(0.5 - eps / (4 * eta)
                    * (math.sin(2 * b / eps) - math.sin(2 * a / eps)))
    return max(vals)


def test_rho1_matches_closed_form():
    fam = sin_family()
    eps, eta = 0.02, 0.2
    got = criterion_report(fam, eps, eta, refine=256).rho1
    assert got == pytest.approx(exact_rho1(eps, eta, 5), abs=1e-10)


def test_rho3_matches_closed_form():
    fam = sin_family()
    eps, eta = 0.02, 0.2
    got = criterion_report(fam, eps, eta, refine=256).rho3
    assert got == pytest.approx(exact_rho3(eps, eta, 5), abs=1e-10)


def test_report_bounds_are_derived_fields():
    fam = sin_family()
    rep = criterion_report(fam, 0.05, 0.25, refine=128)
    assert rep.bound_m1m1 == pytest.approx(rep.rho1 + 0.25)
    assert rep.bound_m10 == pytest.approx(
        math.sqrt(rep.rho3) + math.sqrt(0.25))
    assert rep.cell_count == 4
    assert rep.quad_error < 1e-10


def test_zero_family_has_zero_criteria():
    v0 = constant_field(1, 1.5)
    fam = family_of(lambda eps: v0, v0, UNIT)
    rep = criterion_report(fam, 0.1, 0.25, refine=16)
    assert rep.rho1 == 0.0
    assert rep.rho3 == 0.0
    assert rep.bound_m1m1 == pytest.approx(0.25)


def test_cell_mean_bound_two_eps_over_eta():
    # |cell mean of sin(x/eps)| <= 2 eps / eta uniformly
    fam = sin_family()
    for eps in (0.1, 0.03, 0.007):
        val = criterion_report(fam, eps, 0.3, refine=256).rho1
        assert val <= 2 * eps / 0.3 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(0.25, 4.0))
def test_criteria_scale_with_amplitude(c):
    eps, eta, r = 0.05, 0.25, 64
    base = criterion_report(sin_family(1.0), eps, eta, refine=r)
    scaled = criterion_report(sin_family(c), eps, eta, refine=r)
    assert scaled.rho1 == pytest.approx(c * base.rho1, rel=1e-9)
    assert scaled.rho3 == pytest.approx(c * c * base.rho3, rel=1e-9)


def test_optimize_eta_minimizes_bound():
    fam = sin_family()
    eps = 0.01
    eta, rep = optimize_eta(fam, eps, exponents=(0.3, 0.5, 0.7), refine=128)
    cands = {}
    for a in (0.3, 0.5, 0.7):
        e = eps ** a
        cands[e] = criterion_report(fam, eps, e, refine=128).bound_m1m1
    assert rep.bound_m1m1 == pytest.approx(min(cands.values()))
    assert eta == pytest.approx(min(cands, key=cands.get))


def sin_weight_family():
    """sin(x/eps) as a first-order weight q, next to a zero potential."""
    zero = zero_field(1)

    def at(eps):
        q = CoefficientField(1, lambda p: np.sin(p[:, 0] / eps), 1.0)
        return FieldTriple(v=zero, q=(q,))

    return make_family(at, FieldTriple(v=zero, q=(zero,)),
                       lambda eps: 2.0 * math.sqrt(eps), UNIT,
                      
                       finest_scale=lambda eps: 2 * math.pi * eps)


def test_optimize_eta_objective_m10():
    # a family with a weight is certified by bound_m10; here that picks
    # another eta than bound_m1m1 would
    fam = sin_weight_family()
    eps = 0.01
    eta, rep = optimize_eta(fam, eps, exponents=(0.3, 0.5, 0.7), refine=128)
    reps = {eps ** a: criterion_report(fam, eps, eps ** a, refine=128)
            for a in (0.3, 0.5, 0.7)}
    m10 = min(reps, key=lambda e: reps[e].bound_m10)
    m1m1 = min(reps, key=lambda e: reps[e].bound_m1m1)
    assert m10 != m1m1
    assert eta == m10
    assert rep.bound_m10 == reps[m10].bound_m10


def test_optimize_eta_raises_when_nothing_fits():
    tiny = Box((0.0,), (0.05,))
    v0 = zero_field(1)
    fam = family_of(lambda eps: v0, v0, tiny)
    with pytest.raises(ValueError):
        optimize_eta(fam, 0.5, exponents=(0.3, 0.5))


def test_local_mean_limit_constant_family():
    v0 = constant_field(1, 2.0)
    fam = family_of(lambda eps: v0, v0, UNIT)
    rep = local_mean_limit(fam, [0.1, 0.05, 0.025], math.sqrt,
                           sample_points=9)
    assert rep["rho2"] == pytest.approx(0.0, abs=1e-13)
    mu = math.sqrt(0.025)
    for x, val in zip(rep["grid"][:, 0], rep["samples"][-1]):
        if x + mu <= 1.0:
            assert val == pytest.approx(2.0, abs=1e-12)
        else:
            assert val is None  # window sticks out of the domain


def test_local_mean_limit_skips_boundary_windows():
    v0 = constant_field(1, 1.0)
    fam = family_of(lambda eps: v0, v0, UNIT)
    rep = local_mean_limit(fam, [0.1, 0.05], mu_rule=lambda e: 0.5,
                           sample_points=9)
    assert len(rep["skipped"]) > 0
    assert rep["mu_final"] == pytest.approx(0.5)


def test_local_mean_limit_needs_two_entries():
    v0 = constant_field(1, 1.0)
    fam = family_of(lambda eps: v0, v0, UNIT)
    with pytest.raises(ValueError):
        local_mean_limit(fam, [0.1], math.sqrt, sample_points=9)


# ------------------------------------------------- batched cell quadrature

def _family(text):
    from homlab import registry
    from homlab.config import StudyConfig
    return registry.build_family(StudyConfig.from_text(text, "<config>"))


def reference_report(family, eps, eta, refine):
    # the cell-by-cell loop: one call per cell for dev and for |dev|^2
    lat = family.suggested_lattice or Lattice(family.dim)
    cells = cells_inside(lat, eta, family.domain)
    measure = lat.cell_measure * eta ** family.dim
    rho1_, rho3_, quad = 0.0, 0.0, 0.0
    for dev in deviation_triple(family, eps).components():
        sq = CoefficientField(dev.dim, lambda p, d=dev: np.abs(d(p)) ** 2,
                              dev.sup_bound ** 2)
        for z in cells:
            (integral,), (err,) = cell_integral(lat, [z], eta, dev, refine)
            val = float(abs(integral)) / measure
            quad = max(quad, err / measure)
            rho1_ = max(rho1_, val)
            (sq_int,), (sq_err,) = cell_integral(lat, [z], eta, sq, refine)
            rho3_ = max(rho3_, complex(sq_int.item()).real / measure)
            quad = max(quad, sq_err / measure)
    return rho1_, rho3_, quad


@pytest.mark.parametrize("text, eps, eta, refine", [
    ("family.name = sign_sin\n", 0.013, 0.1, 8),
    ("family.name = sign_sin\n", 0.013, 0.1, 1),
    ("family.name = fractal_2d\n", 0.4, 0.5, 3),
])
def test_criterion_report_matches_cell_by_cell_loop(text, eps, eta, refine):
    fam = _family(text)
    rep = criterion_report(fam, eps, eta, refine=refine)
    got = (rep.rho1, rep.rho3, rep.quad_error)
    assert got == reference_report(fam, eps, eta, refine)
    assert all(type(v) is float for v in got)


def _counting_family(sizes):
    def counted(scale):
        def func(pts):
            sizes.append(len(pts))
            return scale * np.sin(pts[:, 0] / 0.003)
        return CoefficientField(1, func, abs(scale))

    zero = zero_field(1)
    return family_of(
        lambda eps: FieldTriple(v=counted(1.0), q=(counted(2.0),)),
        FieldTriple(v=zero, q=(zero,)))


def test_each_deviation_is_evaluated_once_per_rule():
    sizes = []
    rep = criterion_report(_counting_family(sizes), 0.01, 0.1, refine=16)
    # two components, each evaluated on the fine and on the coarse rule
    assert sizes == [10 * 64, 10 * 32] * 2
    assert rep.cell_count == 10


@pytest.mark.parametrize("budget", [64, 100, 1000])
def test_evaluations_stay_within_the_chunk_budget(monkeypatch, budget):
    # a 1D cell is one block, 64 points on the fine rule and 32 on the
    # coarse one, so every evaluation is whole cells
    from homlab import lattice
    sizes = []
    fam = _counting_family(sizes)
    expected = criterion_report(fam, 0.01, 0.1, refine=16)
    monkeypatch.setattr(lattice, "CHUNK_POINTS", budget)
    sizes.clear()
    rep = criterion_report(fam, 0.01, 0.1, refine=16)
    assert max(sizes) <= budget
    # per component: the fine rule's fills, then the coarse rule's
    assert sizes == {64: [64] * 10 + [64] * 5,
                     100: [64] * 10 + [96] * 3 + [32],
                     1000: [640, 320]}[budget] * 2
    assert rep == expected


def test_optimize_eta_reports_field_errors_instead_of_skipping():
    def wrong_shape(eps):
        # a closure returning (m, 2, 2) values for a scalar field
        return CoefficientField(
            1, lambda p: np.zeros((len(p), 2, 2)), 1.0)

    fam = family_of(wrong_shape, zero_field(1))
    with pytest.raises(ValueError, match="closure returned shape"):
        optimize_eta(fam, 0.01, exponents=(0.5,))
    tiny = Box((0.0,), (0.05,))
    v0 = zero_field(1)
    nothing_fits = family_of(lambda eps: v0, v0, tiny)
    with pytest.raises(NoCellsError):
        optimize_eta(nothing_fits, 0.5, exponents=(0.3, 0.5))


def _nan_family():
    # sin(x / 0.01), but nan at one point of every evaluation
    def func(pts):
        out = np.sin(pts[:, 0] / 0.01)
        out[0] = np.nan
        return out

    field_ = CoefficientField(1, func, 1.0)
    return family_of(lambda eps: field_, zero_field(1))


def test_nan_field_breaches_instead_of_certifying_zero():
    # a nan used to drop out of the max over cells and certify rho = 0
    fam = _nan_family()
    with pytest.raises(NumericalBreach, match="eps 0.01, eta 0.1"):
        criterion_report(fam, 0.01, 0.1, refine=16)
    with pytest.raises(NumericalBreach, match="eps 0.01, eta 0.1"):
        optimize_eta(fam, 0.01, exponents=(0.5,), refine=16)
    with pytest.raises(NumericalBreach, match="eps 0.01, eta 0.1"):
        local_mean_limit(fam, [0.01, 0.005], mu_rule=lambda eps: 0.1,
                         sample_points=3)
