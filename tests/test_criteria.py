"""Cell criteria against closed-form cell means of sin(x/eps)."""

import collections
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab import criteria
from homlab.config import ConfigError
from homlab.criteria import (CriterionReport, NoCellsError, criterion_report,
                             local_mean_limit, optimize_eta, quad_error)
from homlab.families import FieldTriple, deviation_triple, make_family
from homlab.fem import NumericalBreach
from homlab.fields import Box, CoefficientField, constant_field, zero_field
from homlab.lattice import (cell_integral, cell_integral_error, cells_inside,
                            unit_lattice)

UNIT = Box((0.0,), (1.0,))


def sin_family(amp=1.0):
    def at(eps):
        return CoefficientField(
            1, lambda x: amp * np.sin(x[0] / eps), abs(amp))

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
    assert quad_error(rep) < 1e-10


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
        q = CoefficientField(1, lambda x: np.sin(x[0] / eps), 1.0)
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


def full_scan(bounds):
    """The pick of the descending scan over every candidate: eta -> bound,
    None for a candidate with no cells.  It moves only to a bound below
    the best by the relative margin 1e-12, so ties keep the larger eta."""
    best = None
    for eta in sorted(bounds, reverse=True):
        val = bounds[eta]
        if val is None:
            continue
        if best is None or val < best[1] * (1 - 1e-12):
            best = (eta, val)
    return best


@st.composite
def _candidate_bounds(draw, floor):
    """Exponents and a bound for each eta = 0.5^a they give, each at or
    above the exact floor of its bound: some at the floor, some a few
    1e-12 from another candidate's bound or floor, some far above, some
    with no cells."""
    base = draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=4))
    # exponents 1e-11 apart give etas a few 1e-12 apart
    near = [a + k * 1e-11 for a in base
            for k in draw(st.lists(st.integers(1, 3), max_size=2))]
    exponents = base + near
    etas = sorted({0.5 ** a for a in exponents})
    bounds = {}
    for eta in etas:
        low = floor(eta)
        kind = draw(st.sampled_from(["floor", "near", "far", "none"]))
        if kind == "none":
            bounds[eta] = None
        elif kind == "far":
            bounds[eta] = low * draw(st.floats(1.0, 4.0))
        else:
            anchors = [low] + [floor(e) for e in etas] + [
                v for v in bounds.values() if v is not None]
            ref = low if kind == "floor" else draw(st.sampled_from(anchors))
            k = draw(st.integers(-2 * len(etas) - 8, 2 * len(etas) + 8))
            bounds[eta] = max(low, ref * (1 + k * 0.5e-12))
    return exponents, bounds


def _pick_with_bounds(family, bounds, exponents):
    """optimize_eta's pick at eps 0.5 when each eta = 0.5^a has the given
    bound (None for no cells), and the etas it evaluated, in order."""
    calls = []

    def report(family, eps, eta, refine):
        calls.append(eta)
        if bounds[eta] is None:
            raise NoCellsError("no cells")
        return CriterionReport(eps=eps, eta=eta, rho1=0.0, rho3=0.0,
                               bound_m1m1=bounds[eta], bound_m10=bounds[eta],
                               cell_count=1, rule=None, integrals=())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria, "criterion_report", report)
        eta, _ = optimize_eta(family, 0.5, exponents, refine=16)
    return eta, calls


@pytest.mark.parametrize("weighted", [False, True])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pruned_pick_is_the_full_scans_pick(weighted, data):
    # bound_m10 >= fl(sqrt(eta)), bound_m1m1 >= eta
    floor = math.sqrt if weighted else float
    exponents, bounds = data.draw(_candidate_bounds(floor))
    fam = sin_weight_family() if weighted else sin_family()
    want = full_scan(bounds)
    if want is None:
        with pytest.raises(NoCellsError):
            _pick_with_bounds(fam, bounds, exponents)
        return
    eta, calls = _pick_with_bounds(fam, bounds, exponents)
    assert eta == want[0]
    assert calls == sorted(calls)  # from the smallest eta up
    assert eta in calls


def _near_tie_chain(steps):
    """Bounds on which the scans with and without eta 0.5 stay apart the
    longest: 2 at 0.5^0.5, 0.5 at its floor at 0.5, then at each smaller
    eta 0.5^2, 0.5^3, ... the lower of the two running bests times the
    margin, which only the scan holding the higher one takes, steps times
    and once more."""
    r = 1 - 1e-12
    bounds = {0.5 ** 0.5: 2.0, 0.5: 0.5}
    held = [0.5, 2.0]  # the running bests with and without 0.5
    for t in range(steps + 1):
        low = min(held)
        val = low * r
        bounds[0.5 ** (t + 2)] = val
        held[held.index(max(held))] = val
    return bounds


@pytest.mark.parametrize("steps", [0, 1, 2, 4])
def test_pruning_margin_covers_a_run_of_near_ties(steps):
    # the smallest bound is 0.5 (1 - 1e-12)^(steps + 1): a margin of
    # (1 - 1e-12)^steps or less would skip 0.5, and the scan without it
    # ends on another candidate than the full scan
    bounds = _near_tie_chain(steps)
    want = full_scan(bounds)
    exponents = [0.5] + list(range(1, steps + 3))
    assert want[0] != full_scan({**bounds, 0.5: None})[0]
    eta, calls = _pick_with_bounds(sin_family(), bounds, exponents)
    assert eta == want[0]
    # 0.5 ** 0.5 has its floor far above every smaller bound
    assert calls == sorted(bounds)[:-1]


# reports per row of each shipped criterion config: the candidates whose
# floor lies above a bound a smaller eta reached are never evaluated
SHIPPED_REPORTS_PER_ROW = {
    "almost_periodic_criterion": [5, 5, 5, 5, 4],
    "fractal_criterion": [1] * 5,  # a single exponent
    "locally_periodic2_criterion": [1] * 5,
    "locally_periodic_criterion": [2, 2, 2, 2, 1],
    "modulated_diffeo_criterion": [1] * 5,
    "modulated_periodic_criterion": [5] * 5,
    "random_criterion": [2, 2, 2, 2, 1],
    "regular_criterion": [5, 5, 5, 4, 2],
    "sign_criterion": [5] * 5,
    "sin_criterion": [1] * 7,
    "sparse_criterion": [5] * 5,
    "stabilizing_criterion": [5] * 5,
}


def test_shipped_criterion_configs_report_traffic(monkeypatch):
    from homlab import study
    from homlab.config import StudyConfig
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert sorted(SHIPPED_REPORTS_PER_ROW) == sorted(
        p.stem for p in configs.glob("*_criterion.cfg"))
    calls = []
    original = criteria.criterion_report

    def counted(family, eps, eta, refine):
        calls.append(eps)
        return original(family, eps, eta, refine)

    monkeypatch.setattr(criteria, "criterion_report", counted)
    for name, want in SHIPPED_REPORTS_PER_ROW.items():
        calls.clear()
        study.criterion_study(StudyConfig.load(configs / f"{name}.cfg"), 1234)
        assert list(collections.Counter(calls).values()) == want, name


def test_optimize_eta_raises_when_nothing_fits():
    tiny = Box((0.0,), (0.05,))
    v0 = zero_field(1)
    fam = family_of(lambda eps: v0, v0, tiny)
    # a config error, naming the keys that set the domain and the grid
    with pytest.raises(ConfigError,
                       match=r"^family\.domain = 0\.0, 0\.05: .* "
                       r"criterion\.exponents = 0\.3, 0\.5, .* eps = 0\.5$"):
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
    lat = family.suggested_lattice or unit_lattice(family.dim)
    cells = cells_inside(lat, eta, family.domain)
    measure = lat.cell_measure * eta ** family.dim
    rho1_, rho3_, quad = 0.0, 0.0, 0.0
    for dev in deviation_triple(family, eps).components():
        sq = CoefficientField(dev.dim, lambda x, d=dev: d(x) ** 2,
                              dev.sup_bound ** 2)
        for z in cells:
            fine = cell_integral(lat, [z], eta, dev, refine)
            (err,) = cell_integral_error(lat, [z], eta, dev, refine, fine)
            val = float(abs(fine[0])) / measure
            quad = max(quad, err / measure)
            rho1_ = max(rho1_, val)
            fine = cell_integral(lat, [z], eta, sq, refine)
            (sq_err,) = cell_integral_error(lat, [z], eta, sq, refine, fine)
            rho3_ = max(rho3_, float(fine.item()) / measure)
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
    got = (rep.rho1, rep.rho3, quad_error(rep))
    assert got == reference_report(fam, eps, eta, refine)
    assert all(type(v) is float for v in got)


def _counting_family(sizes):
    def counted(scale):
        def func(x):
            sizes.append(x[0].size)
            return scale * np.sin(x[0] / 0.003)
        return CoefficientField(1, func, abs(scale))

    zero = zero_field(1)
    return family_of(
        lambda eps: FieldTriple(v=counted(1.0), q=(counted(2.0),)),
        FieldTriple(v=zero, q=(zero,)))


def test_each_deviation_is_evaluated_once_per_rule():
    sizes = []
    rep = criterion_report(_counting_family(sizes), 0.01, 0.1, refine=16)
    # two components, each evaluated on the fine rule
    assert sizes == [10 * 64] * 2
    assert rep.cell_count == 10
    # the estimate evaluates each on the coarse rule only
    sizes.clear()
    quad_error(rep)
    assert sizes == [10 * 32] * 2


@pytest.mark.parametrize("budget", [64, 100, 1000])
def test_evaluations_stay_within_the_chunk_budget(monkeypatch, budget):
    # a 1D cell is one block, 64 points on the fine rule and 32 on the
    # coarse one, so every evaluation is whole cells
    from homlab import lattice
    sizes = []
    fam = _counting_family(sizes)
    expected = criterion_report(fam, 0.01, 0.1, refine=16)
    expected_error = quad_error(expected)
    monkeypatch.setattr(lattice, "CHUNK_POINTS", budget)
    # the order of a rule's evaluations is defined only on one thread
    monkeypatch.setattr(lattice, "_workers", lambda: 1)
    sizes.clear()
    rep = criterion_report(fam, 0.01, 0.1, refine=16)
    assert max(sizes) <= budget
    # per component: the fine rule's fills
    assert sizes == {64: [64] * 10, 100: [64] * 10, 1000: [640]}[budget] * 2
    assert rep == expected
    # then the estimate's: the coarse rule's fills
    sizes.clear()
    assert quad_error(rep) == expected_error
    assert max(sizes) <= budget
    assert sizes == {64: [64] * 5, 100: [96] * 3 + [32],
                     1000: [320]}[budget] * 2


def _fine_sizes(monkeypatch):
    """Collect every criterion_report optimize_eta makes, and the field
    evaluation sizes its fine rule takes: two components of cell_count
    cells of 64 points each at refine 16, one evaluation each."""
    reports = []
    original = criteria.criterion_report

    def kept(*args):
        reports.append(original(*args))
        return reports[-1]

    monkeypatch.setattr(criteria, "criterion_report", kept)
    return reports, lambda: [r.cell_count * 64 for r in reports
                             for _ in range(2)]


def test_optimize_eta_runs_no_half_resolution_rule(monkeypatch):
    sizes = []
    reports, fine = _fine_sizes(monkeypatch)
    eta, rep = optimize_eta(_counting_family(sizes), 0.01,
                            exponents=(0.3, 0.4, 0.5), refine=16)
    assert len(reports) == 3
    assert rep in reports and rep.eta == eta
    assert sizes == fine()


def test_a_criterion_row_estimates_the_picked_eta_only(monkeypatch):
    from homlab import registry, study
    from homlab.config import StudyConfig
    sizes = []
    fam = _counting_family(sizes)
    reports, fine = _fine_sizes(monkeypatch)
    monkeypatch.setattr(registry, "build_family", lambda cfg: fam)
    result = study.criterion_study(StudyConfig.from_text(
        "study.kind = criterion\nschedule.eps = 0.01\n"
        "criterion.exponents = 0.3, 0.4, 0.5\ncriterion.refine = 16\n",
        "<config>"), 1234)
    (row,) = result.rows
    (picked,) = [r for r in reports if r.eta == row["eta"]]
    assert len(reports) == 3
    # every candidate's fine rule, then the coarse rule once per
    # component, on the picked eta's cells
    assert sizes == fine() + [picked.cell_count * 32] * 2
    assert row["quad_error"] == quad_error(picked)


def test_local_mean_limit_runs_no_half_resolution_rule():
    # a finest scale of 1 gives refine 1 at mu = 0.1: one order-4 panel,
    # 4 points a window, where the estimate's order-2 panel has 2
    sizes = []
    fam = _counting_family(sizes)
    rep = local_mean_limit(fam, [0.01, 0.005], mu_rule=lambda eps: 0.1,
                           sample_points=9)
    inside = sum(v is not None for v in rep["samples"][0])
    assert inside == 9  # x + 0.1 <= 1 for x = 0.1, ..., 0.9
    assert sizes == [inside * 4] * 2


def test_optimize_eta_reports_field_errors_instead_of_skipping():
    def wrong_shape(eps):
        # a closure returning a 2 x 2 matrix per point for a scalar field
        return CoefficientField(
            1, lambda x: np.zeros(x[0].shape + (2, 2)), 1.0)

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
    def func(x):
        out = np.sin(x[0] / 0.01)
        out.flat[0] = np.nan
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
