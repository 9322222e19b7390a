"""The family record and the catalogue entries, against hand-computed
values and invariants."""

import math

import numpy as np
import pytest

from homlab.config import ConfigError, StudyConfig
from homlab.families import FieldTriple, deviation_triple, make_family
from homlab.fields import (Box, CoefficientField, constant_field, sub_fields,
                           zero_field)
from homlab.lattice import _panel_rule, _rule_points
from homlab.registry import REGISTRY, build_family, implicit_eta
from homlab.study import run_study

UNIT = Box((0.0,), (1.0,))


def _family(at, limit, rate=lambda eps: eps):
    return make_family(at, limit, rate, UNIT, finest_scale=lambda eps: 1.0)


def _entry(text):
    return build_family(StudyConfig.from_text(text, "<config>"))


def _value(field_, x):
    """The field at the single point x, as a float."""
    return float(field_((np.array([x]),))[0])


def _regular_sin():
    def at(eps):
        return CoefficientField(1, lambda x: eps * np.sin(x[0]), eps)

    return _family(at, zero_field(1))


def test_regular_family_deviations_match_definition():
    fam = _regular_sin()
    xs = np.linspace(0.1, 0.9, 7)
    got = deviation_triple(fam, 0.25).v((xs,))
    assert np.allclose(got, 0.25 * np.sin(xs), atol=1e-15)
    assert fam.rate(0.25) == pytest.approx(0.25)


def test_regular_family_rejects_shape_mismatch():
    # the field, the limit and the domain must have one dimension
    with pytest.raises(ValueError, match="field 2, limit 1, domain 1"):
        _family(lambda eps: zero_field(2), zero_field(1))
    with pytest.raises(ValueError, match="field 2, limit 2, domain 1"):
        _family(lambda eps: zero_field(2), zero_field(2))
    square = Box((0.0, 0.0), (1.0, 1.0))
    fam = make_family(lambda eps: zero_field(2), zero_field(2),
                      lambda eps: eps, square, finest_scale=lambda eps: 1.0)
    assert fam.dim == 2


def test_zero_or_absent_limit_is_not_subtracted():
    calls = []

    def zero(x):
        calls.append(x[0].size)
        return np.zeros(x[0].shape)

    lim = CoefficientField(1, zero, 0.0)

    def at(eps):
        return FieldTriple(
            v=CoefficientField(1, lambda x: eps * np.sin(x[0]), eps),
            q=(CoefficientField(1, lambda x: -eps * np.cos(x[0]), eps),))

    fam = _family(at, lim)
    pts = (np.linspace(0.0, 1.0, 11),)
    dev = deviation_triple(fam, 0.25)
    parts = at(0.25)
    assert (len(dev.q), len(dev.p)) == (1, 0)
    for got, ref in ((dev.v, sub_fields(parts.v, lim)),
                     (dev.q[0], sub_fields(parts.q[0],
                                           zero_field(1)))):
        calls.clear()
        assert np.array_equal(got(pts), ref(pts))
        assert got.sup_bound == ref.sup_bound
    calls.clear()
    dev.v(pts)
    assert calls == []


def test_deviation_triple_keeps_weight_order():
    # eleven weights: ordering them by a text label would put q10 third
    weights = tuple(constant_field(1, j + 1.0) for j in range(11))
    fam = _family(
        lambda eps: FieldTriple(v=zero_field(1), q=weights),
        zero_field(1))
    point = (np.array([0.5]),)
    got = [q(point)[0] for q in deviation_triple(fam, 0.1).q]
    assert got == [float(j) for j in range(1, 12)]


def test_identical_family_has_zero_deviations():
    v0 = constant_field(1, 3.0)
    fam = _family(lambda eps: v0, v0, lambda eps: 0.0)
    pts = (np.linspace(0.0, 1.0, 11),)
    for dev in deviation_triple(fam, 0.01).components():
        assert np.abs(dev(pts)).max() == 0.0


def test_stabilizing_profile_value():
    # amp (2/pi) arctan(x/eps) tends to its tail value amp
    fam = _entry("family.name = stabilizing_arctan\nfamily.amplitude = 1.5\n")
    eps = 0.05
    for x in (0.2, 0.7):
        assert _value(fam.at(eps).v, x) == pytest.approx(
            1.5 * (2.0 / math.pi) * math.atan(x / eps), rel=1e-15)
    assert _value(fam.limit.v, 0.5) == 1.5
    third = eps ** (1.0 / 3.0)
    assert fam.rate(eps) == pytest.approx(
        1.5 * (2.0 / math.pi) * third + third)


def test_stabilizing_rate_ignores_the_amplitude_sign():
    # the tail distance rho6 is a size: a negative amplitude used to
    # print a negative predicted rate
    rows = {}
    for amp in (-2.0, 2.0):
        cfg = StudyConfig.from_text(
            "study.kind = criterion\nfamily.name = stabilizing_arctan\n"
            f"family.amplitude = {amp}\nschedule.eps = 0.1, 0.05\n",
            "<config>")
        rows[amp] = [row["predicted"] for row
                     in run_study("criterion", cfg, seed=1234).rows]
    assert rows[-2.0] == rows[2.0]
    assert all(p > 0 for p in rows[2.0])


def test_locally_periodic_single_scale_rate():
    # one scale: no separation penalty, the rate is sqrt(eps)
    for text in ("family.name = two_scale_linear\n",
                 "family.name = locally_periodic\nfamily.levels = 1\n"):
        fam = _entry(text)
        assert fam.rate(0.04) == pytest.approx(0.2)
        assert fam.finest_scale(0.04) == 0.04
    linear = _entry("family.name = two_scale_linear\n")
    eps = 0.125
    assert _value(linear.at(eps).v, 0.5) == pytest.approx(
        0.5 * (1.0 + math.cos(2 * math.pi * 0.5 / eps)))
    assert _value(linear.limit.v, 0.3) == pytest.approx(0.3)


def test_locally_periodic_two_scale_separation_penalty():
    fam = _entry("family.name = locally_periodic\nfamily.levels = 2\n"
                 "family.rho8_scale = 2.0\nfamily.amplitude = 0.5\n")
    eps = 0.1
    # rho8(t) = min(2 c, c t) at c = 2, at t = sqrt(2) eps^2 / eps
    expected = min(4.0, 2.0 * math.sqrt(2.0) * eps) + math.sqrt(eps)
    assert fam.rate(eps) == pytest.approx(expected)
    assert fam.finest_scale(eps) == pytest.approx(eps ** 2)
    x = 0.3
    assert _value(fam.at(eps).v, x) == pytest.approx(
        0.5 * (1.0 + 0.5 * math.sin(2 * math.pi * x))
        * math.cos(2 * math.pi * x / eps)
        * math.cos(2 * math.pi * x / eps ** 2))


def test_almost_periodic_box_average_oracle():
    # 2 cos(3 x / eps): its mean over (0, r) is 2 eps sin(3 r / eps) / (3 r),
    # within the rate's term for the cosine, 2 |a| eps / (alpha r)
    fam = _entry("family.name = almost_periodic\nfamily.frequencies = 3.0\n"
                 "family.amplitudes = 2.0\n")
    eps = 0.01
    r = 0.2
    n = 40001
    xs = np.linspace(0.0, r, n)
    vals = fam.at(eps).v((xs,))
    measured = np.trapezoid(vals, dx=r / (n - 1)) / r
    exact = 2 * eps * math.sin(r * 3.0 / eps) / (r * 3.0)
    assert measured == pytest.approx(exact, abs=5e-6)
    assert abs(measured) <= 2 * (2 * eps / (r * 3.0)) + 1e-12
    assert _value(fam.limit.v, 0.5) == 0.0


def test_almost_periodic_limit_is_family_mean():
    fam = _entry("family.name = almost_periodic\nfamily.frequencies = 2.0\n"
                 "family.amplitudes = 1.0\nfamily.mean = 1.5\n")
    assert _value(fam.limit.v, 0.3) == 1.5
    eps = 0.04
    assert _value(fam.at(eps).v, 0.3) == pytest.approx(
        1.5 + math.cos(2.0 * 0.3 / eps))
    # rate at eps: the cell eta = sqrt(eps) covers eta/eps periods of the
    # cosine, of amplitude 1
    eta = math.sqrt(eps)
    expected = min(1.0, 2.0 / (2.0 * eta / eps)) * 1.0 + eta
    assert fam.rate(eps) == pytest.approx(expected)


def test_almost_periodic_rejects_a_zero_frequency():
    with pytest.raises(ConfigError, match="family.mean sets the constant"):
        _entry("family.name = almost_periodic\nfamily.frequencies = 0.0, 1.0\n")


def test_sparse_bumps_vanish_off_support():
    # eps = 0.1 and both powers 1: centers 0.05, 0.15, ..., 0.95 (rho4 =
    # 0.1 apart) and bumps of radius rho4 rho5 = 0.01
    fam = _entry("family.name = sparse_bumps\nfamily.amplitude = 2.0\n"
                 "family.rho4_power = 1.0\nfamily.rho5_power = 1.0\n")
    eps = 0.1
    v = fam.at(eps).v
    assert _value(v, 0.25) == pytest.approx(2.0)
    assert _value(v, 0.255) == pytest.approx(2.0 * math.cos(0.25 * math.pi) ** 2)
    assert _value(v, 0.3) == 0.0
    assert _value(v, 0.95) == pytest.approx(2.0)
    xs = np.linspace(0.0, 1.0, 2001)
    vals = v((xs,))
    centers = 0.05 + 0.1 * np.arange(10)
    dist = np.min(np.abs(xs[:, None] - centers[None, :]), axis=1)
    near = dist <= 0.01 * (1 + 1e-9)
    assert np.all(vals[~near] == 0.0)
    assert np.all(vals[near] >= 0.0)
    assert fam.rate(eps) == pytest.approx(0.1 + 0.1)
    assert fam.finest_scale(eps) == pytest.approx(0.01)
    assert fam.limit.v.sup_bound == 0.0


@pytest.mark.parametrize("lower, upper, jac_max", [
    (0.5, 3.5, 1.0),  # holds the crest pi/2 of |sin|
    (4.0, 5.0, 1.0),  # holds the crest 3 pi/2
    (3.3, 4.5, abs(math.sin(4.5))),  # between crests: the larger end
], ids=["first_crest", "second_crest", "between_crests"])
def test_modulated_periodic_finest_scale_uses_the_exact_max_slope(
        lower, upper, jac_max):
    # the finest scale is eps / max |phi'|, with phi' = -sin on the domain
    fam = _entry("family.name = modulated_periodic\n"
                 f"family.domain = {lower}, {upper}\n")
    assert fam.finest_scale(0.01) == 0.01 / jac_max


def test_implicit_eta_closed_form():
    # p0(t) = sqrt(t): p1(r) = min(r^2, r^2) = r^2, threshold sqrt(eps)
    eps = 0.01
    eta = implicit_eta(lambda t: math.sqrt(t), eps)
    assert eta == pytest.approx(eps ** 0.25, abs=1e-10)


def test_implicit_eta_degenerate_raises():
    with pytest.raises(ValueError):
        implicit_eta(lambda t: 1e-6, 0.25)


def test_random_family_deterministic_in_seed():
    def build(seed):
        return _entry(f"family.name = random_rotation\nfamily.seed = {seed}\n")

    pts = (np.linspace(0, 1, 9),)
    va, vb, vc = (build(seed).at(0.03).v(pts) for seed in (42, 42, 43))
    assert np.array_equal(va, vb)
    assert not np.allclose(va, vc)


def test_field_triple_component_order():
    v, q0, p0, p1 = (constant_field(1, c) for c in (1.0, 2.0, 3.0, 4.0))
    trip = FieldTriple(v=v, q=(q0,), p=(p0, p1))
    assert trip.components() == [v, q0, p0, p1]


CRIT = "study.kind = criterion\nschedule.eps = 0.1\n"


@pytest.mark.parametrize("name, bounds", [
    ("regular_sin", "0, 0, 1, 1"),
    ("stabilizing_arctan", "0, 0, 1, 1"),
    ("fractal_2d", "0, 2"),
    ("sparse_bumps", "0, 1, 2"),
])
def test_domain_needs_the_entry_dimension(name, bounds):
    cfg = StudyConfig.from_text(
        f"{CRIT}family.name = {name}\nfamily.domain = {bounds}\n", "<config>")
    with pytest.raises(ConfigError, match="family.domain"):
        run_study("criterion", cfg, seed=1234)


def test_modulated_diffeo_refuses_a_degenerate_jacobian():
    # 3 x^2 at x = 1e-5 is 3e-10, below the Jacobian tolerance
    cfg = StudyConfig.from_text(
        f"{CRIT}family.name = modulated_diffeo\nfamily.domain = 1e-5, 1\n",
        "<config>")
    with pytest.raises(ConfigError, match="family.domain"):
        run_study("criterion", cfg, seed=1234)


def _fractal_cases():
    # coordinates of a tensor fill of the lattice 2 Z^2 - (1, 1), as cell
    # quadrature passes them: x1 once per block and x2 once per node; the
    # same points materialized and shuffled; a fill on unequal sides with
    # its coordinates written out full; and a single point
    pts1, _ = _panel_rule(5)
    tensor = _rule_points(pts1, np.array([0.5, 0.5]),
                          np.array([[0.5, 0.5], [1.5, 0.5]]), 0, 20)
    flat = [c.ravel() for c in np.broadcast_arrays(*tensor)]
    order = np.random.default_rng(5).permutation(len(flat[0]))
    shuffled = tuple(c[order] for c in flat)
    skew = tuple(np.ascontiguousarray(c) for c in np.broadcast_arrays(
        *_rule_points(pts1, np.array([0.7, 0.5]), np.array([[0.3, 0.4]]),
                      3, 9)))
    single = (np.array([1.3]), np.array([0.7]))
    return {"tensor": tensor, "shuffled": shuffled, "skew": skew,
            "single": single}


@pytest.mark.parametrize("case", sorted(_fractal_cases()))
def test_fractal_field_equals_the_elementwise_product(case):
    # one cos(x1 / eps) per block, broadcast over the block, gives the
    # bits of the product written out point by point
    amp, eps = 0.7, 0.13
    x = _fractal_cases()[case]
    x1, x2 = np.broadcast_arrays(*x)
    ref = amp * np.cos(x1 / eps) * np.cos(x1 * x2 / eps ** 2)
    field_ = _entry(f"family.name = fractal_2d\n"
                    f"family.amplitude = {amp}\n").at(eps).v
    got = field_(x)
    assert got.shape == ref.shape
    assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
    if case == "tensor":
        # 2 cells of 20 blocks of 20 points
        assert [c.shape for c in x] == [(2, 20, 1), (2, 1, 20)]
    if case == "skew":
        assert [c.shape for c in x] == [(1, 9, 20)] * 2


def test_fractal_finest_scale_covers_both_axes_and_factors():
    eps = 0.13
    # the default box [0, 2]^2: the phase's scale eps^2 / 2, in the bits
    # the shipped outputs follow
    default = _entry("family.name = fractal_2d\n")
    assert default.finest_scale(eps) == (2 * math.pi * eps ** 2
                                         / (2 * math.pi * 2.0))
    # on a tall box the phase x1 x2 / eps^2 oscillates fastest along x1,
    # at rate |x2| / eps^2 up to 4 / eps^2, not |x1| / eps^2 <= 1 / eps^2
    tall = _entry("family.name = fractal_2d\nfamily.domain = 0, 0, 1, 4\n")
    assert tall.finest_scale(eps) == pytest.approx(eps ** 2 / 4.0,
                                                   rel=1e-15)
    # within eps of the origin the factor cos(x1 / eps) is the finer one
    small = _entry("family.name = fractal_2d\n"
                   "family.domain = 0, 0, 0.05, 0.05\n")
    assert small.finest_scale(eps) == eps


def _family_fields(family, eps):
    trips = (family.at(eps), family.limit)
    return [f for t in trips for f in (t.v, *t.q, *t.p)]


def _box_points(family, rng, m):
    lo, hi = np.array(family.domain.lower), np.array(family.domain.upper)
    return lo + (hi - lo) * rng.random((m, family.dim))


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_fields_do_not_depend_on_memory_layout(name):
    # a field must give the same bits on strided coordinates, the columns
    # of a C-ordered point array, as on contiguous copies of them
    family = _entry(f"family.name = {name}\n")
    rows = np.ascontiguousarray(
        _box_points(family, np.random.default_rng(11), 96))
    strided, contiguous = tuple(rows.T), tuple(np.ascontiguousarray(rows.T))
    assert not strided[0].flags.c_contiguous or family.dim == 1
    for field_ in _family_fields(family, 0.1):
        assert field_(strided).tobytes() == field_(contiguous).tobytes()


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_fields_honour_the_broadcast_contract(name):
    # coordinates as cell quadrature passes them on an axis-aligned
    # lattice: x1 (C, k, 1) and x2 (C, 1, m) in 2D, x1 (C, 1, m) in 1D.
    # The values have the broadcast shape and the bits of an evaluation
    # on the broadcast coordinates, as views and as contiguous copies
    family = _entry(f"family.name = {name}\n")
    lo, hi = family.domain.lower, family.domain.upper
    rng = np.random.default_rng(17)
    shapes = [(3, 5, 1), (3, 1, 7)][2 - family.dim:]
    x = tuple(a + (b - a) * rng.random(shape)
              for a, b, shape in zip(lo, hi, shapes))
    views = np.broadcast_arrays(*x)
    copies = tuple(np.ascontiguousarray(c) for c in views)
    want = np.broadcast_shapes(*shapes)
    for field_ in _family_fields(family, 0.1):
        got = field_(x)
        assert got.shape == want
        assert got.tobytes() == field_(views).tobytes()
        assert got.tobytes() == field_(copies).tobytes()


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_fields_evaluate_concurrently_bit_for_bit(name):
    # cell quadrature may run a field's closure on several threads at
    # once; two threads evaluating every field together must each get the
    # bits of a serial evaluation
    import threading
    family = _entry(f"family.name = {name}\n")
    pts = tuple(_box_points(family, np.random.default_rng(13), 20000).T)
    fields = _family_fields(family, 0.1)
    serial = [f(pts).tobytes() for f in fields]
    start = threading.Barrier(2)
    results = [[], []]

    def evaluate(k):
        start.wait()
        for _ in range(10):
            results[k].append([f(pts).tobytes() for f in fields])

    threads = [threading.Thread(target=evaluate, args=(k,)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert all(got == serial for res in results for got in res)
    assert len(results[0]) == len(results[1]) == 10
