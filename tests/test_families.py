"""Family constructors against hand-computed values and invariants."""

import math

import numpy as np
import pytest

from homlab.ergodic import ErgodicSystem
from homlab.families import (FieldTriple, deviation_triple,
                             implicit_eta, make_almost_periodic, make_locally_periodic,
                             make_random, make_regular, make_sparse,
                             make_stabilizing)
from homlab.fields import (Box, CoefficientField, constant_field, scalar_field,
                           sub_fields, zero_field)

UNIT = Box((0.0,), (1.0,))


def _regular_sin():
    def at(eps):
        return scalar_field(1, lambda p: eps * np.sin(p[:, 0]), eps, UNIT)

    return make_regular(at, zero_field(1, 1, UNIT), lambda eps: eps, UNIT)


def test_regular_family_deviations_match_definition():
    fam = _regular_sin()
    pts = np.linspace(0.1, 0.9, 7)[:, None]
    got = deviation_triple(fam, 0.25).v(pts)[:, 0, 0]
    assert np.allclose(got, 0.25 * np.sin(pts[:, 0]), atol=1e-15)
    assert fam.rate(0.25) == pytest.approx(0.25)


def test_regular_family_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        make_regular(lambda eps: zero_field(1, 2, UNIT),
                     zero_field(1, 1, UNIT), lambda eps: eps, UNIT)


def test_zero_or_absent_limit_is_not_subtracted():
    calls = []

    def zero(pts):
        calls.append(len(pts))
        return np.zeros((len(pts), 1, 1))

    lim = CoefficientField(1, 1, zero, 0.0, UNIT)

    def at(eps):
        return FieldTriple(
            v=scalar_field(1, lambda p: eps * np.sin(p[:, 0]), eps, UNIT),
            q=(scalar_field(1, lambda p: -eps * np.cos(p[:, 0]), eps, UNIT),))

    fam = make_regular(at, lim, lambda eps: eps, UNIT)
    pts = np.linspace(0.0, 1.0, 11)[:, None]
    dev = deviation_triple(fam, 0.25)
    parts = at(0.25)
    assert (len(dev.q), len(dev.p)) == (1, 0)
    for got, ref in ((dev.v, sub_fields(parts.v, lim)),
                     (dev.q[0], sub_fields(parts.q[0],
                                           zero_field(1, 1, UNIT)))):
        calls.clear()
        assert np.array_equal(got(pts), ref(pts))
        assert got.sup_bound == ref.sup_bound
        assert got.domain == ref.domain
    calls.clear()
    dev.v(pts)
    assert calls == []


def test_deviation_triple_keeps_weight_order():
    # eleven weights: ordering them by a text label would put q10 third
    weights = tuple(constant_field(1, j + 1.0, UNIT) for j in range(11))
    fam = make_regular(
        lambda eps: FieldTriple(v=zero_field(1, 1, UNIT), q=weights),
        zero_field(1, 1, UNIT), lambda eps: eps, UNIT)
    point = np.array([[0.5]])
    got = [q(point)[0, 0, 0].real for q in deviation_triple(fam, 0.1).q]
    assert got == [float(j) for j in range(1, 12)]


def test_identical_family_has_zero_deviations():
    v0 = constant_field(1, 3.0, UNIT)
    fam = make_regular(lambda eps: v0, v0, lambda eps: 0.0, UNIT)
    pts = np.linspace(0.0, 1.0, 11)[:, None]
    for dev in deviation_triple(fam, 0.01).components():
        assert np.abs(dev(pts)).max() == 0.0


def test_stabilizing_profile_value():
    # V(x, xi) = 2 + exp(-xi); at eps the value at x is 2 + exp(-x/eps)
    def vfun(x, xi):
        return (2.0 + np.exp(-np.abs(xi[:, 0])))[:, None, None]

    fam = make_stabilizing(vfun, constant_field(1, 2.0, UNIT),
                           rho6=lambda eps: math.exp(-eps ** (-1.0 / 3.0)),
                           domain=UNIT, sup_bound=3.0)
    eps = 0.05
    pts = np.array([[0.2], [0.7]])
    vals = fam.at(eps).v(pts)[:, 0, 0]
    assert np.allclose(vals, 2.0 + np.exp(-pts[:, 0] / eps), atol=1e-15)
    assert fam.rate(eps) == pytest.approx(
        math.exp(-eps ** (-1.0 / 3.0)) + eps ** (1.0 / 3.0))


def test_locally_periodic_single_scale_rate():
    def vfun(x, xi):
        return (x[:, 0] * (1.0 + np.cos(2 * math.pi * xi[:, 0])))[:, None, None]

    fam = make_locally_periodic(
        vfun, [lambda eps: eps],
        scalar_field(1, lambda p: p[:, 0], 1.0, UNIT),
        rho8=lambda r: r, domain=UNIT, sup_bound=2.0)
    # m = 1: no separation penalty, rate is sqrt of the single scale
    assert fam.rate(0.04) == pytest.approx(0.2)
    pts = np.array([[0.5]])
    eps = 0.125
    val = fam.at(eps).v(pts)[0, 0, 0]
    assert val == pytest.approx(0.5 * (1.0 + math.cos(2 * math.pi * 0.5 / eps)))


def test_locally_periodic_two_scale_separation_penalty():
    def vfun(x, xi1, xi2):
        return (np.cos(2 * math.pi * xi1[:, 0])
                + np.cos(2 * math.pi * xi2[:, 0]))[:, None, None]

    rho8 = lambda r: 2.0 * r
    fam = make_locally_periodic(
        vfun, [lambda eps: eps, lambda eps: eps ** 2],
        zero_field(1, 1, UNIT), rho8=rho8, domain=UNIT, sup_bound=2.0)
    eps = 0.1
    expected = 2.0 * (math.sqrt(2.0) * 1.0 * eps ** 2 / eps) + math.sqrt(eps)
    assert fam.rate(eps) == pytest.approx(expected)
    assert fam.finest_scale(eps) == pytest.approx(eps ** 2)


def test_almost_periodic_box_average_oracle():
    # single frequency alpha: the mean over (0, r) of e^{i alpha x / eps}
    # has magnitude |2 eps sin(r alpha / (2 eps)) / (r alpha)| <= 2 eps/(r alpha)
    fam = make_almost_periodic([(np.array([3.0]), np.array([[1.0]]))], UNIT)
    eps = 0.01
    r = 0.2
    trip = fam.at(eps)
    n = 40001
    xs = np.linspace(0.0, r, n)[:, None]
    vals = trip.v(xs)[:, 0, 0]
    measured = np.abs(np.trapezoid(vals, dx=r / (n - 1)) / r)
    exact = abs(2 * eps * math.sin(r * 3.0 / (2 * eps)) / (r * 3.0))
    assert measured == pytest.approx(exact, abs=5e-6)
    assert measured <= 2 * eps / (r * 3.0) + 1e-12


def test_almost_periodic_limit_collects_zero_frequency():
    fam = make_almost_periodic(
        [(np.array([0.0]), np.array([[1.5]])),
         (np.array([2.0]), np.array([[0.5]]))], UNIT)
    pts = np.array([[0.3]])
    assert fam.limit.v(pts)[0, 0, 0] == pytest.approx(1.5)
    # rate at eps: cell eta = sqrt(eps) covers eta/eps periods
    eps = 0.04
    eta = math.sqrt(eps)
    expected = min(1.0, 2.0 / (2.0 * eta / eps)) * 0.5 + eta
    assert fam.rate(eps) == pytest.approx(expected)


def test_sparse_bumps_vanish_off_support():
    fam = make_sparse(
        centers=lambda eps: np.array([[0.25], [0.75]]),
        rho4=lambda eps: 0.4,
        rho5=lambda eps: 0.1,
        bump_profile=lambda r: 1.0 - r,
        amplitude=np.array([[2.0]]),
        domain=UNIT,
    )
    trip = fam.at(0.1)
    # radius 0.04 around each center
    vals = trip.v(np.array([[0.25], [0.27], [0.5], [0.75]]))[:, 0, 0]
    assert vals[0] == pytest.approx(2.0)
    assert vals[1] == pytest.approx(2.0 * (1.0 - 0.02 / 0.04))
    assert vals[2] == 0.0
    assert vals[3] == pytest.approx(2.0)
    assert fam.rate(0.1) == pytest.approx(0.1 + 0.4)


def test_sparse_rejects_close_centers():
    fam = make_sparse(
        centers=lambda eps: np.array([[0.5], [0.6]]),
        rho4=lambda eps: 0.4,
        rho5=lambda eps: 0.1,
        bump_profile=lambda r: 1.0 - r,
        amplitude=1.0,
        domain=UNIT,
    )
    with pytest.raises(ValueError):
        fam.at(0.1)


def test_implicit_eta_closed_form():
    # p0(t) = sqrt(t): p1(r) = min(r^2, r^2) = r^2, threshold sqrt(eps)
    eps = 0.01
    eta = implicit_eta(lambda t: math.sqrt(t), eps)
    assert eta == pytest.approx(eps ** 0.25, abs=1e-10)


def test_implicit_eta_degenerate_raises():
    with pytest.raises(ValueError):
        implicit_eta(lambda t: 1e-6, 0.25)


def test_random_family_deterministic_in_seed():
    def obs(pts):
        return np.cos(2 * math.pi * pts[:, 0])[:, None, None]

    sys1 = ErgodicSystem(k=1, dim=1, flow=np.array([[1.0 / math.sqrt(3)]]),
                         observable=obs, ncomp=1, sup_bound=1.0)
    fam_a = make_random(sys1, UNIT, seed=42)
    fam_b = make_random(sys1, UNIT, seed=42)
    fam_c = make_random(sys1, UNIT, seed=43)
    pts = np.linspace(0, 1, 9)[:, None]
    va = fam_a.at(0.03).v(pts)
    vb = fam_b.at(0.03).v(pts)
    vc = fam_c.at(0.03).v(pts)
    assert np.array_equal(va, vb)
    assert not np.allclose(va, vc)
    # limit is the torus expectation of cos, which vanishes
    assert abs(fam_a.limit.v(pts)[0, 0, 0]) < 1e-14


def test_field_triple_component_order():
    v, q0, p0, p1 = (constant_field(1, c, UNIT) for c in (1.0, 2.0, 3.0, 4.0))
    trip = FieldTriple(v=v, q=(q0,), p=(p0, p1))
    assert trip.components() == [v, q0, p0, p1]
