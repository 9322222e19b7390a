"""Coefficient field algebra against closed forms."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homlab.fields import (Box, CoefficientField, constant_field,
                           gram_field, sampled_sup, sub_fields,
                           zero_field)

UNIT = Box((0.0,), (1.0,))


def rand_pts(rng, m, dim=1):
    return rng.uniform(0.0, 1.0, size=(m, dim))


def test_box_rejects_empty_sides():
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))
    with pytest.raises(ValueError):
        Box((0.0, 1.0), (1.0,))


def test_constant_field_values():
    f = constant_field(1, 2.5)
    vals = f(np.array([[0.1], [0.9]]))
    assert vals.shape == (2,) and vals.dtype == np.float64
    assert np.allclose(vals, 2.5)
    assert f.sup_bound == 2.5
    # a coefficient is real: a complex constant is refused
    with pytest.raises(TypeError):
        constant_field(1, 2.5 + 0.5j)


def test_zero_field_is_zero():
    f = zero_field(2)
    vals = f(np.array([[0.3, 0.7]]))
    assert vals.shape == (1,)
    assert np.all(vals == 0) and f.sup_bound == 0.0


def test_scalar_field_wraps_shape():
    # a real closure's values come out float64, one per point, integer
    # values too
    f = CoefficientField(1, lambda pts: np.sin(pts[:, 0]), 1.0)
    pts = np.array([[0.0], [math.pi / 2.0]])
    vals = f(pts)
    assert vals.shape == (2,) and vals.dtype == np.float64
    assert vals[1] == pytest.approx(1.0)
    steps = CoefficientField(1, lambda pts: (pts[:, 0] > 1.0).astype(int),
                             1.0)(pts)
    assert steps.dtype == np.float64 and np.array_equal(steps, [0.0, 1.0])


def test_field_algebra_pointwise():
    rng = np.random.default_rng(3)
    a = CoefficientField(1, lambda p: np.cos(2.0 * p[:, 0]) + p[:, 0], 2.0)
    b = constant_field(1, -1.5)
    pts = rand_pts(rng, 5)
    va, vb = a(pts), b(pts)
    assert np.array_equal(sub_fields(a, b)(pts), va - vb)
    assert sub_fields(a, b).sup_bound == a.sup_bound + b.sup_bound


def test_gram_field_is_psd():
    # q^2 from one evaluation of q per call, of both signs of q
    calls = []

    def q(pts):
        calls.append(len(pts))
        return np.cos(3.0 * pts[:, 0]) * (1.0 + pts[:, 0])

    f = CoefficientField(1, q, 2.0)
    pts = np.array([[0.25], [0.75]])
    g = gram_field(f)(pts)
    assert calls == [2]
    vals = f(pts)
    assert vals[0] > 0 > vals[1]
    assert g.dtype == np.float64 and np.array_equal(g, vals * vals)
    assert gram_field(f).sup_bound == 4.0


def test_sampled_sup_sine():
    f = CoefficientField(1, lambda pts: np.sin(40.0 * pts[:, 0]), 1.0)
    s = sampled_sup(f, UNIT)
    assert 0.99 <= s <= 1.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    c1=st.floats(-5.0, 5.0, allow_nan=False),
    c2=st.floats(-5.0, 5.0, allow_nan=False),
    x=st.floats(0.01, 0.99, allow_nan=False),
)
def test_linearity_property(c1, c2, x):
    a = constant_field(1, c1)
    b = constant_field(1, c2)
    pts = np.array([[x]])
    assert sub_fields(a, b)(pts)[0] == c1 - c2


def test_field_shape_mismatch_raises():
    # a closure must return one value per point, not a matrix per point
    bad = CoefficientField(
        1, lambda pts: np.zeros((pts.shape[0], 1, 1)), 1.0
    )
    with pytest.raises(ValueError, match="expected"):
        bad(np.array([[0.5]]))


@pytest.mark.parametrize("points", [np.array([0.5]), np.zeros((1, 1, 1))])
def test_field_takes_points_of_shape_m_by_dim_only(points):
    # neither one point (dim,) nor a 3D array is promoted to (m, dim)
    f = constant_field(1, 2.0)
    with pytest.raises(ValueError, match=r"points \(m, 1\)"):
        f(points)


# ------------------------------------------- complex values are refused

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _wave(pts):
    return np.exp(5j * pts[:, 0])


def test_complex_closure_raises_type_error():
    # the field is the one place a complex value is refused, by its dtype
    # and so with a zero imaginary part too: no caller drops one
    pts = np.array([[0.25], [0.75]])
    for func in (_wave, lambda p: p[:, 0] + 0j):
        f = CoefficientField(1, func, 1.0)
        with pytest.raises(TypeError, match="returned complex values"):
            f(pts)
        for derived in (gram_field(f), sub_fields(f, zero_field(1))):
            with pytest.raises(TypeError, match="returned complex values"):
                derived(pts)


@pytest.mark.parametrize("slot", ["v", "q", "p"])
def test_complex_closure_raises_through_assembly(slot):
    # whichever term of the form a complex coefficient enters
    from homlab.fem import FeSpace, assemble_perturbation, build_mesh
    space = FeSpace(build_mesh(UNIT, 16))
    wave = CoefficientField(1, _wave, 1.0)
    terms = {"v": wave} if slot == "v" else {"v": zero_field(1),
                                             slot: (wave,)}
    with pytest.raises(TypeError, match="returned complex values"):
        assemble_perturbation(space, refine=2, **terms)


def test_complex_closure_raises_through_cell_integral():
    from homlab.lattice import Lattice, cell_integral
    wave = CoefficientField(1, _wave, 1.0)
    with pytest.raises(TypeError, match="returned complex values"):
        cell_integral(Lattice(1), [(0,)], 0.1, wave, 4, squares=True)


def test_complex_closure_is_no_config_error_in_the_cli(monkeypatch):
    # a complex coefficient is a bug in a family, not in its config: the
    # CLI lets the TypeError through instead of exiting 2
    from homlab import cli, registry
    from homlab.families import make_family
    sine = registry.REGISTRY["regular_sin"]

    def complex_sin(cfg):
        fam = sine(cfg)
        return make_family(lambda eps: CoefficientField(1, _wave, 1.0),
                           fam.limit, fam.rate, fam.domain, fam.finest_scale)

    monkeypatch.setitem(registry.REGISTRY, "regular_sin", complex_sin)
    with pytest.raises(TypeError, match="returned complex values"):
        cli.main(["criterion", "--config",
                  str(CONFIGS / "regular_criterion.cfg"), "--out", "-"])
