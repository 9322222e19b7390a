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


def rand_coords(rng, m, dim=1):
    return tuple(rng.uniform(0.0, 1.0, size=(dim, m)))


def test_box_rejects_empty_sides():
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))
    with pytest.raises(ValueError):
        Box((0.0, 1.0), (1.0,))


def test_constant_field_values():
    f = constant_field(1, 2.5)
    vals = f((np.array([0.1, 0.9]),))
    assert vals.shape == (2,) and vals.dtype == np.float64
    assert np.allclose(vals, 2.5)
    assert f.sup_bound == 2.5
    # a coefficient is real: a complex constant is refused
    with pytest.raises(TypeError):
        constant_field(1, 2.5 + 0.5j)


def test_zero_field_is_zero():
    f = zero_field(2)
    vals = f((np.array([0.3]), np.array([0.7])))
    assert vals.shape == (1,)
    assert np.all(vals == 0) and f.sup_bound == 0.0


def test_scalar_field_wraps_shape():
    # a real closure's values come out float64, one per point, integer
    # values too
    f = CoefficientField(1, lambda x: np.sin(x[0]), 1.0)
    x = (np.array([0.0, math.pi / 2.0]),)
    vals = f(x)
    assert vals.shape == (2,) and vals.dtype == np.float64
    assert vals[1] == pytest.approx(1.0)
    steps = CoefficientField(1, lambda x: (x[0] > 1.0).astype(int),
                             1.0)(x)
    assert steps.dtype == np.float64 and np.array_equal(steps, [0.0, 1.0])


def test_field_algebra_pointwise():
    rng = np.random.default_rng(3)
    a = CoefficientField(1, lambda x: np.cos(2.0 * x[0]) + x[0], 2.0)
    b = constant_field(1, -1.5)
    x = rand_coords(rng, 5)
    va, vb = a(x), b(x)
    assert np.array_equal(sub_fields(a, b)(x), va - vb)
    assert sub_fields(a, b).sup_bound == a.sup_bound + b.sup_bound


def test_gram_field_is_psd():
    # q^2 from one evaluation of q per call, of both signs of q
    calls = []

    def q(x):
        calls.append(x[0].size)
        return np.cos(3.0 * x[0]) * (1.0 + x[0])

    f = CoefficientField(1, q, 2.0)
    x = (np.array([0.25, 0.75]),)
    g = gram_field(f)(x)
    assert calls == [2]
    vals = f(x)
    assert vals[0] > 0 > vals[1]
    assert g.dtype == np.float64 and np.array_equal(g, vals * vals)
    assert gram_field(f).sup_bound == 4.0


def test_sampled_sup_sine():
    f = CoefficientField(1, lambda x: np.sin(40.0 * x[0]), 1.0)
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
    assert sub_fields(a, b)((np.array([x]),))[0] == c1 - c2


def test_field_shape_mismatch_raises():
    # a closure must return one value per point, not a matrix per point
    bad = CoefficientField(
        1, lambda x: np.zeros((x[0].shape[0], 1, 1)), 1.0
    )
    with pytest.raises(ValueError, match="expected"):
        bad((np.array([0.5]),))


@pytest.mark.parametrize("coords", [
    np.array([0.5]),
    np.zeros((1, 1, 1)),
    np.array([[0.5], [0.7]]),
    (np.array([0.5]), np.array([0.7])),  # one coordinate too many
    (),
])
def test_field_takes_a_tuple_of_dim_coordinate_arrays(coords):
    # an array is refused, not split into coordinates: a point array
    # (m, dim) would be read as m coordinates
    f = constant_field(1, 2.0)
    with pytest.raises(ValueError, match="tuple of 1 coordinate arrays"):
        f(coords)


def test_field_coordinates_must_broadcast():
    f = CoefficientField(2, lambda x: x[0] * x[1], 1.0)
    with pytest.raises(ValueError, match="do not broadcast"):
        f((np.zeros(3), np.zeros(4)))
    # (3, 1) and (4,) broadcast to (3, 4), and so do the values
    assert f((np.zeros((3, 1)), np.zeros(4))).shape == (3, 4)


@pytest.mark.parametrize("shape", [(2, 1, 5), (2, 4), (2, 4, 1), (8, 5)])
def test_field_values_must_have_the_broadcast_shape(shape):
    # coordinates (2, 4, 1) and (2, 1, 5): a closure that returns one
    # factor unbroadcast, or the values reshaped, is refused
    x = (np.ones((2, 4, 1)), np.ones((2, 1, 5)))
    bad = CoefficientField(2, lambda x: np.zeros(shape), 1.0)
    with pytest.raises(ValueError,
                       match=r"expected \(2, 4, 5\)"):
        bad(x)
    good = CoefficientField(2, lambda x: x[0] * x[1], 1.0)
    assert good(x).shape == (2, 4, 5)


# ------------------------------------------- complex values are refused

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _wave(x):
    return np.exp(5j * x[0])


def test_complex_closure_raises_type_error():
    # the field is the one place a complex value is refused, by its dtype
    # and so with a zero imaginary part too: no caller drops one
    x = (np.array([0.25, 0.75]),)
    for func in (_wave, lambda x: x[0] + 0j):
        f = CoefficientField(1, func, 1.0)
        with pytest.raises(TypeError, match="returned complex values"):
            f(x)
        for derived in (gram_field(f), sub_fields(f, zero_field(1))):
            with pytest.raises(TypeError, match="returned complex values"):
                derived(x)
    # also on broadcasting coordinates of a 2D field
    wave2 = CoefficientField(2, lambda x: np.exp(5j * x[0] * x[1]), 1.0)
    with pytest.raises(TypeError, match="returned complex values"):
        wave2((np.ones((2, 3, 1)), np.ones((2, 1, 4))))


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
    from homlab.lattice import cell_integral, unit_lattice
    wave = CoefficientField(1, _wave, 1.0)
    with pytest.raises(TypeError, match="returned complex values"):
        cell_integral(unit_lattice(1), [(0,)], 0.1, wave, 4, squares=True)


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
