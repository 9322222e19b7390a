"""Coefficient field algebra against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homlab.fields import (Box, CoefficientField, add_fields, adjoint_field,
                           constant_field, gram_field, matmul_fields,
                           matrix_abs, sampled_sup, scalar_field, scale_field,
                           sub_fields, zero_field)

UNIT = Box((0.0,), (1.0,))


def rand_pts(rng, m, dim=1):
    return rng.uniform(0.0, 1.0, size=(m, dim))


def test_box_rejects_empty_sides():
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))
    with pytest.raises(ValueError):
        Box((0.0, 1.0), (1.0,))


def test_constant_field_values():
    f = constant_field(1, 2.5, UNIT)
    vals = f(np.array([[0.1], [0.9]]))
    assert vals.shape == (2, 1, 1)
    assert np.allclose(vals, 2.5)


def test_zero_field_is_zero():
    f = zero_field(2, ncomp=3, domain=Box((0.0, 0.0), (1.0, 1.0)))
    vals = f(np.array([[0.3, 0.7]]))
    assert vals.shape == (1, 3, 3)
    assert np.all(vals == 0)


def test_scalar_field_wraps_shape():
    f = scalar_field(1, lambda pts: np.sin(pts[:, 0]), 1.0, UNIT)
    pts = np.array([[0.0], [math.pi / 2.0]])
    vals = f(pts)
    assert vals.shape == (2, 1, 1)
    assert vals[1, 0, 0] == pytest.approx(1.0)


def test_field_algebra_pointwise():
    rng = np.random.default_rng(3)
    a = CoefficientField(
        1, 2, lambda p: np.tile(np.array([[1.0, 2.0], [0.0, 1.0]]),
                                (p.shape[0], 1, 1)), 4.0, UNIT)
    b = constant_field(1, np.array([[0.0, 1.0], [1.0, 0.0]]), UNIT)
    pts = rand_pts(rng, 5)
    va, vb = a(pts), b(pts)
    assert np.allclose(add_fields(a, b)(pts), va + vb)
    assert np.allclose(sub_fields(a, b)(pts), va - vb)
    assert np.allclose(scale_field(2.0 - 1.0j, a)(pts), (2.0 - 1.0j) * va)
    assert np.allclose(matmul_fields(a, b)(pts), va @ vb)


def test_adjoint_is_conjugate_transpose():
    c = np.array([[1.0 + 2.0j, 3.0], [0.5j, -1.0]])
    f = constant_field(1, c, UNIT)
    vals = adjoint_field(f)(np.array([[0.5]]))
    assert np.allclose(vals[0], c.conj().T)


def test_gram_field_is_psd():
    rng = np.random.default_rng(11)
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    f = constant_field(1, c, UNIT)
    g = gram_field(f)(np.array([[0.25]]))[0]
    eigs = np.linalg.eigvalsh(g)
    assert np.all(eigs >= -1e-12)
    assert np.allclose(g, c.conj().T @ c)


def test_matrix_abs_is_entry_sum():
    m = np.array([[1.0, -2.0], [3.0j, 0.0]])
    assert matrix_abs(m) == pytest.approx(6.0)
    batch = np.stack([m, 2 * m])
    assert np.allclose(matrix_abs(batch), [6.0, 12.0])


def test_sampled_sup_sine():
    f = scalar_field(1, lambda pts: np.sin(40.0 * pts[:, 0]), 1.0, UNIT)
    s = sampled_sup(f, UNIT)
    assert 0.99 <= s <= 1.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    c1=st.floats(-5.0, 5.0, allow_nan=False),
    c2=st.floats(-5.0, 5.0, allow_nan=False),
    x=st.floats(0.01, 0.99, allow_nan=False),
)
def test_linearity_property(c1, c2, x):
    a = constant_field(1, c1, UNIT)
    b = constant_field(1, c2, UNIT)
    pts = np.array([[x]])
    lhs = add_fields(scale_field(2.0, a), scale_field(-3.0, b))(pts)
    assert lhs[0, 0, 0] == pytest.approx(2.0 * c1 - 3.0 * c2)


def test_field_shape_mismatch_raises():
    bad = CoefficientField(
        1, 2, lambda pts: np.zeros((pts.shape[0], 1, 1)), 1.0, UNIT
    )
    with pytest.raises(ValueError):
        bad(np.array([[0.5]]))


@pytest.mark.parametrize("points", [np.array([0.5]), np.zeros((1, 1, 1))])
def test_field_takes_points_of_shape_m_by_dim_only(points):
    # neither one point (dim,) nor a 3D array is promoted to (m, dim)
    f = constant_field(1, 2.0, UNIT)
    with pytest.raises(ValueError, match=r"points \(m, 1\)"):
        f(points)
