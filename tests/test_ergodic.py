"""Torus rotation flows: expectations and Birkhoff averages."""

import math

import numpy as np
import pytest

from homlab.ergodic import ErgodicSystem, expectation
from homlab.families import make_random
from homlab.fields import Box
from homlab.lattice import Lattice, cell_integral


def _cos_system(k=1, freq=1):
    def obs(pts):
        v = np.cos(2.0 * math.pi * freq * pts[:, 0])
        return v[:, None, None]

    return ErgodicSystem(k=k, dim=1, flow=np.ones((k, 1)),
                         observable=obs, ncomp=1, sup_bound=1.0)


def test_expectation_of_cosine_vanishes():
    sys1 = _cos_system()
    val = expectation(sys1, points_per_axis=64)
    assert abs(val[0, 0]) < 1e-14


def test_expectation_of_shifted_square():
    # E[cos^2] = 1/2, a frequency-2 trig polynomial, exact for the rule
    def obs(pts):
        v = np.cos(2.0 * math.pi * pts[:, 0]) ** 2
        return v[:, None, None]

    sysq = ErgodicSystem(k=1, dim=1, flow=np.ones((1, 1)),
                         observable=obs, ncomp=1, sup_bound=1.0)
    val = expectation(sysq, points_per_axis=64)
    assert val[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_expectation_two_torus_product():
    # E[cos(2 pi w1) * sin(2 pi w2)] = 0; E[1] = 1
    def obs(pts):
        v = np.cos(2 * math.pi * pts[:, 0]) * np.sin(2 * math.pi * pts[:, 1])
        return (v + 1.0)[:, None, None]

    sys2 = ErgodicSystem(k=2, dim=1, flow=np.ones((2, 1)),
                         observable=obs, ncomp=1, sup_bound=2.0)
    val = expectation(sys2, points_per_axis=32)
    assert val[0, 0] == pytest.approx(1.0, abs=1e-13)


def test_expectation_rejects_large_torus():
    sysk = ErgodicSystem(k=4, dim=1, flow=np.ones((4, 1)),
                         observable=lambda p: p[:, :1, None], ncomp=1,
                         sup_bound=1.0)
    with pytest.raises(ValueError):
        expectation(sysk)


def test_birkhoff_average_approaches_expectation():
    # irrational rotation: the space average over a long window converges
    flow = np.array([[1.0 / math.sqrt(2.0)]])

    def obs(pts):
        return np.cos(2 * math.pi * pts[:, 0])[:, None, None]

    syse = ErgodicSystem(k=1, dim=1, flow=flow, observable=obs, ncomp=1,
                         sup_bound=1.0)
    fam = make_random(syse, Box((0.0,), (1.0,)), seed=3)
    eps = 1e-3
    # the mean of one realization over the whole domain: the integral over
    # one cell of measure 1
    (avg,), _ = cell_integral(Lattice(1), [(0,)], 1.0, fam.at(eps).v, 4096)
    exact = fam.limit.v(np.array([[0.5]]))[0, 0, 0]
    assert exact == pytest.approx(0.0, abs=1e-14)
    # one sweep over the domain at eps covers ~700 turns; error ~ eps / box
    assert abs(avg[0, 0] - exact) < 5e-3


def test_draw_stays_on_torus():
    sysd = _cos_system(k=3)
    om = sysd.draw(np.random.default_rng(11))
    assert om.shape == (3,)
    assert np.all((om >= 0.0) & (om < 1.0))
