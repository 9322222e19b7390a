"""The ergodic catalogue entry random_rotation: its torus expectation
and its Birkhoff averages.

The entry samples mean + amp (cos 2 pi w1 + cos 2 pi w2) / 2 along the
rotation w(x) = w0 + (x, sqrt(2) x) / eps of the two-torus, and declares
the torus expectation, mean, as its limit.
"""

import numpy as np

from homlab.config import StudyConfig
from homlab.lattice import cell_integral, unit_lattice
from homlab.registry import build_family


def _rotation(mean=0.0, amplitude=1.0, seed=7):
    return build_family(StudyConfig.from_text(
        f"family.name = random_rotation\nfamily.mean = {mean}\n"
        f"family.amplitude = {amplitude}\nfamily.seed = {seed}\n", "<config>"))


def _limit(family):
    return float(family.limit.v((np.array([0.5]),))[0])


def test_expectation_of_cosine_vanishes():
    # exactly zero, bound included, so deviation_triple skips subtracting it
    fam = _rotation(mean=0.0)
    assert _limit(fam) == 0.0
    assert fam.limit.v.sup_bound == 0.0


def test_expectation_of_shifted_cosine():
    assert _limit(_rotation(mean=0.3)) == 0.3


def test_expectation_two_torus_product():
    # the cosines of both axes have torus mean zero whatever their
    # amplitude, so the expectation is the mean exactly
    fam = _rotation(mean=-0.4, amplitude=2.5)
    assert _limit(fam) == -0.4
    assert fam.limit.v.sup_bound == 0.4


def test_birkhoff_average_approaches_expectation():
    # irrational rotation: the space average over a long window converges
    fam = _rotation(mean=0.3, seed=3)
    errors = []
    for eps in (1e-2, 1e-3):
        # the mean of one realization over the whole domain: the integral
        # over one cell of measure 1
        (avg,) = cell_integral(unit_lattice(1), [(0,)], 1.0, fam.at(eps).v,
                               4096)
        errors.append(abs(avg - _limit(fam)))
    # one sweep over the domain at eps covers ~1/eps turns; error ~ eps
    assert errors[1] < 5e-3
    assert errors[1] < errors[0]
