"""Perturbation families: the eps-indexed coefficients a study walks.

A perturbation family is an eps-indexed triple of coefficient fields
(potential V, first-order weights Q_j, P_j) on one box domain, together
with its declared limit triple, a predicted convergence-rate function and
the finest length scale of its oscillation.  The family owns the domain
and its dimension: fields carry neither.  This module holds the family
record and the one constructor, `make_family`.  The oscillation
mechanisms themselves (uniform, sparse bumps, stabilizing tails, locally
periodic, almost periodic, modulated phases, fractal-type products and
an ergodic torus rotation) live in `registry.py`, one catalogue entry
each: an entry reads its `family.*` keys and writes out its field,
limit, rate and finest scale in one place.  A family has no name of its
own; `family.name` in the config names the entry that built it.
"""

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Optional

from .fields import Box, CoefficientField, sub_fields, zero_field
from .lattice import Lattice


@dataclass(frozen=True)
class FieldTriple:
    """Potential and first-order perturbation weights (V, Q_j, P_j)."""

    v: CoefficientField
    q: tuple = ()
    p: tuple = ()

    def components(self):
        """The fields v, q_0, q_1, ..., p_0, p_1, ..., in that order."""
        return [self.v, *self.q, *self.p]


@dataclass(frozen=True)
class PerturbationFamily:
    """eps-indexed perturbation on domain, with declared limit and
    predicted rate; every field of at(eps) and of limit lives on domain."""

    domain: Box
    at: Callable[[float], FieldTriple]
    limit: FieldTriple
    rate: Callable[[float], float]
    finest_scale: Callable[[float], float]
    suggested_lattice: Optional[Lattice]

    @property
    def dim(self):
        return self.domain.dim

    @property
    def ncomp(self):
        # always 1; perfbench/oracle.py passes it to mesh_rule (ROADMAP item 7)
        return 1


def deviation_triple(family, eps):
    """Deviation fields (eps minus limit), paired by position in v, q, p.

    A missing component counts as zero.  An eps component whose limit is
    absent or identically zero (a declared bound of 0) is its own
    deviation: subtracting zero would cost a pass over every evaluation.
    """

    def deviation(a, b):
        if a is not None and (b is None or b.sup_bound == 0.0):
            return a
        if a is None:
            a = zero_field(family.dim)
        return sub_fields(a, b)

    trip = family.at(eps)
    lim = family.limit
    return FieldTriple(
        v=deviation(trip.v, lim.v),
        q=tuple(deviation(a, b) for a, b in zip_longest(trip.q, lim.q)),
        p=tuple(deviation(a, b) for a, b in zip_longest(trip.p, lim.p)),
    )


def _as_triple(v_or_triple):
    if isinstance(v_or_triple, FieldTriple):
        return v_or_triple
    return FieldTriple(v=v_or_triple)


def make_family(v_of_eps, v0, rate, domain, finest_scale,
                suggested_lattice=None):
    """Family with the limit, rate and finest scale declared by the caller.

    v_of_eps maps eps to a CoefficientField (or FieldTriple); v0 is the
    declared limit.  rate(eps) is the predicted convergence rate and
    finest_scale(eps) the shortest oscillation length, which sets the
    quadrature and mesh resolution.  suggested_lattice, when given,
    replaces the unit lattice of the cell criteria.  Raises ValueError
    unless the field at eps = 0.5, the limit and the domain have one
    dimension.
    """
    lim = _as_triple(v0)
    probe = _as_triple(v_of_eps(0.5))
    if not probe.v.dim == lim.v.dim == domain.dim:
        raise ValueError(
            f"dimension mismatch: field {probe.v.dim}, limit {lim.v.dim}, "
            f"domain {domain.dim}"
        )
    return PerturbationFamily(
        domain=domain,
        at=lambda eps: _as_triple(v_of_eps(eps)),
        limit=lim,
        rate=rate,
        finest_scale=finest_scale,
        suggested_lattice=suggested_lattice,
    )
