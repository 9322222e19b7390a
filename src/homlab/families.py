"""Generators of perturbation families.

A perturbation family is an eps-indexed triple of coefficient fields
(potential V, first-order weights Q_j, P_j) together with its declared
limit triple and a predicted convergence-rate function.  Generators cover
the catalogue of oscillation mechanisms: uniform convergence, sparse
bumps, stabilizing tails, locally periodic multi-scale oscillation,
almost periodic sums, modulated phases, fractal-type products, and
ergodic torus rotations.
"""

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Optional

import numpy as np

from .fields import (
    Box,
    CoefficientField,
    constant_field,
    sub_fields,
    zero_field,
)
from .lattice import Lattice
from .ergodic import ErgodicSystem, expectation

# smallest |det J| of a make_modulated "diffeo" phase on its sample grid
JACOBIAN_TOL = 1e-8


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
    """eps-indexed perturbation with declared limit and predicted rate."""

    name: str
    dim: int
    ncomp: int
    domain: Box
    at: Callable[[float], FieldTriple]
    limit: FieldTriple
    rate: Callable[[float], float]
    finest_scale: Callable[[float], float]
    suggested_lattice: Optional[Lattice] = None


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
            a = zero_field(family.dim, family.ncomp, family.domain)
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


def make_regular(v_of_eps, v0, rate, domain, name="regular",
                 finest_scale=None):
    """Family converging uniformly, with the rate declared by the caller.

    v_of_eps maps eps to a CoefficientField (or FieldTriple); v0 is the
    uniform limit.  The declared rate should dominate the uniform norm of
    the deviation.
    """
    lim = _as_triple(v0)
    probe = _as_triple(v_of_eps(0.5))
    if (probe.v.dim, probe.v.ncomp) != (lim.v.dim, lim.v.ncomp):
        raise ValueError("limit shape does not match the family fields")
    return PerturbationFamily(
        name=name,
        dim=lim.v.dim,
        ncomp=lim.v.ncomp,
        domain=domain,
        at=lambda eps: _as_triple(v_of_eps(eps)),
        limit=lim,
        rate=rate,
        finest_scale=finest_scale or (lambda eps: 1.0),
    )


def make_sparse(centers, rho4, rho5, bump_profile, amplitude, domain,
                name="sparse"):
    """Sparse bump potentials vanishing in the limit.

    centers(eps) returns bump centers (k, d); bumps have radius
    rho4(eps) * rho5(eps) and profile bump_profile(r) for r in [0, 1].
    Pairwise center distances below rho4 raise.  amplitude is the common
    n x n matrix amplitude.
    """
    dim = domain.dim
    amp = np.atleast_2d(np.asarray(amplitude, dtype=complex))
    n = amp.shape[0]
    prof_sup = float(np.max(np.abs([bump_profile(np.linspace(0, 1, 201))])))
    amp_norm = float(np.abs(amp).sum())

    def build(eps):
        pts_c = np.atleast_2d(np.asarray(centers(eps), dtype=float))
        r4 = float(rho4(eps))
        r5 = float(rho5(eps))
        radius = r4 * r5
        if len(pts_c) > 1:
            diff = pts_c[:, None, :] - pts_c[None, :, :]
            dist = np.sqrt((diff ** 2).sum(axis=2))
            np.fill_diagonal(dist, np.inf)
            if dist.min() < r4 * (1 - 1e-12):
                raise ValueError(
                    f"sparse centers too close: {dist.min()} < rho4 = {r4}"
                )

        def func(pts):
            out = np.zeros((pts.shape[0], n, n), dtype=complex)
            for c in pts_c:
                r = np.sqrt(((pts - c[None, :]) ** 2).sum(axis=1)) / radius
                mask = r <= 1.0
                if mask.any():
                    out[mask] += bump_profile(r[mask])[:, None, None] * amp
            return out

        v = CoefficientField(dim, n, func, amp_norm * prof_sup, domain)
        return FieldTriple(v=v)

    zero = zero_field(dim, n, domain)
    return PerturbationFamily(
        name=name,
        dim=dim,
        ncomp=n,
        domain=domain,
        at=build,
        limit=FieldTriple(v=zero),
        rate=lambda eps: float(rho5(eps)) ** dim + float(rho4(eps)),
        finest_scale=lambda eps: max(float(rho4(eps)) * float(rho5(eps)), 1e-12),
    )


def make_stabilizing(vfun, v0, rho6, domain, sup_bound=1.0,
                     name="stabilizing"):
    """Scalar potentials V(x, x/eps) whose profile stabilizes at infinity.

    vfun(x_pts, xi_pts) -> (m, 1, 1); the limit v0 is the stable value at
    infinity, and rho6(eps) bounds the profile deviation outside the ball
    of radius eps^(-1/3).
    """
    lim = _as_triple(v0)

    def build(eps):
        def func(pts):
            return vfun(pts, pts / eps)

        v = CoefficientField(domain.dim, 1, func, sup_bound, domain)
        return FieldTriple(v=v)

    return PerturbationFamily(
        name=name,
        dim=domain.dim,
        ncomp=1,
        domain=domain,
        at=build,
        limit=lim,
        rate=lambda eps: float(rho6(eps)) + eps ** (1.0 / 3.0),
        finest_scale=lambda eps: max(eps, 1e-12),
    )


def make_locally_periodic(vfun, scales, v0, rho8, domain, sup_bound=1.0,
                          name="locally_periodic"):
    """Locally periodic scalar potentials V(x, x/eps_1, ..., x/eps_m).

    scales is a list of callables eps -> eps_j, decreasing in j; vfun takes
    (x_pts, xi_1, ..., xi_m) and is 1-periodic in each xi.  The limit v0 is
    the mean over all periodicity cells.  The predicted rate combines the
    scale-separation penalties with the coarsest-scale cell penalty.
    """
    m = len(scales)
    lim = _as_triple(v0)

    def build(eps):
        svals = [float(s(eps)) for s in scales]

        def func(pts):
            xis = [pts / sv for sv in svals]
            return vfun(pts, *xis)

        v = CoefficientField(domain.dim, 1, func, sup_bound, domain)
        return FieldTriple(v=v)

    def rate(eps):
        svals = [float(s(eps)) for s in scales]
        sep = 0.0
        kd = math.sqrt(domain.dim)
        for j in range(1, m):
            sep += float(rho8(math.sqrt(j + 1) * kd * svals[j] / svals[j - 1]))
        return sep + math.sqrt(svals[0])

    return PerturbationFamily(
        name=name,
        dim=domain.dim,
        ncomp=1,
        domain=domain,
        at=build,
        limit=lim,
        rate=rate,
        finest_scale=lambda eps: max(min(float(s(eps)) for s in scales),
                                     1e-14),
    )


def make_almost_periodic(terms, domain, name="almost_periodic"):
    """Trigonometric-sum potentials sum_a T_a exp(i a . x / eps).

    terms is a list of (alpha, amplitude) with alpha a d-vector of real
    frequencies and amplitude an n x n matrix (n is 1 without terms).  The
    limit collects the alpha = 0 terms.  The predicted rate uses the exact
    box-average decay of each nonzero frequency at the matched cell size
    eta = sqrt(eps).
    """
    dim = domain.dim
    parsed = []
    for alpha, ampl in terms:
        a = np.asarray(alpha, dtype=float).reshape(dim)
        mat = np.atleast_2d(np.asarray(ampl, dtype=complex))
        parsed.append((a, mat))
    n = parsed[0][1].shape[0] if parsed else 1
    lim_mat = np.zeros((n, n), dtype=complex)
    osc = []
    for a, mat in parsed:
        if np.all(a == 0.0):
            lim_mat = lim_mat + mat
        else:
            osc.append((a, mat))
    sup = float(sum(np.abs(mat).sum() for _, mat in parsed))

    def build(eps):
        def func(pts):
            out = np.zeros((pts.shape[0], n, n), dtype=complex)
            for a, mat in parsed:
                phase = np.exp(1j * (pts @ a) / eps)
                out += phase[:, None, None] * mat
            return out

        v = CoefficientField(dim, n, func, sup, domain)
        return FieldTriple(v=v)

    max_alpha = max((float(np.max(np.abs(a))) for a, _ in osc), default=1.0)

    return PerturbationFamily(
        name=name,
        dim=dim,
        ncomp=n,
        domain=domain,
        at=build,
        limit=FieldTriple(v=constant_field(dim, lim_mat, domain)),
        rate=lambda eps: _ap_rate(osc, eps),
        finest_scale=lambda eps: 2 * math.pi * eps / max_alpha,
    )


def _ap_rate(osc, eps):
    """Cell penalty eta plus box-average decay at the matched size."""
    eta = math.sqrt(eps)
    total = 0.0
    for a, mat in osc:
        factor = 1.0
        for aj in a:
            if aj != 0.0:
                # cell of physical size eta covers eta/eps frequency units
                factor *= min(1.0, 2.0 / (abs(aj) * eta / eps))
        total += factor * float(np.abs(mat).sum())
    return total + eta


def implicit_eta(p0, eps, r_max=1.0, iters=80):
    """Smallest r with min(r p0(r^2), p0(r^2)^2) >= sqrt(eps).

    p0 must be nondecreasing.  Raises if even r_max fails, which signals a
    degeneracy too strong for the phase to homogenize at this eps.
    """
    target = math.sqrt(eps)

    def p1(r):
        v = float(p0(r * r))
        return min(r * v, v * v)

    if p1(r_max) < target:
        raise ValueError("phase degeneracy too strong: no admissible eta")
    lo, hi = 0.0, r_max
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if p1(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def make_modulated(vfun, phi, phi_jacobian, domain, kind, v0, rho8,
                   sup_bound=1.0, p0=None, name="modulated"):
    """Phase-modulated scalar potentials V(x, phi(x)/eps).

    vfun(x_pts, xi_pts) is 1-periodic in xi (after rescaling by the
    caller); phi maps the domain into R^d with Jacobian phi_jacobian.
    kind is "diffeo" (Jacobian bounded away from zero, checked on a
    sample grid) or "periodic" (degenerate set allowed, with the margin
    function p0(r) = inf of |det J| away from the degenerate set).
    """
    if kind not in ("diffeo", "periodic"):
        raise ValueError("kind must be 'diffeo' or 'periodic'")
    if kind == "periodic" and p0 is None:
        raise ValueError("periodic modulation needs the margin function p0")
    dim = domain.dim
    lim = _as_triple(v0)

    if kind == "diffeo":
        pts = np.stack(np.meshgrid(
            *[np.linspace(domain.lower[j], domain.upper[j], 65 if dim > 1 else 513)
              for j in range(dim)], indexing="ij"),
            axis=-1).reshape(-1, dim)
        dets = np.abs(phi_jacobian(pts))
        if float(dets.min()) < JACOBIAN_TOL:
            raise ValueError(
                f"modulating phase is not a diffeomorphism: |det J| min = {dets.min()}"
            )
        jac_max = float(dets.max())
    else:
        sample = domain.sample(4096, np.random.default_rng(0))
        jac_max = float(np.max(np.abs(phi_jacobian(sample))))

    def build(eps):
        def func(pts):
            return vfun(pts, phi(pts) / eps)

        v = CoefficientField(dim, 1, func, sup_bound, domain)
        return FieldTriple(v=v)

    if kind == "diffeo":
        def rate(eps):
            return math.sqrt(eps) + float(rho8(math.sqrt(dim) * math.sqrt(eps)))
    else:
        def rate(eps):
            eta = implicit_eta(p0, eps)
            return math.sqrt(eps) + eta + float(rho8(math.sqrt(dim) * eta))

    return PerturbationFamily(
        name=name,
        dim=dim,
        ncomp=1,
        domain=domain,
        at=build,
        limit=lim,
        rate=rate,
        finest_scale=lambda eps: max(eps / max(jac_max, 1e-12), 1e-14),
    )


def make_fractal(vfun, v0, rho8, domain, sup_bound=1.0, name="fractal"):
    """Products-of-coordinates scalar phases V(x, x1/eps, x1 x2/eps^2, ...).

    The j-th phase argument is (x1 ... xj) / eps^j; vfun takes
    (x_pts, xi_1, ..., xi_d) and is 2 pi-periodic in each xi.  In d = 1
    this degenerates to plain periodic oscillation.
    """
    dim = domain.dim
    lim = _as_triple(v0)

    def build(eps):
        def func(pts):
            xis = []
            prod = np.ones(pts.shape[0])
            for j in range(dim):
                prod = prod * pts[:, j]
                xis.append(prod / eps ** (j + 1))
            return vfun(pts, *xis)

        v = CoefficientField(dim, 1, func, sup_bound, domain)
        return FieldTriple(v=v)

    # worst oscillation length: deepest phase at the largest coordinates
    coord_max = np.maximum(np.abs(np.array(domain.lower)),
                           np.abs(np.array(domain.upper)))
    denom = float(np.prod(coord_max[: dim - 1])) if dim > 1 else 1.0
    denom = max(denom, 1e-12)

    return PerturbationFamily(
        name=name,
        dim=dim,
        ncomp=1,
        domain=domain,
        at=build,
        limit=lim,
        rate=lambda eps: float(rho8(2 * math.sqrt(dim) * math.sqrt(eps)))
        + math.sqrt(eps),
        finest_scale=lambda eps: (2 * math.pi * eps ** dim
                                  / (2 * math.pi * denom)),
        suggested_lattice=Lattice(dim, 2.0 * np.eye(dim), -np.ones(dim)),
    )


def make_random(system: ErgodicSystem, domain, seed, name="random"):
    """Random potentials driven by an ergodic torus rotation.

    One realization (a torus point) is drawn from the seed at build time
    and reused for every eps, so the family is a deterministic function of
    the seed.  The limit is the expectation of the observable, and the
    predicted rate is sqrt(eps).
    """
    if system.dim != domain.dim:
        raise ValueError("ergodic flow dimension does not match the domain")
    rng = np.random.default_rng(seed)
    omega0 = system.draw(rng)
    mean = expectation(system)

    def build(eps):
        def func(pts):
            om = np.mod(
                omega0[None, :] + (pts / eps) @ system.flow.T, 1.0
            )
            return system.observe(om)

        v = CoefficientField(domain.dim, system.ncomp, func,
                             system.sup_bound, domain)
        return FieldTriple(v=v)

    max_flow = float(np.max(np.abs(system.flow)))

    return PerturbationFamily(
        name=name,
        dim=domain.dim,
        ncomp=system.ncomp,
        domain=domain,
        at=build,
        limit=FieldTriple(v=constant_field(domain.dim, mean, domain)),
        rate=lambda eps: math.sqrt(eps),
        finest_scale=lambda eps: eps / max(max_flow, 1e-12),
    )
