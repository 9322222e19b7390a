"""Named family catalogue for config-driven studies.

Each entry is one oscillation mechanism of the paper: it reads its
`family.*` config keys and writes out its scalar field, declared limit,
predicted rate and finest scale in one place, then builds the
`PerturbationFamily` through `families.make_family`.  So every mechanism
is reachable from a text config without writing Python, and the code for
a mechanism is the entry that uses it.  Every entry is one-dimensional
except `fractal_2d`.

REGISTRY maps each family name to its builder, and that table is the
catalogue's one record of an entry: `homlab families` lists each name
with the first line of its builder's docstring as the description and
the keys `family_keys` records as the builder reads them from an empty
config.  So every builder has a docstring and reads every key it takes
on every call.
"""

import math

import numpy as np

from .config import ConfigError, StudyConfig
from .families import make_family
from .fields import Box, CoefficientField, constant_field
from .lattice import Lattice

# smallest |phi'| that modulated_diffeo accepts for its cubic phase
JACOBIAN_TOL = 1e-8


def _domain(cfg, default):
    """family.domain as a Box of the entry's dimension: lower bounds, then
    upper bounds, as many as in the default."""
    vals = cfg.get_floats("family.domain", default)
    if len(vals) != len(default):
        raise ConfigError(
            f"family.domain needs {len(default)} bounds for this family "
            f"(lower, then upper), got {len(vals)}"
        )
    d = len(vals) // 2
    lower, upper = vals[:d], vals[d:]
    if any(a >= b for a, b in zip(lower, upper)):
        raise ConfigError(
            f"family.domain needs each lower bound below its upper bound, "
            f"got lower {lower} and upper {upper}"
        )
    return Box(lower, upper)


def _rho8(cfg):
    c = cfg.get_float("family.rho8_scale", 1.0)
    if c < 0:
        raise ConfigError(f"family.rho8_scale must be nonnegative, got {c:g}")
    return lambda t: min(2.0 * c, c * t)


def _frequency(cfg):
    """family.frequency of the sine families: the finest scale is
    2 pi eps / frequency, so it must be positive."""
    freq = cfg.get_float("family.frequency", 1.0)
    if freq <= 0:
        raise ConfigError(f"family.frequency must be positive, got {freq:g}")
    return freq


def _build_regular_sin(cfg):
    """amp sin(freq x / eps); the limit is zero.

    The predicted rate is (1 + 2 |amp|) sqrt(eps).
    """
    amp = cfg.get_float("family.amplitude", 1.0)
    freq = _frequency(cfg)
    box = _domain(cfg, (0.0, 1.0))

    def v_of_eps(eps):
        return CoefficientField(
            1, lambda x: amp * np.sin(freq * x[0] / eps), abs(amp))

    return make_family(
        v_of_eps,
        constant_field(1, 0.0),
        lambda eps: (1.0 + 2.0 * abs(amp)) * math.sqrt(eps),
        box,
        finest_scale=lambda eps: 2 * math.pi * eps / freq,
    )


def _build_sign_sin(cfg):
    """Discontinuous oscillation with a configurable declared limit.

    The true mean is zero; declaring anything else gives a controlled
    wrong-limit family for negative tests.
    """
    declared = cfg.get_float("family.declared_limit", 0.5)
    freq = _frequency(cfg)
    box = _domain(cfg, (0.0, 1.0))

    def v_of_eps(eps):
        return CoefficientField(
            1, lambda x: np.sign(np.sin(freq * x[0] / eps)), 1.0)

    return make_family(
        v_of_eps,
        constant_field(1, declared),
        lambda eps: math.sqrt(eps),
        box,
        finest_scale=lambda eps: 2 * math.pi * eps / freq,
    )


def _build_sparse_bumps(cfg):
    """Bumps of radius rho4 rho5 on centers rho4 apart; the limit is zero.

    rho4 = eps^rho4_power and rho5 = eps^rho5_power.  A bump has the
    profile amp cos^2(pi r / 2) in r = |x - center| / radius.  The
    predicted rate is rho5 + rho4.
    """
    amp = cfg.get_float("family.amplitude", 1.0)
    p4 = cfg.get_float("family.rho4_power", 1.0 / 3.0)
    p5 = cfg.get_float("family.rho5_power", 1.0 / 3.0)
    # rho4 and rho5 must shrink with eps: else no bump fits or they grow
    for key, power in (("family.rho4_power", p4), ("family.rho5_power", p5)):
        if power <= 0:
            raise ConfigError(f"{key} must be positive, got {power:g}")
    box = _domain(cfg, (0.0, 1.0))
    a, b = box.lower[0], box.upper[0]

    def v_of_eps(eps):
        r4 = eps ** p4
        radius = r4 * eps ** p5
        centers = a + r4 * (np.arange(math.floor((b - a) / r4)) + 0.5)

        def bumps(x):
            out = np.zeros(x[0].shape)
            for c in centers:
                r = np.abs(x[0] - c) / radius
                mask = r <= 1.0
                out[mask] += np.cos(0.5 * math.pi * r[mask]) ** 2 * amp
            return out

        return CoefficientField(1, bumps, abs(amp))

    return make_family(
        v_of_eps,
        constant_field(1, 0.0),
        lambda eps: eps ** p5 + eps ** p4,
        box,
        finest_scale=lambda eps: max(eps ** p4 * eps ** p5, 1e-12),
    )


def _build_stabilizing_arctan(cfg):
    """amp (2/pi) arctan(x/eps), stabilizing to its tail value amp."""
    amp = cfg.get_float("family.amplitude", 1.0)
    box = _domain(cfg, (0.0, 1.0))

    def v_of_eps(eps):
        return CoefficientField(
            1, lambda x: amp * (2.0 / math.pi) * np.arctan(x[0] / eps),
            abs(amp))

    def rate(eps):
        # outside |x/eps| >= eps^(-1/3) the profile sits within
        # rho6 = |amp| (2/pi) eps^(1/3) of its tail
        rho6 = abs(amp) * (2.0 / math.pi) * eps ** (1.0 / 3.0)
        return rho6 + eps ** (1.0 / 3.0)

    return make_family(
        v_of_eps,
        constant_field(1, amp),
        rate,
        box,
        finest_scale=lambda eps: max(eps, 1e-12),
    )


def _build_locally_periodic(cfg):
    """amp (1 + sin(2 pi x) / 2) times cos(2 pi x / s) for each scale s.

    The scales are eps, or eps and eps^2 at family.levels = 2; the limit
    is zero.  The predicted rate is sqrt(eps), plus for two levels the
    separation penalty rho8(sqrt(2) eps^2 / eps).
    """
    amp = cfg.get_float("family.amplitude", 1.0)
    levels = cfg.get_int("family.levels", 1)
    box = _domain(cfg, (0.0, 1.0))
    if levels not in (1, 2):
        raise ConfigError("family.levels must be 1 or 2")
    rho8 = _rho8(cfg)

    def scales(eps):
        return (eps, eps * eps)[:levels]

    def v_of_eps(eps):
        def oscillation(x):
            x1 = x[0]
            vals = amp * (1.0 + 0.5 * np.sin(2 * math.pi * x1))
            for s in scales(eps):
                vals = vals * np.cos(2 * math.pi * (x1 / s))
            return vals

        return CoefficientField(1, oscillation, 1.5 * abs(amp))

    def rate(eps):
        s = scales(eps)
        sep = rho8(math.sqrt(2.0) * s[1] / s[0]) if levels == 2 else 0.0
        return sep + math.sqrt(eps)

    return make_family(
        v_of_eps,
        constant_field(1, 0.0),
        rate,
        box,
        finest_scale=lambda eps: max(min(scales(eps)), 1e-14),
    )


def _build_two_scale_linear(cfg):
    """Linear profile times a mean-one oscillation, limit V0(x) = x.

    One scale, so the predicted rate is sqrt(eps) with no separation
    penalty.
    """
    amp = cfg.get_float("family.amplitude", 1.0)
    box = _domain(cfg, (0.0, 1.0))
    span = max(abs(box.lower[0]), abs(box.upper[0]))

    def v_of_eps(eps):
        return CoefficientField(
            1, lambda x: amp * x[0]
            * (1.0 + np.cos(2 * math.pi * (x[0] / eps))),
            2.0 * abs(amp) * span)

    return make_family(
        v_of_eps,
        CoefficientField(1, lambda x: amp * x[0], abs(amp) * span),
        lambda eps: math.sqrt(eps),
        box,
        finest_scale=lambda eps: max(eps, 1e-14),
    )


def _build_almost_periodic(cfg):
    """family.mean plus the cosines a_j cos(alpha_j x / eps).

    The predicted rate is the cell penalty eta = sqrt(eps) plus the
    box-average decay bound of each cosine at that cell size.
    """
    freqs = cfg.get_floats("family.frequencies", (1.0, math.sqrt(2.0)))
    amps = cfg.get_floats("family.amplitudes", tuple(1.0 for _ in freqs))
    if len(freqs) != len(amps):
        raise ConfigError(
            "family.frequencies and family.amplitudes differ in length"
        )
    if 0.0 in freqs:
        raise ConfigError(
            "family.frequencies must be nonzero; family.mean sets the "
            "constant term"
        )
    box = _domain(cfg, (0.0, 1.0))
    mean = cfg.get_float("family.mean", 0.0)
    terms = list(zip(freqs, amps))
    sup = sum(abs(a) for _, a in terms) + abs(mean)
    max_alpha = max((abs(alpha) for alpha in freqs), default=1.0)

    def v_of_eps(eps):
        def trig_sum(x):
            out = np.zeros(x[0].shape)
            for alpha, a in terms:
                out += np.cos((x[0] * alpha) / eps) * a
            return out + mean

        return CoefficientField(1, trig_sum, sup)

    def rate(eps):
        eta = math.sqrt(eps)
        # a cell of physical size eta covers eta/eps frequency units
        return sum(min(1.0, 2.0 / (abs(alpha) * eta / eps)) * abs(a)
                   for alpha, a in terms) + eta

    return make_family(
        v_of_eps,
        constant_field(1, mean),
        rate,
        box,
        finest_scale=lambda eps: 2 * math.pi * eps / max_alpha,
    )


def _build_modulated_diffeo(cfg):
    """amp sin(2 pi phi(x) / eps) with the cubic phase phi(x) = x^3.

    phi' = 3 x^2 must stay at least JACOBIAN_TOL on the domain, so the
    domain lies in x > 0.  The limit is zero and the predicted rate
    sqrt(eps) + rho8(sqrt(eps)).
    """
    amp = cfg.get_float("family.amplitude", 1.0)
    box = _domain(cfg, (1.0, 2.0))
    lo, hi = box.lower[0], box.upper[0]
    if lo <= 0 or 3.0 * (lo * lo) < JACOBIAN_TOL:
        raise ConfigError(
            f"family.domain: the cubic phase needs 3 x^2 >= {JACOBIAN_TOL} "
            f"on the domain, so a lower bound in x > 0; got {lo!r}"
        )
    jac_max = 3.0 * (hi * hi)
    rho8 = _rho8(cfg)

    def v_of_eps(eps):
        return CoefficientField(
            1, lambda x: amp * np.sin(2 * math.pi * (x[0] ** 3 / eps)),
            abs(amp))

    return make_family(
        v_of_eps,
        constant_field(1, 0.0),
        lambda eps: math.sqrt(eps) + rho8(math.sqrt(eps)),
        box,
        finest_scale=lambda eps: max(eps / jac_max, 1e-14),
    )


def implicit_eta(p0, eps):
    """Smallest r in (0, 1] with min(r p0(r^2), p0(r^2)^2) >= sqrt(eps),
    by 80 bisection steps.

    p0 must be nondecreasing.  Raises if even r = 1 fails, which signals a
    degeneracy too strong for the phase to homogenize at this eps.
    """
    target = math.sqrt(eps)

    def p1(r):
        v = float(p0(r * r))
        return min(r * v, v * v)

    if p1(1.0) < target:
        raise ValueError("phase degeneracy too strong: no admissible eta")
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if p1(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _build_modulated_periodic(cfg):
    """amp sin(2 pi cos(x) / eps): the phase cos has a critical point.

    The margin p0(r), the least |phi'| = |sin| at distance r from the
    critical point, sets the cell size eta = implicit_eta(p0, eps), and
    the predicted rate is sqrt(eps) + eta + rho8(eta).
    """
    amp = cfg.get_float("family.amplitude", 1.0)
    box = _domain(cfg, (0.5, 3.5))
    a, b = box.lower[0], box.upper[0]
    rho8 = _rho8(cfg)
    # max |phi'| = max |sin x|: 1 if the domain holds a crest pi/2 + k pi,
    # else at an end, since |sin| is monotone between crests
    crest = math.pi / 2 + math.pi * math.ceil((a - math.pi / 2) / math.pi)
    jac_max = 1.0 if crest <= b else max(abs(math.sin(a)), abs(math.sin(b)))
    edge = min(abs(math.sin(a)), abs(math.sin(b)))

    def p0(r):
        # |sin| margin at distance r from the interior critical point
        return min(math.sin(min(max(r, 0.0), 0.5 * math.pi)), edge)

    def v_of_eps(eps):
        return CoefficientField(
            1, lambda x: amp * np.sin(2 * math.pi * (np.cos(x[0]) / eps)),
            abs(amp))

    def rate(eps):
        try:
            eta = implicit_eta(p0, eps)
        except ValueError:
            raise ConfigError(
                f"family.domain = {a!r}, {b!r}: the "
                f"phase margin |sin| at the domain ends is {edge:.3g}, too "
                f"small for an admissible eta at eps = {eps!r}; end the "
                "domain farther from a multiple of pi"
            ) from None
        return math.sqrt(eps) + eta + rho8(eta)

    return make_family(
        v_of_eps,
        constant_field(1, 0.0),
        rate,
        box,
        finest_scale=lambda eps: max(eps / max(jac_max, 1e-12), 1e-14),
    )


def _build_fractal_2d(cfg):
    """amp cos(x1 / eps) cos(x1 x2 / eps^2) on a 2D box; the limit is zero.

    The predicted rate is rho8(2 sqrt(2) sqrt(eps)) + sqrt(eps), and the
    cell criteria use the lattice 2 Z^2 - (1, 1).  The value is the
    product (amp cos(x1 / eps)) cos(x1 x2 / eps^2) in that order, by
    broadcasting: cell quadrature on that lattice passes x1 once per
    block, so the factor amp cos(x1 / eps) is taken once per block and
    not once per point.

    The finest scale is the smallest over both axes and both factors:
    the phase x1 x2 / eps^2 oscillates along x2 at rate |x1| / eps^2 and
    along x1 at rate |x2| / eps^2, and cos(x1 / eps) at rate 1 / eps,
    which is the finer one on a box within eps of the origin.
    """
    amp = cfg.get_float("family.amplitude", 1.0)
    box = _domain(cfg, (0.0, 0.0, 2.0, 2.0))
    rho8 = _rho8(cfg)
    # the deepest phase is fastest where the other coordinate is largest
    x_max = max(abs(v) for v in box.lower + box.upper)

    def v_of_eps(eps):
        def products(x):
            x1, x2 = x
            return amp * np.cos(x1 / eps) * np.cos(x1 * x2 / eps ** 2)

        return CoefficientField(2, products, abs(amp))

    return make_family(
        v_of_eps,
        constant_field(2, 0.0),
        lambda eps: rho8(2 * math.sqrt(2) * math.sqrt(eps)) + math.sqrt(eps),
        box,
        # the phase's period 2 pi eps^2 / x_max over 2 pi, in the
        # operation order the quadrature refine (and so the output bytes)
        # follows, or the factor's eps if that is finer
        finest_scale=lambda eps: min(eps, 2 * math.pi * eps ** 2
                                     / (2 * math.pi * x_max)),
        suggested_lattice=Lattice((2.0, 2.0), (-1.0, -1.0)),
    )


def _build_random_rotation(cfg):
    """mean + amp (cos 2 pi w1 + cos 2 pi w2) / 2 along a torus rotation.

    The torus point is w(x) = w0 + (x, sqrt(2) x) / eps (mod 1).  1 and
    sqrt(2) are rationally independent, so the rotation is ergodic and
    space averages tend to the torus expectation, the declared limit,
    which is mean exactly: each cosine has torus mean zero.  One
    realization w0 is drawn from family.seed and reused for every eps;
    the predicted rate is sqrt(eps).
    """
    amp = cfg.get_float("family.amplitude", 1.0)
    seed = cfg.get_int("family.seed", 7)
    if seed < 0:
        raise ConfigError(f"family.seed must be nonnegative, got {seed}")
    mean = cfg.get_float("family.mean", 0.0)
    box = _domain(cfg, (0.0, 1.0))
    w0 = np.random.default_rng(seed).random(2)

    def observable(w1, w2):
        return mean + amp * 0.5 * (
            np.cos(2 * math.pi * w1) + np.cos(2 * math.pi * w2)
        )

    def v_of_eps(eps):
        def rotation(x):
            t = x[0] / eps
            return observable(np.mod(w0[0] + t, 1.0),
                              np.mod(w0[1] + t * math.sqrt(2.0), 1.0))

        return CoefficientField(1, rotation, abs(mean) + abs(amp))

    return make_family(
        v_of_eps,
        constant_field(1, mean),
        lambda eps: math.sqrt(eps),
        box,
        finest_scale=lambda eps: eps / math.sqrt(2.0),
    )


REGISTRY = {
    "regular_sin": _build_regular_sin,
    "sign_sin": _build_sign_sin,
    "sparse_bumps": _build_sparse_bumps,
    "stabilizing_arctan": _build_stabilizing_arctan,
    "locally_periodic": _build_locally_periodic,
    "two_scale_linear": _build_two_scale_linear,
    "almost_periodic": _build_almost_periodic,
    "modulated_diffeo": _build_modulated_diffeo,
    "modulated_periodic": _build_modulated_periodic,
    "fractal_2d": _build_fractal_2d,
    "random_rotation": _build_random_rotation,
}


def build_family(cfg: StudyConfig):
    """Build the family named by family.name."""
    name = cfg.get_str("family.name")
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"unknown family {name!r}; known: {known}")
    return REGISTRY[name](cfg)


class _KeyRecorder(StudyConfig):
    """An empty config that records every key read from it, in order."""

    def __init__(self):
        super().__init__({})
        self.read = []

    def get(self, key, *default):
        self.read.append(key)
        return super().get(key, *default)


def family_keys(name):
    """The keys the builder of name reads, in reading order.

    Recorded by building the family from an empty config, where every key
    falls back to its default; a key read only on some calls is missed.
    """
    cfg = _KeyRecorder()
    REGISTRY[name](cfg)
    return tuple(dict.fromkeys(cfg.read))


def describe_families():
    """Plain-text catalogue for the CLI listing: each entry's name, the
    first line of its builder's docstring and the keys family_keys
    records, so a builder must read every key it takes on every call."""
    lines = []
    for name in sorted(REGISTRY):
        lines.append(name)
        lines.append(f"    {REGISTRY[name].__doc__.splitlines()[0]}")
        lines.append(f"    keys: {', '.join(family_keys(name))}")
    return "\n".join(lines)
