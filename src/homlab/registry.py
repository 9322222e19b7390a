"""Named family catalogue for config-driven studies.

Each entry builds a perturbation family from `family.*` config keys, so
every oscillation mechanism is reachable from a text config without
writing Python.
"""

import math

import numpy as np

from .config import ConfigError, StudyConfig
from .ergodic import ErgodicSystem
from .families import (make_almost_periodic, make_fractal,
                       make_locally_periodic, make_modulated, make_random,
                       make_regular, make_sparse, make_stabilizing)
from .fields import Box, constant_field, scalar_field


def _domain(cfg, default):
    vals = cfg.get_floats("family.domain", default)
    if len(vals) % 2 != 0:
        raise ConfigError("family.domain needs an even number of bounds")
    d = len(vals) // 2
    return Box(tuple(vals[:d]), tuple(vals[d:]))


def _rho8(cfg):
    c = cfg.get_float("family.rho8_scale", 1.0)
    return lambda t: min(2.0 * c, c * t)


def _build_regular_sin(cfg):
    amp = cfg.get_float("family.amplitude", 1.0)
    freq = cfg.get_float("family.frequency", 1.0)
    box = _domain(cfg, (0.0, 1.0))
    if freq <= 0:
        raise ConfigError("family.frequency must be positive")

    def v_of_eps(eps):
        return scalar_field(
            1, lambda pts: amp * np.sin(freq * pts[:, 0] / eps), abs(amp),
            box)

    return make_regular(
        v_of_eps,
        constant_field(1, 0.0, box),
        lambda eps: (1.0 + 2.0 * abs(amp)) * math.sqrt(eps),
        box,
        name="regular_sin",
        finest_scale=lambda eps: 2 * math.pi * eps / freq,
    )


def _build_sign_sin(cfg):
    """Discontinuous oscillation with a configurable declared limit.

    The true mean is zero; declaring anything else gives a controlled
    wrong-limit family for negative tests.
    """
    declared = cfg.get_float("family.declared_limit", 0.5)
    freq = cfg.get_float("family.frequency", 1.0)
    box = _domain(cfg, (0.0, 1.0))

    def v_of_eps(eps):
        return scalar_field(
            1, lambda pts: np.sign(np.sin(freq * pts[:, 0] / eps)), 1.0, box)

    return make_regular(
        v_of_eps,
        constant_field(1, declared, box),
        lambda eps: math.sqrt(eps),
        box,
        name="sign_sin",
        finest_scale=lambda eps: 2 * math.pi * eps / freq,
    )


def _build_sparse_bumps(cfg):
    amp = cfg.get_float("family.amplitude", 1.0)
    p4 = cfg.get_float("family.rho4_power", 1.0 / 3.0)
    p5 = cfg.get_float("family.rho5_power", 1.0 / 3.0)
    box = _domain(cfg, (0.0, 1.0))
    if box.dim != 1:
        raise ConfigError("sparse_bumps is a 1D entry")
    a, b = box.lower[0], box.upper[0]

    def rho4(eps):
        return eps ** p4

    def rho5(eps):
        return eps ** p5

    def centers(eps):
        r4 = rho4(eps)
        k = int(math.floor((b - a) / r4))
        pts = a + r4 * (np.arange(k) + 0.5)
        return pts.reshape(-1, 1)

    def profile(r):
        return np.cos(0.5 * math.pi * np.clip(r, 0.0, 1.0)) ** 2

    return make_sparse(centers, rho4, rho5, profile, amp, box,
                       name="sparse_bumps")


def _build_stabilizing_arctan(cfg):
    amp = cfg.get_float("family.amplitude", 1.0)
    box = _domain(cfg, (0.0, 1.0))

    def vfun(pts, xi):
        vals = amp * (2.0 / math.pi) * np.arctan(xi[:, 0])
        return vals.reshape(-1, 1, 1).astype(complex)

    # outside |xi| >= eps^(-1/3) the profile sits within rho6 of its tail
    def rho6(eps):
        return amp * (2.0 / math.pi) * eps ** (1.0 / 3.0)

    return make_stabilizing(
        vfun,
        constant_field(1, amp, box),
        rho6,
        box,
        sup_bound=abs(amp),
        name="stabilizing_arctan",
    )


def _build_locally_periodic(cfg):
    amp = cfg.get_float("family.amplitude", 1.0)
    levels = cfg.get_int("family.levels", 1)
    box = _domain(cfg, (0.0, 1.0))
    if levels not in (1, 2):
        raise ConfigError("family.levels must be 1 or 2")
    scales = [lambda eps: eps]
    if levels == 2:
        scales.append(lambda eps: eps * eps)

    def vfun(pts, *xis):
        mod = 1.0 + 0.5 * np.sin(2 * math.pi * pts[:, 0])
        vals = amp * mod
        for xi in xis:
            vals = vals * np.cos(2 * math.pi * xi[:, 0])
        return vals.reshape(-1, 1, 1).astype(complex)

    return make_locally_periodic(
        vfun, scales,
        constant_field(1, 0.0, box),
        _rho8(cfg),
        box,
        sup_bound=1.5 * abs(amp),
        name="locally_periodic",
    )


def _build_two_scale_linear(cfg):
    """Linear profile times a mean-one oscillation, limit V0(x) = x."""
    amp = cfg.get_float("family.amplitude", 1.0)
    box = _domain(cfg, (0.0, 1.0))
    span = max(abs(box.lower[0]), abs(box.upper[0]))

    def vfun(pts, xi):
        vals = amp * pts[:, 0] * (1.0 + np.cos(2 * math.pi * xi[:, 0]))
        return vals.reshape(-1, 1, 1).astype(complex)

    v0 = scalar_field(1, lambda pts: amp * pts[:, 0], abs(amp) * span, box)
    return make_locally_periodic(
        vfun, [lambda eps: eps],
        v0,
        _rho8(cfg),
        box,
        sup_bound=2.0 * abs(amp) * span,
        name="two_scale_linear",
    )


def _build_almost_periodic(cfg):
    freqs = cfg.get_floats("family.frequencies", (1.0, math.sqrt(2.0)))
    amps = cfg.get_floats("family.amplitudes", tuple(1.0 for _ in freqs))
    if len(freqs) != len(amps):
        raise ConfigError(
            "family.frequencies and family.amplitudes differ in length"
        )
    box = _domain(cfg, (0.0, 1.0))
    terms = []
    for alpha, a in zip(freqs, amps):
        # real cosine as a conjugate pair of complex exponentials
        terms.append(((alpha,), 0.5 * a))
        terms.append(((-alpha,), 0.5 * a))
    mean = cfg.get_float("family.mean", 0.0)
    if mean:
        terms.append(((0.0,), mean))
    return make_almost_periodic(terms, box, name="almost_periodic")


def _build_modulated_diffeo(cfg):
    amp = cfg.get_float("family.amplitude", 1.0)
    box = _domain(cfg, (1.0, 2.0))
    if box.lower[0] <= 0:
        raise ConfigError(
            "modulated_diffeo uses the cubic phase; keep the domain in x > 0"
        )

    def vfun(pts, xi):
        return (amp * np.sin(2 * math.pi * xi[:, 0])).reshape(-1, 1, 1)

    def phi(pts):
        return pts ** 3

    def jac(pts):
        return 3.0 * pts[:, 0] ** 2

    return make_modulated(
        vfun, phi, jac, box, "diffeo",
        constant_field(1, 0.0, box),
        _rho8(cfg),
        sup_bound=abs(amp),
        name="modulated_diffeo",
    )


def _build_modulated_periodic(cfg):
    amp = cfg.get_float("family.amplitude", 1.0)
    box = _domain(cfg, (0.5, 3.5))

    def vfun(pts, xi):
        return (amp * np.sin(2 * math.pi * xi[:, 0])).reshape(-1, 1, 1)

    def phi(pts):
        return np.cos(pts)

    def jac(pts):
        return np.sin(pts[:, 0])

    edge = min(abs(math.sin(box.lower[0])), abs(math.sin(box.upper[0])))

    def p0(r):
        # |sin| margin at distance r from the interior critical point
        return min(math.sin(min(max(r, 0.0), 0.5 * math.pi)), edge)

    return make_modulated(
        vfun, phi, jac, box, "periodic",
        constant_field(1, 0.0, box),
        _rho8(cfg),
        sup_bound=abs(amp),
        p0=p0,
        name="modulated_periodic",
    )


def _build_fractal_2d(cfg):
    amp = cfg.get_float("family.amplitude", 1.0)
    box = _domain(cfg, (0.0, 0.0, 2.0, 2.0))
    if box.dim != 2:
        raise ConfigError("fractal_2d needs a 2D domain")

    def vfun(pts, xi1, xi2):
        vals = amp * np.cos(xi1) * np.cos(xi2)
        return vals.reshape(-1, 1, 1).astype(complex)

    return make_fractal(
        vfun,
        constant_field(2, 0.0, box),
        _rho8(cfg),
        box,
        sup_bound=abs(amp),
        name="fractal_2d",
    )


def _build_random_rotation(cfg):
    amp = cfg.get_float("family.amplitude", 1.0)
    seed = cfg.get_int("family.seed", 7)
    mean = cfg.get_float("family.mean", 0.0)
    box = _domain(cfg, (0.0, 1.0))

    def observable(om):
        vals = mean + amp * 0.5 * (
            np.cos(2 * math.pi * om[:, 0]) + np.cos(2 * math.pi * om[:, 1])
        )
        return vals.reshape(-1, 1, 1).astype(complex)

    system = ErgodicSystem(
        k=2,
        dim=1,
        flow=np.array([[1.0], [math.sqrt(2.0)]]),
        observable=observable,
        ncomp=1,
        sup_bound=abs(mean) + abs(amp),
    )
    return make_random(system, box, seed, name="random_rotation")


REGISTRY = {
    "regular_sin": (
        _build_regular_sin,
        "uniform sine oscillation sin(freq x / eps) with zero limit",
        ("family.amplitude", "family.frequency", "family.domain"),
    ),
    "sign_sin": (
        _build_sign_sin,
        "square-wave oscillation with a configurable declared limit",
        ("family.declared_limit", "family.frequency", "family.domain"),
    ),
    "sparse_bumps": (
        _build_sparse_bumps,
        "bumps of radius rho4 rho5 on centers rho4 apart, vanishing limit",
        ("family.amplitude", "family.rho4_power", "family.rho5_power",
         "family.domain"),
    ),
    "stabilizing_arctan": (
        _build_stabilizing_arctan,
        "arctan profile V(x/eps) stabilizing to a constant",
        ("family.amplitude", "family.domain"),
    ),
    "locally_periodic": (
        _build_locally_periodic,
        "modulated cosine oscillation on one or two nested scales",
        ("family.amplitude", "family.levels", "family.rho8_scale",
         "family.domain"),
    ),
    "two_scale_linear": (
        _build_two_scale_linear,
        "linear profile times a mean-one cosine, limit V0(x) = x",
        ("family.amplitude", "family.rho8_scale", "family.domain"),
    ),
    "almost_periodic": (
        _build_almost_periodic,
        "sum of cosines with incommensurate frequencies",
        ("family.frequencies", "family.amplitudes", "family.mean",
         "family.domain"),
    ),
    "modulated_diffeo": (
        _build_modulated_diffeo,
        "sine of a cubic phase, nondegenerate modulation",
        ("family.amplitude", "family.rho8_scale", "family.domain"),
    ),
    "modulated_periodic": (
        _build_modulated_periodic,
        "sine of a cosine phase with one critical point",
        ("family.amplitude", "family.rho8_scale", "family.domain"),
    ),
    "fractal_2d": (
        _build_fractal_2d,
        "2D product-phase oscillation cos(x1/eps) cos(x1 x2/eps^2)",
        ("family.amplitude", "family.rho8_scale", "family.domain"),
    ),
    "random_rotation": (
        _build_random_rotation,
        "ergodic two-torus rotation sampled along the line",
        ("family.amplitude", "family.mean", "family.seed", "family.domain"),
    ),
}


def build_family(cfg: StudyConfig):
    """Build the family named by family.name."""
    name = cfg.get_str("family.name")
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"unknown family {name!r}; known: {known}")
    return REGISTRY[name][0](cfg)


def describe_families():
    """Plain-text catalogue for the CLI listing."""
    lines = []
    for name in sorted(REGISTRY):
        _, blurb, keys = REGISTRY[name]
        lines.append(f"{name}")
        lines.append(f"    {blurb}")
        lines.append(f"    keys: {', '.join(keys)}")
    return "\n".join(lines)
