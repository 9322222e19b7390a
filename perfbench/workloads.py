"""The benchmark's workloads: which shipped configs each one runs, and why.

Every study runs serially (--threads 1) through homlab.cli.main, from the
config file as shipped.  The workload seed is passed on as --seed.  Pass k
of a run uses sub-seed seed + (k mod SUB_SEEDS), so one run's median wall
time spans SUB_SEEDS seeds: the iterative norms start from seeded random
vectors, and the work they do moves with the seed (stabilizing_resolvent
makes 69366 to 76979 Gram solves over seeds 3 to 5).  A run makes at
least MIN_PASSES timed passes.
"""

from dataclasses import dataclass

SUB_SEEDS = 3
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    configs: tuple
    why: str


CRITERION_CONFIGS = (
    "almost_periodic_criterion", "fractal_criterion",
    "locally_periodic2_criterion", "locally_periodic_criterion",
    "modulated_diffeo_criterion", "modulated_periodic_criterion",
    "random_criterion", "regular_criterion", "sign_criterion",
    "sin_criterion", "sparse_criterion", "stabilizing_criterion",
)

WORKLOADS = {
    "cell_criteria": Workload(
        configs=CRITERION_CONFIGS + ("two_scale_homogenize",),
        why="cell quadrature and optimize_eta only; bypasses fem, norms "
            "and resolvent",
    ),
    "resolvent_mix": Workload(
        configs=("stabilizing_resolvent", "sign_resolvent"),
        why="every layer: coercivity search, resolvent norms on refined "
            "solves, identity check, criteria; sign is the negative control",
    ),
    "form_norms": Workload(
        configs=("sin_norm",),
        why="form norms on unrefined Gram solves only; bypasses coercivity, "
            "criteria and resolvent solves",
    ),
}

ALL_CONFIGS = tuple(dict.fromkeys(
    cfg for w in WORKLOADS.values() for cfg in w.configs))


def sub_seed(seed, k):
    return seed + k % SUB_SEEDS
