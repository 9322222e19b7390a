"""Cell-mean criteria that certify smallness of multiplier norms.

The two computable quantities are the worst cell-mean deviation (rho1,
which certifies the form-norm of a potential) and the worst cell mean of
the squared deviation (rho3, which certifies the product norm of a
first-order weight).  Both come with the predicted bounds rho1 + eta and
sqrt(rho3) + sqrt(eta).

Every measurement comes from the fine cell rule alone.  The quadrature
error estimate, a criterion row's quad_error column, is taken apart by
quad_error, from the fine integrals a report holds and the
half-resolution rule on the same cells: a criterion study takes it once
a row, for the eta optimize_eta picked, and no other eta, resolvent row
or local mean runs the half-resolution rule.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .errors import NumericalBreach
from .families import deviation_triple
from .lattice import (cell_integral, cell_integral_error, cells_inside,
                      default_refine, unit_lattice)


@dataclass(frozen=True)
class CriterionReport:
    """Cell-criterion measurements at one (eps, eta) pair.

    The fine-rule integrals the measurements come from ride along with
    the rule that took them, out of comparison and repr, so quad_error
    can take the report's error estimate without a second fine rule.
    """

    eps: float
    eta: float
    rho1: float
    rho3: float
    bound_m1m1: float
    bound_m10: float
    cell_count: int
    # (lattice, cell indices (C, d), refine) of the cell rule
    rule: tuple = field(repr=False, compare=False)
    # (deviation component, the (2, C) fine integrals of it and of its
    # square) for each component, in order
    integrals: tuple = field(repr=False, compare=False)


class NoCellsError(ConfigError):
    """No lattice cell at the requested scale fits inside the domain."""


def _finite(values, eps, eta):
    """Cell integrals or estimates, raising NumericalBreach if one is not
    finite: a nan would drop out of every max that folds the cells."""
    if not np.isfinite(values).all():
        raise NumericalBreach(
            f"non-finite cell integral at eps {eps!r}, eta {eta!r}")
    return values


def _deviation_cells(family, eps, eta, refine):
    lat = family.suggested_lattice or unit_lattice(family.dim)
    cells = cells_inside(lat, eta, family.domain)
    if not cells:
        raise NoCellsError(
            f"no lattice cells of size {eta} fit inside the domain"
        )
    if refine is None:
        refine = default_refine(eta, family.finest_scale(eps))
    return lat, cells, int(refine)


def criterion_report(family, eps, eta, refine):
    """Both cell criteria of a family at one (eps, eta, refine), refine
    None for default_refine, on its suggested lattice or the unit one.

    rho1 is the max over cells of the modulus of the cell mean of the
    deviation (each perturbation component separately, worst one
    reported); rho3 is the max over cells of the cell mean of the square
    of the deviation.  Each component is integrated over all cells in one
    batched call of the fine rule, which also integrates its square.  No
    error estimate is taken: quad_error takes it from the report.
    """
    eps = float(eps)
    eta = float(eta)
    lat, cells, r = _deviation_cells(family, eps, eta, refine)
    measure = lat.cell_measure * eta ** family.dim
    gammas = np.array(cells)
    rho1 = 0.0
    rho3 = 0.0
    integrals = []
    for dev in deviation_triple(family, eps).components():
        fine = _finite(cell_integral(lat, gammas, eta, dev, r, squares=True),
                       eps, eta)
        integral, sq_int = fine
        rho1 = max(rho1, float(np.max(np.abs(integral) / measure)))
        rho3 = max(rho3, float(np.max(sq_int)) / measure)
        integrals.append((dev, fine))
    return CriterionReport(
        eps=eps,
        eta=eta,
        rho1=rho1,
        rho3=rho3,
        bound_m1m1=rho1 + eta,
        bound_m10=math.sqrt(max(rho3, 0.0)) + math.sqrt(eta),
        cell_count=len(cells),
        rule=(lat, gammas, r),
        integrals=tuple(integrals),
    )


def quad_error(report):
    """The quadrature error estimate of a report, its criterion row's
    quad_error: the largest cell_integral_error over its cells, each
    deviation component and its square, relative to the cell measure.

    Only the half-resolution rule runs, against the fine integrals the
    report holds, so the fine rule never runs twice for a cell.  Raises
    NumericalBreach if an estimate is not finite.
    """
    lat, gammas, r = report.rule
    eps, eta = report.eps, report.eta
    measure = lat.cell_measure * eta ** lat.dim
    worst = 0.0
    for dev, fine in report.integrals:
        err, sq_err = _finite(cell_integral_error(lat, gammas, eta, dev, r,
                                                  fine), eps, eta)
        worst = max(worst, float(np.max(err)) / measure,
                    float(np.max(sq_err)) / measure)
    return worst


def optimize_eta(family, eps, exponents, refine=None):
    """Pick eta from the grid {eps^a} minimizing the certified bound.

    The bound is the one the family's deviation needs: sqrt(rho3) +
    sqrt(eta) (bound_m10) when it has a first-order weight, otherwise
    rho1 + eta (bound_m1m1).  Grid values whose cells do not fit in the
    domain are skipped.  The pick is that of a scan from the largest eta
    down that moves only to a bound below the best so far by the factor
    1 - 1e-12, so near-ties keep the larger eta.  (At the default refine
    a candidate's cost does not depend on eta; a fixed refine makes a
    smaller eta cost more.)

    A candidate that cannot win is not evaluated.  Since rho1, rho3 >= 0,
    each bound has an exact floor: bound_m1m1 = fl(rho1 + eta) >= eta and
    bound_m10 >= fl(sqrt(eta)).  Candidates are evaluated from the
    smallest eta up, and i is skipped when an evaluated eta_j < eta_i has
    v_j < floor_i (1 - 1e-12)^(m + 2), m the number of candidates.  The
    scan then runs over the evaluated ones.  It picks what the full scan
    picks: until the scans with and without i merge, a candidate that only
    one of them takes has a bound of at least 1 - 1e-12 times the smaller
    of their running bests (else both would take it), so that falls by at
    most this factor a step.  Fewer than m steps lead from i to j, and v_j
    < v_i (1 - 1e-12)^(m + 2), so both scans take j and merge there at the
    latest; the two extra powers cover the rounding of the margin and of
    its products.  Each skipped candidate has an evaluated witness, so the
    argument removes them one at a time.  A skipped candidate's field is
    never evaluated, so a non-finite value there raises nothing, and
    errors come from the smallest eta first.  No candidate's error
    estimate is taken (see quad_error), so neither does a non-finite
    half-resolution value.
    """
    trip = deviation_triple(family, eps)
    weighted = bool(trip.q or trip.p)
    candidates = sorted({float(eps) ** a for a in exponents})
    margin = (1 - 1e-12) ** (len(candidates) + 2)
    evaluated = []
    record = math.inf  # least bound evaluated so far
    for eta in candidates:
        floor = math.sqrt(eta) if weighted else eta
        if record < floor * margin:
            continue
        try:
            rep = criterion_report(family, eps, eta, refine)
        except NoCellsError:
            continue
        val = rep.bound_m10 if weighted else rep.bound_m1m1
        evaluated.append((rep, val))
        record = min(record, val)
    best = None
    best_val = None
    for rep, val in reversed(evaluated):
        if best_val is None or val < best_val * (1 - 1e-12):
            best, best_val = rep, val
    if best is None:
        box = family.domain
        raise NoCellsError(
            f"family.domain = {_listed(box.lower + box.upper)}: no cell of "
            f"size eta = eps^a, a in criterion.exponents = "
            f"{_listed(exponents)}, fits inside it at eps = {eps!r}")
    return best.eta, best


def _listed(values):
    return ", ".join(repr(float(v)) for v in values)


def worst_gap(pairs):
    """Largest |a - b| over the pairs whose window was sampled (a, b not
    None); nan when none was."""
    return max((float(abs(a - b)) for a, b in pairs
                if a is not None and b is not None), default=math.nan)


def local_mean_limit(family, eps_schedule, mu_rule, sample_points):
    """Reconstruct the limit potential from shrinking local means.

    The grid has sample_points interior points per axis.  For each eps the
    candidate limit at a grid point x is the mean of the eps-field over
    x + mu * (0,1)^d with mu = mu_rule(eps); windows that leave the
    domain are skipped.  Returns
    a report with the sample grid, the means per eps ("samples", None for
    a skipped window), the skipped points, the worst gap between the means
    of each pair of successive schedule entries ("pair_gaps"), rho2, the
    largest of those gaps, and the finest window size mu_final.  With no
    window sampled at two successive entries there is no evidence, and
    rho2 is nan.
    """
    if len(eps_schedule) < 2:
        raise ValueError("local mean limit needs at least two eps entries")
    box = family.domain
    dim = family.dim
    axes = [
        np.linspace(box.lower[j], box.upper[j], sample_points + 2)[1:-1]
        for j in range(dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)

    lower = np.array(box.lower) - 1e-12
    upper = np.array(box.upper) + 1e-12
    samples = []
    skipped_all = []
    for eps in eps_schedule:
        mu = float(mu_rule(eps))
        r = default_refine(mu, family.finest_scale(eps))
        inside = np.all((grid >= lower) & (grid + mu <= upper), axis=1)
        vals = [None] * len(grid)
        # mean over x + mu*(0,1)^d as a unit lattice cell at scale mu
        integral = _finite(cell_integral(
            unit_lattice(dim), grid[inside] / mu, mu, family.at(eps).v, r
        ), eps, mu)
        for k, m in zip(np.flatnonzero(inside), integral / mu ** dim):
            vals[k] = m
        samples.append(vals)
        skipped_all.extend(tuple(float(v) for v in x) for x in grid[~inside])

    pair_gaps = [worst_gap(zip(a, b))
                 for a, b in zip(samples[:-1], samples[1:])]
    # fmax skips the nan of a pair with no sampled window
    rho2 = float(np.fmax.reduce(pair_gaps))
    return {
        "pair_gaps": pair_gaps,
        "rho2": rho2,
        "mu_final": float(mu_rule(float(eps_schedule[-1]))),
        "grid": grid,
        "samples": samples,
        "skipped": tuple(skipped_all),
    }
