"""Cell-mean criteria that certify smallness of multiplier norms.

The two computable quantities are the worst cell-mean deviation (rho1,
which certifies the form-norm of a potential) and the worst cell mean of
the squared deviation (rho3, which certifies the product norm of a
first-order weight).  Both come with the predicted bounds rho1 + eta and
sqrt(rho3) + sqrt(eta).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreach
from .families import deviation_triple
from .lattice import Lattice, cells_inside, cell_integral, default_refine


@dataclass(frozen=True)
class CriterionReport:
    """Cell-criterion measurements at one (eps, eta) pair."""

    eps: float
    eta: float
    rho1: float
    rho3: float
    bound_m1m1: float
    bound_m10: float
    quad_error: float
    cell_count: int


class NoCellsError(ValueError):
    """No lattice cell at the requested scale fits inside the domain."""


def _finite(results, eps, eta):
    """The cell_integral results, raising NumericalBreach if one is not
    finite: a nan would drop out of every max that folds the cells."""
    if not all(np.isfinite(r).all() for r in results):
        raise NumericalBreach(
            f"non-finite cell integral at eps {eps!r}, eta {eta!r}")
    return results


def _deviation_cells(family, eps, eta, refine):
    lat = family.suggested_lattice or Lattice(family.dim)
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
    reported); rho3 is the max over cells of the cell mean of the squared
    modulus of the deviation.  Each component is integrated over
    all cells in one batched call, which also integrates its square.
    """
    eps = float(eps)
    eta = float(eta)
    lat, cells, r = _deviation_cells(family, eps, eta, refine)
    measure = lat.cell_measure * eta ** family.dim
    gammas = np.array(cells)
    rho1 = 0.0
    rho3 = 0.0
    quad_err = 0.0
    for dev in deviation_triple(family, eps).components():
        integral, err, sq_int, sq_err = _finite(cell_integral(
            lat, gammas, eta, dev, r, squares=True), eps, eta)
        rho1 = max(rho1, float(np.max(np.abs(integral) / measure)))
        rho3 = max(rho3, float(np.max(sq_int.real)) / measure)
        quad_err = max(quad_err, float(np.max(err)) / measure,
                       float(np.max(sq_err)) / measure)
    return CriterionReport(
        eps=eps,
        eta=eta,
        rho1=rho1,
        rho3=rho3,
        bound_m1m1=rho1 + eta,
        bound_m10=math.sqrt(max(rho3, 0.0)) + math.sqrt(eta),
        quad_error=quad_err,
        cell_count=len(cells),
    )


def optimize_eta(family, eps, exponents, refine=None):
    """Pick eta from the grid {eps^a} minimizing the certified bound.

    The bound is the one the family's deviation needs: sqrt(rho3) +
    sqrt(eta) (bound_m10) when it has a first-order weight, otherwise
    rho1 + eta (bound_m1m1).  Grid values whose cells do not fit in the
    domain are skipped; ties prefer the larger eta (cheaper quadrature).
    """
    trip = deviation_triple(family, eps)
    weighted = bool(trip.q or trip.p)
    candidates = sorted({float(eps) ** a for a in exponents}, reverse=True)
    best = None
    best_val = None
    for eta in candidates:
        try:
            rep = criterion_report(family, eps, eta, refine)
        except NoCellsError:
            continue
        val = rep.bound_m10 if weighted else rep.bound_m1m1
        if best_val is None or val < best_val * (1 - 1e-12):
            best, best_val = rep, val
    if best is None:
        raise NoCellsError(
            "no eta on the grid admits any cell inside the domain")
    return best.eta, best


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
    of each pair of successive schedule entries ("pair_gaps"), and rho2,
    the largest of those gaps, with its bound rho2 + sqrt(mu) at the
    finest eps.  With no window sampled at two successive entries there
    is no evidence, and rho2 and its bound are nan.
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
        integral, _ = _finite(cell_integral(
            Lattice(dim), grid[inside] / mu, mu, family.at(eps).v, r
        ), eps, mu)
        for k, m in zip(np.flatnonzero(inside), integral / mu ** dim):
            vals[k] = m
        samples.append(vals)
        skipped_all.extend(tuple(float(v) for v in x) for x in grid[~inside])

    pair_gaps = [worst_gap(zip(a, b))
                 for a, b in zip(samples[:-1], samples[1:])]
    # fmax skips the nan of a pair with no sampled window
    rho2 = float(np.fmax.reduce(pair_gaps))
    mu_fin = float(mu_rule(float(eps_schedule[-1])))
    return {
        "pair_gaps": pair_gaps,
        "rho2": rho2,
        "mu_final": mu_fin,
        "bound": rho2 + math.sqrt(mu_fin),
        "grid": grid,
        "samples": samples,
        "skipped": tuple(skipped_all),
    }
