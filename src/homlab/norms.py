"""Induced operator norms in discrete Sobolev metrics, and coercivity.

Every norm here is a largest singular value of a map between Hilbert
spaces whose Grams are the H1 matrix S, its inverse (the dual space), or
the mass matrix.  It is found by block power iteration on the
self-adjoint product operator, using only multiplications and solves with
the Grams, never forming matrix square roots.  Each value is recomputed
from a second seed; the two runs must agree or the report is flagged.

The coercivity constant is a smallest pencil eigenvalue, bracketed from
below by inertia bisection with banded Cholesky factorizations.
"""

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .fem import LinearSolver, NumericalBreach, assemble_perturbation
from .fields import gram_field

MAX_POWER_ITER = 10000
POWER_BLOCK = 6


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, message, last_iterate=None, last_value=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.last_value = last_value


@dataclass(frozen=True)
class Metric:
    """Hilbert-space Gram action: multiply by the Gram and solve with it."""

    mul: Callable[[np.ndarray], np.ndarray]
    solve: Callable[[np.ndarray], np.ndarray]
    label: str = ""


def h1_metric(S, s_solver=None):
    solver = s_solver or LinearSolver(S)
    return Metric(mul=lambda v: S @ v, solve=solver.quick, label="H1")


def dual_metric(S, s_solver=None):
    solver = s_solver or LinearSolver(S)
    return Metric(mul=solver.quick, solve=lambda v: S @ v, label="H1*")


def l2_metric(M, m_solver=None):
    solver = m_solver or LinearSolver(M)
    return Metric(mul=lambda v: M @ v, solve=solver.quick, label="L2")


@dataclass(frozen=True)
class NormReport:
    """Computed operator norm with iteration metadata."""

    value: float
    method: dict
    matrices_involved: tuple
    flagged: bool = False


def _metric_norm(w, metric):
    return math.sqrt(max(float(np.real(np.vdot(w, metric.mul(w)))), 0.0))


def _metric_orth(Z, metric, rng):
    """Metric-orthonormal basis spanning range(Z), padding lost rank.

    Two Gram passes; directions whose Gram eigenvalue falls below 1e-28
    of the dominant one have collapsed onto the leading ones and are
    replaced with fresh random vectors so the block keeps its width.
    """
    dim, b = Z.shape
    for _ in range(2):
        G = Z.conj().T @ np.column_stack(
            [metric.mul(Z[:, j]) for j in range(b)])
        d, V = np.linalg.eigh((G + G.conj().T) * 0.5)
        good = d > max(float(d[-1]), 0.0) * 1e-28
        if good.all():
            Z = Z @ (V / np.sqrt(d))
        else:
            n_bad = b - int(good.sum())
            fresh = (rng.standard_normal((dim, n_bad))
                     + 1j * rng.standard_normal((dim, n_bad)))
            Z = np.column_stack([Z @ (V[:, good] / np.sqrt(d[good])), fresh])
    return Z


def _power_singular(apply_, apply_adj, m_in, m_out, dim, seed,
                    rel_tol=1e-8, max_iter=MAX_POWER_ITER,
                    block=POWER_BLOCK):
    """Largest singular value of A between (in, out) metric spaces.

    Block power iteration on w <- Gin^{-1} A* Gout A w, whose top
    eigenvalue is the squared singular value, with a Rayleigh-Ritz
    projection each sweep.  A single power vector crawls whenever the
    top singular values cluster, which is the generic situation for
    resolvent differences; carrying a small block makes convergence
    depend on the gap to the first value outside the block, so the
    residual certificate is reached at realistic sweep counts.  Exits on
    a small eigen-residual for the top Ritz pair, on Ritz-value
    stagnation once the residual has stopped shrinking, or on a
    long-run residual plateau.  Returns (value, sweeps, residual, mode).
    """
    rng = np.random.default_rng(seed)
    b = min(block, dim)
    W = rng.standard_normal((dim, b)) + 1j * rng.standard_normal((dim, b))
    W = _metric_orth(W, m_in, rng)
    lam = 0.0
    lam_prev = None
    stall = 0
    res = math.inf
    res_prev = math.inf
    res_checkpoint = math.inf
    it = 0
    scale = 0.0
    for it in range(1, max_iter + 1):
        T = np.column_stack(
            [apply_adj(m_out.mul(apply_(W[:, j]))) for j in range(b)])
        H = W.conj().T @ T
        theta, U = np.linalg.eigh((H + H.conj().T) * 0.5)
        lam = float(theta[-1])
        u = U[:, -1]
        value = math.sqrt(max(lam, 0.0))
        scale = max(scale, value)
        if value <= 1e-12:
            return 0.0, it, 0.0, "zero"
        Z = np.column_stack([m_in.solve(T[:, j]) for j in range(b)])
        y = W @ u
        r = Z @ u - lam * y
        res = _metric_norm(r, m_in)
        target = rel_tol * min(value, lam)
        if res <= target or res <= 1e-13 * max(scale, scale * scale):
            return value, it, res, "residual"
        if lam_prev is not None and abs(lam - lam_prev) <= 1e-13 * lam:
            stall += 1
            if stall >= 3 and (res <= rel_tol * value or res >= 0.9 * res_prev):
                return value, it, res, "stagnation"
        else:
            stall = 0
        lam_prev = lam
        res_prev = res
        if it % 50 == 0:
            # a residual shrinking under 1% per 50 sweeps means values
            # outside the block hug the top one; the Ritz value is
            # converged to within res
            if res > 0.99 * res_checkpoint:
                return value, it, res, "plateau"
            res_checkpoint = res
        W = _metric_orth(Z, m_in, rng)
    if res <= 1e-2 * min(value, lam):
        return value, it, res, "max_iter"
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} sweeps "
        f"(value {math.sqrt(max(lam, 0.0))}, residual {res})",
        last_iterate=y,
        last_value=math.sqrt(max(lam, 0.0)),
    )


def induced_norm(apply_, apply_adj, m_in, m_out, dim, seed=1234,
                 labels=(), rel_tol=1e-8, restart_check=True):
    """Operator norm between metric spaces, with a restart cross-check."""
    v1, it1, res1, mode = _power_singular(apply_, apply_adj, m_in, m_out,
                                          dim, seed, rel_tol)
    unc1 = res1 / (2.0 * v1) if v1 > 0 else 0.0
    flagged = False
    agreement = 0.0
    unc = unc1
    if restart_check:
        v2, _, res2, _ = _power_singular(apply_, apply_adj, m_in, m_out, dim,
                                         seed + 1, rel_tol)
        unc2 = res2 / (2.0 * v2) if v2 > 0 else 0.0
        agreement = abs(v1 - v2)
        # unc bounds the Rayleigh bias on a clustered plateau, so two
        # honest runs may differ by about that much
        if agreement > 1e-6 * max(v1, v2, 1e-12) + unc1 + unc2:
            flagged = True
        v1 = max(v1, v2)
        unc = max(unc1, unc2)
    return NormReport(
        value=v1,
        method={
            "iterations": it1,
            "residual": res1,
            "seed": seed,
            "converged": mode,
            "uncertainty": unc,
            "restart_agreement": agreement,
        },
        matrices_involved=tuple(labels),
        flagged=flagged,
    )


def _csr_apply(mat):
    math_h = mat.getH().tocsr()
    return (lambda v: mat @ v), (lambda v: math_h @ v)


def norm_v_to_vstar(X, S, s_solver=None, seed=1234, restart_check=True,
                    rel_tol=1e-8):
    """Norm of a form matrix as an operator from H1 to its dual."""
    solver = s_solver or LinearSolver(S)
    apply_, apply_adj = _csr_apply(X.tocsr())
    return induced_norm(
        apply_, apply_adj,
        m_in=h1_metric(S, solver),
        m_out=dual_metric(S, solver),
        dim=X.shape[0],
        seed=seed,
        labels=("form", "gram_h1"),
        restart_check=restart_check,
        rel_tol=rel_tol,
    )


def norm_m1m1(op, v_field, refine=1, s_solver=None, seed=1234):
    """Discrete form-norm of a potential: sup |(V u, v)| / |u|_V |v|_V."""
    pert = assemble_perturbation(op.space, v=v_field, refine=refine)
    return norm_v_to_vstar(pert.matrix, op.gram_h1, s_solver, seed)


def norm_m10(op, q_field, refine=1, s_solver=None, seed=1234):
    """Discrete product-norm of a weight: sup |Q u|_L2 / |u|_V.

    Uses the mass matrix weighted by Q* Q; the norm is the square root of
    the top generalized eigenvalue against the H1 Gram.
    """
    weight = gram_field(q_field)
    pert = assemble_perturbation(op.space, v=weight, refine=refine)
    rep = norm_v_to_vstar(pert.matrix, op.gram_h1, s_solver, seed)
    return NormReport(
        value=math.sqrt(max(rep.value, 0.0)),
        method=rep.method,
        matrices_involved=("weighted_mass", "gram_h1"),
        flagged=rep.flagged,
    )


def kappa(solve_eps, solve_0, S, dim, s_solver=None, seed=1234,
          restart_check=True):
    """Resolvent-difference norm from dual H1 to H1.

    solve_eps / solve_0 are callables (rhs, adjoint=False) -> solution.
    """
    solver = s_solver or LinearSolver(S)

    def apply_(f):
        return solve_eps(f) - solve_0(f)

    def apply_adj(g):
        return solve_eps(g, True) - solve_0(g, True)

    return induced_norm(
        apply_, apply_adj,
        m_in=dual_metric(S, solver),
        m_out=h1_metric(S, solver),
        dim=dim,
        seed=seed,
        labels=("resolvent_eps", "resolvent_0", "gram_h1"),
        restart_check=restart_check,
    )


def _upper_band(mat, u):
    """LAPACK upper band storage, half-bandwidth u, of a sparse matrix."""
    upper = sp.triu(mat, format="coo")
    upper.eliminate_zeros()  # stored zeros may lie outside the band
    ab = np.zeros((u + 1, mat.shape[0]), dtype=upper.dtype)
    np.add.at(ab, (u + upper.row - upper.col, upper.col), upper.data)
    return ab


def smallest_eigenvalue(H, S):
    """Lower bound on the smallest eigenvalue of the pencil (H, S) for
    Hermitian H, S > 0, by inertia bisection.

    H - c S is positive definite exactly when c lies below every
    eigenvalue (Sylvester), and one banded Cholesky decides that.  The
    bracket starts at hi = min Re H_ii / S_ii, a Rayleigh quotient, steps
    down geometrically until the factorization passes and is bisected to
    a relative width of 1e-12.  The returned lower end is a shift at which
    the factorization passed.
    """
    pattern = sp.triu(abs(H) + abs(S), format="coo")
    u = int(np.max(pattern.col - pattern.row, initial=0))
    band_h, band_s = _upper_band(H, u), _upper_band(S, u)
    if not (band_s[u].real > 0).all():
        raise NumericalBreach("S is not positive definite")
    ratio = band_h[u].real / band_s[u].real
    hi = float(ratio.min())
    # the pencil's own scale keeps the stopping width finite near zero
    scale = float(np.abs(ratio).max()) or 1.0

    def definite(c):
        try:
            sla.cholesky_banded(band_h - c * band_s, overwrite_ab=True,
                                check_finite=False)
        except sla.LinAlgError:
            return False
        return True

    lo = hi - scale
    while not definite(lo):
        lo = hi - 2.0 * (hi - lo)
        if not math.isfinite(lo):
            raise NumericalBreach("no finite shift makes H - c S positive "
                                  "definite: S is not")
    while hi - lo > 1e-12 * max(abs(lo), scale):
        mid = 0.5 * (lo + hi)
        if definite(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class CoercivityReport:
    """Shift making the whole schedule coercive in the H1 metric.

    c4 = min(per_eps) is a certified lower bound (see find_lambda).
    """

    lambda0: float
    c4: float
    cone_check: dict
    per_eps: tuple = ()
    meta: dict = dc_field(default_factory=dict)


class CoercivityError(RuntimeError):
    pass


def _hermitian_part(G):
    return ((G + G.getH()) * 0.5).tocsr()


def find_lambda(forms, gram_l2s, S_list, lambda_start=-1.0, c4_min=0.05,
                lambda_abort=-1e6, seed=1234, cone_samples=1000):
    """Doubling descent to a shift coercive for every assembled form.

    forms[i] is the full form matrix (base plus perturbation, without the
    shift term); the candidate form is forms[i] - lam * gram_l2s[i].
    Returns the first lam on the doubling path whose Hermitian parts keep
    all smallest S-metric eigenvalues at or above c4_min.  c4 is the lower
    end of an inertia bracket (smallest_eigenvalue), so it lies below the
    true coercivity constant up to the rounding of one banded Cholesky.
    """
    lam = float(lambda_start)
    if lam >= 0:
        raise ValueError("descent starts from a negative shift")
    while lam > lambda_abort:
        c4s = []
        for G, M, S in zip(forms, gram_l2s, S_list):
            H = _hermitian_part(G - lam * M)
            c4s.append(smallest_eigenvalue(H, S))
        c4 = min(c4s)
        if c4 >= c4_min:
            cone = _cone_check(forms[0] - lam * gram_l2s[0], S_list[0],
                               seed, cone_samples, c4)
            return CoercivityReport(
                lambda0=lam,
                c4=c4,
                cone_check=cone,
                per_eps=tuple(c4s),
            )
        lam *= 2.0
    raise CoercivityError(
        f"no coercive shift above {lambda_abort}: the numerical range "
        "cone never cleared the threshold"
    )


def _cone_check(G, S, seed, samples, c4):
    """Numerical-range sector data over random trial vectors."""
    rng = np.random.default_rng(seed)
    dim = G.shape[0]
    worst_tan = 0.0
    min_ratio = math.inf
    for _ in range(samples):
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        gu = complex(np.vdot(u, G @ u))
        su = float(np.real(np.vdot(u, S @ u)))
        re = gu.real
        if re <= 0:
            min_ratio = min(min_ratio, re / su)
            worst_tan = math.inf
            continue
        worst_tan = max(worst_tan, abs(gu.imag) / re)
        min_ratio = min(min_ratio, re / su)
    if min_ratio < c4 * (1 - 1e-8):
        raise NumericalBreach(
            f"sampled coercivity {min_ratio} fell below the certified {c4}"
        )
    return {
        "sector_tangent": worst_tan,
        "sampled_min_ratio": min_ratio,
        "samples": samples,
    }
