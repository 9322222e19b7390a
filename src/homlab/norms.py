"""Induced operator norms in discrete Sobolev metrics, and coercivity.

Every norm here is a largest singular value of a map between Hilbert
spaces whose Grams are the H1 matrix S, its inverse (the dual space), or
the mass matrix.  A space is the banded Cholesky factor S = U^H U of its
Gram plus a primal/dual flag: a primal vector x has norm |U x|, a dual
one |U^{-H} x|.  An operator A from X to Y is then the plain matrix
K = T_Y A T_X^{-1} in these coordinates, and its norm is the square root
of the top eigenvalue of K^H K, which ARPACK's Lanczos finds from a
seeded start vector in one call.  ARPACK checks convergence only once
its basis is full, so the basis size is the cost floor of every norm; the
basis used settles every shipped norm at that first check (14
applications of K^H K), and a norm whose top values cluster converges
through restarts of the same basis, up to a fixed cap.  The explicit
eigen-residual of the returned Ritz pair is the error bar; a residual
above the requested relative tolerance flags the value.

The coercivity constant is a smallest pencil eigenvalue, bracketed by
inertia bisection below and, to a rounding margin, inverse iteration above.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                 LinearOperator, eigs, splu)

from .errors import CoercivityError, NumericalBreach
from .fem import assemble_perturbation
from .fields import gram_field

# Lanczos basis size.  Of the 121 norms of the shipped configs, a basis of
# 12 settles every one at its first check, in 14 applications of K^H K
# with the explicit residual.  Smaller bases need a restart on some: a
# basis of 11 on 18 norms (19 applications), 10 on 48 (17) and 8 on 67
# (up to 18)
LANCZOS_NCV = 12
# Restart cap.  No shipped norm restarts; two top values 1e-4 apart
# converge through restarts in 38 applications.  ARPACK's default of
# 10 * dim grows with the size, so a norm that never converges would run
# that much longer unflagged; 200 bounds it at 12 * 201 applications
LANCZOS_MAXITER = 200


class Space:
    """A discrete Hilbert space in the Cholesky frame S = U^H U of its Gram.

    The primal norm is |U x| and the dual norm |U^{-H} x|.  coords maps a
    vector to the coordinates whose 2-norm is its norm (T x), vector maps
    coordinates back (T^{-1} y); adjoint=True applies their adjoints.
    """

    def __init__(self, gram, dual=False):
        u = _half_bandwidth(gram)
        try:
            band = sla.cholesky_banded(_upper_band(gram, u),
                                       check_finite=False)
        except sla.LinAlgError as exc:
            raise NumericalBreach(f"Gram is not positive definite: {exc}") \
                from exc
        self.dim = gram.shape[0]
        self.dual = dual
        self._band = band.astype(complex)
        self._u = sp.dia_array((band, np.arange(u, -1, -1)),
                               shape=gram.shape)
        self._uh = self._u.conj().T
        (self._tbtrs,) = sla.get_lapack_funcs(("tbtrs",), (self._band,))

    def star(self):
        """The other space of the same Gram, sharing its factor."""
        other = copy.copy(self)
        other.dual = not self.dual
        return other

    def _mul(self, x, adjoint):
        return (self._uh if adjoint else self._u) @ x

    def _solve(self, x, adjoint):
        y, info = self._tbtrs(self._band, x, uplo="U",
                              trans="C" if adjoint else "N")
        if info:
            raise NumericalBreach(f"triangular solve failed (info {info})")
        return y

    def coords(self, x, adjoint=False):
        if self.dual:
            return self._solve(x, not adjoint)
        return self._mul(x, adjoint)

    def vector(self, y, adjoint=False):
        if self.dual:
            return self._mul(y, not adjoint)
        return self._solve(y, adjoint)


@dataclass(frozen=True)
class NormReport:
    """Computed operator norm with iteration metadata."""

    value: float
    method: dict
    flagged: bool = False


def _power_singular(apply_, apply_adj, dim, seed, rel_tol):
    """Largest singular value of K, from the top eigenpair of K^H K.

    ARPACK Lanczos (eigs on the Hermitian K^H K, the call eigsh makes for
    a complex operator) from a seeded start vector v0, with a basis of
    LANCZOS_NCV vectors and at most LANCZOS_MAXITER restarts, whose
    vectors come from a generator seeded with seed, so identical calls
    give identical bits.  ARPACK stops on its own residual estimate, so it
    is asked for rel_tol / 100 to leave the explicit residual room below
    rel_tol.

    Returns (value, applications of K^H K, explicit residual
    |K^H K v - theta v| of the unit vector v, mode): "residual" when
    Lanczos converged, "max_iter" when it ran out of restarts (v is then
    the applied vector of largest Rayleigh quotient), "zero" when K
    annihilates the start vector.  The name is that of the power
    iteration this replaced; perfbench/probes.py counts applications and
    exit modes through it.
    """
    applications = 0
    best = (-math.inf, None)

    def gram(x):
        nonlocal applications, best
        x = np.ravel(x)
        y = apply_adj(apply_(x))
        applications += 1
        quotient = float(np.vdot(x, y).real / np.vdot(x, x).real)
        if quotient > best[0]:
            best = (quotient, x.copy())  # ARPACK reuses its buffer
        return y

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if not np.any(apply_(v0)):
        return 0.0, 1, 0.0, "zero"
    mode = "residual"
    if dim <= 2:
        # ARPACK refuses an operator this small
        w, vecs = np.linalg.eigh(
            np.column_stack([gram(e) for e in np.eye(dim, dtype=complex)]))
        theta, v = w[-1], vecs[:, -1]
    else:
        op = LinearOperator((dim, dim), matvec=gram, dtype=complex)
        try:
            w, vecs = eigs(op, k=1, which="LR", v0=v0,
                           ncv=min(dim, LANCZOS_NCV), tol=rel_tol / 100,
                           maxiter=LANCZOS_MAXITER,
                           rng=np.random.default_rng(seed))
            theta, v = w[0].real, vecs[:, 0]
        except ArpackNoConvergence:
            theta, v = best
            v = v / np.linalg.norm(v)
            mode = "max_iter"
        except ArpackError as exc:
            raise NumericalBreach(f"Lanczos failed: {exc}") from exc
    theta = max(float(np.real(theta)), 0.0)
    residual = float(np.linalg.norm(gram(v) - theta * v))
    return math.sqrt(theta), applications, residual, mode


def induced_norm(apply_, apply_adj, space_in, space_out, seed=1234,
                 rel_tol=1e-8):
    """Operator norm from space_in to space_out, with its residual bound.

    The report is flagged when Lanczos ran out of restarts or the
    explicit residual exceeds rel_tol times the eigenvalue of K^H K.
    """

    def k(x):
        return space_out.coords(apply_(space_in.vector(x)))

    def k_adj(y):
        return space_in.vector(apply_adj(space_out.coords(y, adjoint=True)),
                               adjoint=True)

    value, applications, residual, mode = _power_singular(
        k, k_adj, space_in.dim, seed, rel_tol)
    return NormReport(
        value=value,
        method={
            "iterations": applications,
            "residual": residual,
            "seed": seed,
            "converged": mode,
            "uncertainty": residual / (2.0 * value) if value > 0 else 0.0,
        },
        flagged=mode == "max_iter" or residual > rel_tol * value * value,
    )


def norm_v_to_vstar(X, S, seed=1234):
    """Norm of a form matrix as an operator from H1 to its dual."""
    X = X.tocsr()
    XH = X.getH().tocsr()
    h1 = Space(S)
    return induced_norm(
        lambda v: X @ v, lambda v: XH @ v, h1, h1.star(), seed=seed)


def norm_m1m1(op, v_field, refine=1, seed=1234):
    """Discrete form-norm of a potential: sup |(V u, v)| / |u|_V |v|_V."""
    pert = assemble_perturbation(op.space, v=v_field, refine=refine)
    return norm_v_to_vstar(pert.matrix, op.gram_h1, seed)


def norm_m10(op, q_field, refine=1, seed=1234):
    """Discrete product-norm of a weight: sup |Q u|_L2 / |u|_V.

    Uses the mass matrix weighted by |Q|^2; the norm is the square root of
    the top generalized eigenvalue against the H1 Gram.
    """
    weight = gram_field(q_field)
    pert = assemble_perturbation(op.space, v=weight, refine=refine)
    rep = norm_v_to_vstar(pert.matrix, op.gram_h1, seed)
    return NormReport(
        value=math.sqrt(max(rep.value, 0.0)),
        method=rep.method,
        flagged=rep.flagged,
    )


def _half_bandwidth(*mats):
    """Largest column-minus-row offset of any stored entry."""
    pattern = sp.triu(sum(abs(m) for m in mats), format="coo")
    return int(np.max(pattern.col - pattern.row, initial=0))


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
    u = _half_bandwidth(H, S)
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


def _witness(H, S, c):
    """Rayleigh quotient r >= lambda_min(H, S) of the lowest Ritz vector of
    three inverse iterates at c from ones, whose span keeps lambda_min's
    vector when c overshoots nearer lambda_2; raises if r < c - margin."""
    solve = splu((H - c * S).tocsc()).solve
    basis = [np.ones(H.shape[0], dtype=H.dtype)]
    for _ in range(3):
        basis.append(solve(basis[-1] / np.linalg.norm(basis[-1])))
    q = np.linalg.qr(np.column_stack(basis))[0]
    x = q @ sla.eigh(q.conj().T @ (H @ q), q.conj().T @ (S @ q))[1][:, 0]
    xsx = np.vdot(x, S @ x).real
    r = float(np.vdot(x, H @ x).real / xsx)
    ax = np.abs(x)
    margin = np.finfo(float).eps / 2 * (
        ax @ (abs(H) @ ax) + abs(r) * (ax @ (abs(S) @ ax))) / xsx
    if not r >= c - margin:
        raise NumericalBreach(f"witness {r} fell below the certified {c}")
    return r


@dataclass(frozen=True)
class CoercivityReport:
    """Shift making the whole schedule coercive in the H1 metric.

    c4 = min(per_eps), each the lower end c of its form's bracket c <=
    lambda_min <= r; find_lambda checks r against c and its margin.
    """

    lambda0: float
    c4: float
    per_eps: tuple = ()


def _hermitian_part(G):
    return ((G + G.getH()) * 0.5).tocsr()


def find_lambda(forms, gram_l2s, S_list, lambda_start=-1.0, c4_min=0.05,
                lambda_abort=-1e6):
    """Doubling descent to a shift coercive for every assembled form.

    forms[i] is the full form matrix (base plus perturbation, without the
    shift term); the candidate form is forms[i] - lam * gram_l2s[i].
    Returns the first lam on the doubling path whose Hermitian parts keep
    all smallest S-metric eigenvalues at or above c4_min.  Each form's
    bracket is c (smallest_eigenvalue) <= lambda_min <= r (_witness at lam);
    r < c - u (|x|^T|H||x| + |r| |x|^T|S||x|) / x^H S x (Higham 3.1) raises.
    """
    lam = float(lambda_start)
    if lam >= 0:
        raise ValueError("descent starts from a negative shift")
    while lam > lambda_abort:
        hs = [_hermitian_part(G - lam * M) for G, M in zip(forms, gram_l2s)]
        c4s = tuple(map(smallest_eigenvalue, hs, S_list))
        if min(c4s) >= c4_min:
            for H, S, c in zip(hs, S_list, c4s):
                _witness(H, S, c)
            return CoercivityReport(lambda0=lam, c4=min(c4s), per_eps=c4s)
        lam *= 2.0
    raise CoercivityError(
        f"no coercive shift above {lambda_abort}: the numerical range "
        "cone never cleared the threshold"
    )
