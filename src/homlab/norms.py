"""Induced operator norms in discrete Sobolev metrics, and coercivity.

Every norm here is a largest singular value of a map between Hilbert
spaces whose Grams are the H1 matrix S, its inverse (the dual space), or
the mass matrix.  A space is the banded Cholesky factor S = U^H U of its
Gram plus a primal/dual flag: a primal vector x has norm |U x|, a dual
one |U^{-H} x|.  A study row factors its mesh's H1 Gram once and every
norm it takes shares that Space; a Gram's band is the data of its band
form (fem.diagonals).  An operator A from X to Y is then the
plain matrix K = T_Y A T_X^{-1} in these coordinates, and its norm is
found by ARPACK's Lanczos from a seeded start vector in one call, on one
of two operators.  A self-adjoint A from a space to its dual (a Hermitian
form, or the resolvent difference of two) makes K Hermitian, and its norm
is the largest |eigenvalue| of K itself, one application of A a step.
Any other A is measured on K^H K, whose top eigenvalue is the norm
squared, at one application of A and one of its adjoint a step.  ARPACK
checks convergence only once its basis is full, so the basis size is the
cost floor of every norm: 14 applications of the Lanczos operator.  A
norm whose top values cluster, or on K whose ends of opposite sign lie
close in modulus, converges through restarts of the same basis, up to a
fixed cap.  The explicit eigen-residual of the returned Ritz pair is the
error bar; a residual above the requested relative tolerance flags the
value.

The coercivity constant is a smallest pencil eigenvalue, bracketed in one
call: inertia bisection below, and above, to a rounding margin, the Ritz
value of inverse iterates solved with the bisection's last passing factor.
The forms are real, so their pencils are bisected on real bands; a
complex Hermitian pencil is bisected on complex ones.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                 LinearOperator, eigs)

from .errors import CoercivityError, NumericalBreach
from .fem import (adjoint, assemble_perturbation, band_form, diagonals,
                  is_hermitian)
from .fields import gram_field

# Lanczos basis size.  Costs count applications of the Lanczos operator
# (K or K^H K), the explicit residual included.  Of the 135 norms of the
# shipped configs, a basis of 12 settles all 15 on K^H K at the first
# check, in 14 applications, and 57 of the 120 on K; the other 63 restart
# once (20).  Over all 135, a basis of 11 takes 2163 applications against
# 12's 2268, 10 takes 2200 and 16 takes 2446; another size would move the
# last bits of every norm
LANCZOS_NCV = 12
# Restart cap.  Two top values 1e-4 apart converge through restarts in 38
# applications of K^H K or 56 of K, ends +1 and -(1 - 1e-4) of K in 62
# (each application of K costs half one of K^H K).  ARPACK's
# default of 10 * dim grows with the size, so a norm that never converges
# would run that much longer unflagged; 200 bounds it at 12 * 201
# applications
LANCZOS_MAXITER = 200
# residual tolerance of a norm, relative to the eigenvalue of the Lanczos
# operator: the value on K, its square on K^H K
REL_TOL = 1e-8
# find_lambda doubles the shift down to LAMBDA_ABORT until every form's
# certified coercivity constant is at least C4_MIN
C4_MIN, LAMBDA_ABORT = 0.05, -1e6
# LAPACK's banded Cholesky factor and solve, real and complex, by dtype
# character, called straight.  scipy's cholesky_banded and
# cho_solve_banded run the same routines behind validation and batch
# dispatch, which at 159 dof took a factorization from 5.0 to 8.9 us and
# a solve from 3.1 to 9.2 us, on each of a coercivity search's hundreds
_PBTRF, _PBTRS = ({t: sla.get_lapack_funcs(name, dtype=t) for t in "dD"}
                  for name in ("pbtrf", "pbtrs"))


class Space:
    """A discrete Hilbert space in the Cholesky frame S = U^H U of its Gram.

    The primal norm is |U x| and the dual norm |U^{-H} x|.  coords maps a
    vector to the coordinates whose 2-norm is its norm (T x), vector maps
    coordinates back (T^{-1} y); adjoint=True applies their adjoints.
    Space(gram) is the primal space; star() gives the dual.
    """

    def __init__(self, gram):
        # the Gram is real, but the golden digests rest on the bits of
        # complex zpbtrf's factor; a real one moves every norm's last digits
        upper = _upper_band(gram).astype(complex)
        u = upper.shape[0] - 1
        band = _cholesky(upper)
        if band is None:
            raise NumericalBreach("Gram is not positive definite")
        self.dim = gram.shape[0]
        self.dual = False
        self._band = band
        self._u = sp.dia_array((band, np.arange(u, -1, -1)),
                               shape=gram.shape)
        self._uh = self._u.conj().T
        (self._tbtrs,) = sla.get_lapack_funcs(("tbtrs",), (self._band,))

    def star(self):
        """The other space of the same Gram, sharing its factor."""
        other = copy.copy(self)
        other.dual = not self.dual
        return other

    def is_star_of(self, other):
        """Whether this space is other.star(): the same factor, the other
        flag."""
        return self._band is other._band and self.dual != other.dual

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
    flagged: bool


def _power_singular(apply_, apply_adj, dim, seed):
    """Largest singular value of K, by ARPACK on K itself when K is
    Hermitian (apply_adj None), else on K^H K.

    For a Hermitian K it is the largest |mu| over the eigenvalues mu of K,
    which Lanczos on K finds in one application a step ("LM"); otherwise
    it is the square root of the top eigenvalue theta of K^H K ("LR"),
    two applications a step.  Either way it is one eigs call (the call
    eigsh makes for a complex operator) from a seeded start vector v0,
    with a basis of LANCZOS_NCV vectors and at most LANCZOS_MAXITER
    restarts, whose vectors come from a generator seeded with seed, so
    identical calls give identical bits.  ARPACK stops on its own residual
    estimate, so it is asked for REL_TOL / 100 to leave the explicit
    residual room below REL_TOL.

    Returns (value, applications of the Lanczos operator, explicit
    residual of the unit vector v, mode).  The residual is |K v - mu v| on
    K, where some eigenvalue of K lies within it of mu (Krylov-Bogoliubov),
    and |K^H K v - theta v| on K^H K.  mode is "residual" when Lanczos
    converged, "max_iter" when it ran out of restarts (v is then the
    applied vector of largest |Rayleigh quotient|), "zero" when K
    annihilates the start vector.  The name is that of the power
    iteration this replaced; perfbench/probes.py counts applications and
    exit modes through it.
    """
    hermitian = apply_adj is None
    applications = 0
    best = (-math.inf, None, None)

    def lanczos_op(x):
        nonlocal applications, best
        x = np.ravel(x)
        y = apply_(x) if hermitian else apply_adj(apply_(x))
        applications += 1
        quotient = float(np.vdot(x, y).real / np.vdot(x, x).real)
        score = abs(quotient) if hermitian else quotient
        if score > best[0]:
            best = (score, quotient, x.copy())  # ARPACK reuses its buffer
        return y

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if not np.any(apply_(v0)):
        return 0.0, 1, 0.0, "zero"
    mode = "residual"
    if dim <= 2:
        # ARPACK refuses an operator this small
        w, vecs = np.linalg.eigh(np.column_stack(
            [lanczos_op(e) for e in np.eye(dim, dtype=complex)]))
        top = int(np.argmax(np.abs(w))) if hermitian else -1
        theta, v = w[top], vecs[:, top]
    else:
        op = LinearOperator((dim, dim), matvec=lanczos_op, dtype=complex)
        try:
            w, vecs = eigs(op, k=1, which="LM" if hermitian else "LR",
                           v0=v0, ncv=min(dim, LANCZOS_NCV),
                           tol=REL_TOL / 100, maxiter=LANCZOS_MAXITER,
                           rng=np.random.default_rng(seed))
            theta, v = w[0].real, vecs[:, 0]
        except ArpackNoConvergence:
            _, theta, v = best
            v = v / np.linalg.norm(v)
            mode = "max_iter"
        except ArpackError as exc:
            raise NumericalBreach(f"Lanczos failed: {exc}") from exc
    if hermitian:
        mu = float(np.real(theta))
        residual = float(np.linalg.norm(lanczos_op(v) - mu * v))
        return abs(mu), applications, residual, mode
    theta = max(float(np.real(theta)), 0.0)
    residual = float(np.linalg.norm(lanczos_op(v) - theta * v))
    return math.sqrt(theta), applications, residual, mode


def induced_norm(apply_, apply_adj, space_in, space_out, seed):
    """Operator norm from space_in to space_out, with its residual bound.

    apply_adj None declares the operator self-adjoint, which needs
    space_out to be space_in.star(): K is then Hermitian and its norm is
    taken on K itself; otherwise on K^H K (_power_singular).  The report
    is flagged when Lanczos ran out of restarts or the explicit residual
    exceeds REL_TOL times the value on K, or times its square, the
    eigenvalue, on K^H K.

    On K, uncertainty is the residual itself, the Krylov-Bogoliubov
    radius: some eigenvalue of K lies within it of the Ritz value, so
    some singular value lies within it of the value.  On K^H K it is
    residual / (2 value), a first-order estimate of the value's error.
    Neither bounds the norm from above.
    """
    hermitian = apply_adj is None
    if hermitian and not space_out.is_star_of(space_in):
        raise ValueError("a self-adjoint operator maps a space to its dual")

    def k(x):
        return space_out.coords(apply_(space_in.vector(x)))

    def k_adj(y):
        return space_in.vector(apply_adj(space_out.coords(y, adjoint=True)),
                               adjoint=True)

    value, applications, residual, mode = _power_singular(
        k, None if hermitian else k_adj, space_in.dim, seed)
    if hermitian:
        uncertainty, tolerance = residual, REL_TOL * value
    else:
        uncertainty = residual / (2.0 * value) if value > 0 else 0.0
        tolerance = REL_TOL * value * value
    return NormReport(
        value=value,
        method={
            "iterations": applications,
            "residual": residual,
            "seed": seed,
            "converged": mode,
            "uncertainty": uncertainty,
        },
        flagged=mode == "max_iter" or residual > tolerance,
    )


def norm_v_to_vstar(X, h1, seed):
    """Norm of a band form as an operator from H1 to its dual; h1 is the
    Space of the H1 Gram.  A Hermitian form (fem.is_hermitian) is measured
    on the operator itself, any other one with its adjoint X^H.  X and X^H
    are held complex, as the vectors they multiply are, so no product
    casts the form's entries again."""
    hermitian = is_hermitian(X)
    X = X.astype(complex)
    if hermitian:
        return induced_norm(lambda v: X @ v, None, h1, h1.star(), seed=seed)
    XH = adjoint(X)
    return induced_norm(
        lambda v: X @ v, lambda v: XH @ v, h1, h1.star(), seed=seed)


def norm_m10(op, q_field, h1, refine, seed):
    """Discrete product-norm of a weight: sup |Q u|_L2 / |u|_V.

    Uses the mass matrix weighted by Q^2; the norm is the square root of
    the top generalized eigenvalue against the H1 Gram, whose Space is h1.
    """
    weight = gram_field(q_field)
    pert = assemble_perturbation(op.space, weight, refine)
    rep = norm_v_to_vstar(pert.matrix, h1, seed)
    return NormReport(
        value=math.sqrt(max(rep.value, 0.0)),
        method=rep.method,
        flagged=rep.flagged,
    )


def _upper_band(form, u=None):
    """LAPACK upper band storage of a band form: its diagonals at offsets
    u down to 0, u its own half-bandwidth by default."""
    offsets, data = diagonals(form, u)
    return data[offsets >= 0][::-1]


def _cholesky(band):
    """Upper Cholesky factor of a Hermitian band (LAPACK pbtrf), None if
    indefinite.  The band may be overwritten."""
    factor, info = _PBTRF[band.dtype.char](band, overwrite_ab=True)
    if info < 0:
        raise ValueError(f"pbtrf: illegal value in argument {-info}")
    return factor if info == 0 else None


def smallest_eigenvalue(H, S):
    """Witnessed bracket (c, r), c <= lambda_min <= r, of the smallest
    eigenvalue of the pencil (H, S) of band forms, Hermitian H and S > 0.

    H - c S is positive definite exactly when c lies below every
    eigenvalue (Sylvester), and one banded Cholesky decides that.  The
    bracket starts at hi = min Re H_ii / S_ii, a Rayleigh quotient, steps
    down geometrically until the factorization passes and is bisected to
    a relative width of 1e-12.  The lower end c is a shift at which the
    factorization passed, and its factor gives the upper end (_witness).

    The bands keep the pencil's own dtype: the pencils of the assembled
    forms are real and factored by real dpbtrf, and a complex Hermitian
    pencil by zpbtrf.
    """
    u = max(len(H.offsets), len(S.offsets)) // 2  # offsets run -u..u
    band_h = _upper_band(H, u)
    band_s = _upper_band(S, u)
    if not (band_s[u].real > 0).all():
        raise NumericalBreach("S is not positive definite")
    ratio = band_h[u].real / band_s[u].real
    hi = float(ratio.min())
    # the pencil's own scale keeps the stopping width finite near zero
    scale = float(np.abs(ratio).max()) or 1.0

    lo = hi - scale
    lo_factor = _cholesky(band_h - lo * band_s)
    while lo_factor is None:
        lo = hi - 2.0 * (hi - lo)
        if not math.isfinite(lo):
            raise NumericalBreach("no finite shift makes H - c S positive "
                                  "definite: S is not")
        lo_factor = _cholesky(band_h - lo * band_s)
    while hi - lo > 1e-12 * max(abs(lo), scale):
        mid = 0.5 * (lo + hi)
        mid_factor = _cholesky(band_h - mid * band_s)
        if mid_factor is None:
            hi = mid
        else:
            lo, lo_factor = mid, mid_factor
    return lo, _witness(H, S, lo, lo_factor)


def _witness(H, S, c, band):
    """Rayleigh quotient r >= lambda_min(H, S) of the lowest Ritz vector of
    three inverse iterates at c from ones, solved with the upper banded
    Cholesky factor of H - c S.  Their span keeps lambda_min's vector even
    when a factorization passed by rounding above lambda_min, nearer
    lambda_2.  Raises NumericalBreach if
    r < c - u (|x|^T |H| |x| + |r| |x|^T |S| |x|) / x^H S x (Higham 3.1)."""
    basis = [np.ones(H.shape[0], dtype=band.dtype)]
    for _ in range(3):
        x, info = _PBTRS[band.dtype.char](
            band, basis[-1] / np.linalg.norm(basis[-1]))
        if info:
            raise ValueError(f"pbtrs: illegal value in argument {-info}")
        basis.append(x)
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

    c4 = min(per_eps), each the lower end c of its form's witnessed
    bracket c <= lambda_min <= r from smallest_eigenvalue.
    """

    lambda0: float
    c4: float
    per_eps: tuple


def _hermitian_part(G):
    """(G + G^H) / 2 of a band form, as a band form."""
    return band_form((G.data + adjoint(G).data) * 0.5)


def is_coercive(G):
    """Whether G's Hermitian part is positive definite (c > 0, Sylvester),
    decided by one banded Cholesky in G's own dtype, real for the
    assembled forms."""
    return _cholesky(_upper_band(_hermitian_part(G))) is not None


def find_lambda(pencils, lambda_start=-1.0):
    """Doubling descent to a shift coercive for every assembled form.

    pencils(lam) lists the pencils (H, S) of the forms at shift lam: H the
    Hermitian part of a shifted form, S its H1 Gram.  Returns the first
    lam on the doubling path whose pencils all keep their smallest
    eigenvalue at or above C4_MIN.  Each pencil at each shift tried takes
    one smallest_eigenvalue call, whose bracket c <= lambda_min <= r is
    witnessed inside it: an r below c by more than its rounding margin
    raises NumericalBreach.
    """
    lam = float(lambda_start)
    if lam >= 0:
        raise ValueError("descent starts from a negative shift")
    while lam > LAMBDA_ABORT:
        c4s = tuple(smallest_eigenvalue(H, S)[0] for H, S in pencils(lam))
        if min(c4s) >= C4_MIN:
            return CoercivityReport(lambda0=lam, c4=min(c4s), per_eps=c4s)
        lam *= 2.0
    raise CoercivityError(
        f"no shift on the doubling path above lambda_abort = {LAMBDA_ABORT} "
        f"kept every form's certified c at or above c4_min = {C4_MIN}"
    )
