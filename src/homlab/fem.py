"""P1 finite elements on uniform 1D meshes for scalar sesquilinear forms.

The base operator is -u'' with Dirichlet conditions, acting on complex
functions; its form (u', v') is the stiffness matrix.
Perturbations add the lower-order forms

    (Q u', v) - (P u, v') + (V u, v)

with real coefficients, so every matrix is real.  Each is built on the
interior nodes, the Dirichlet dofs, as three diagonals summed from the
per-element 2x2 blocks; the boundary nodes never enter, and each term of
a form integrates only the element moments its blocks read.

Every form is a band form (band_form): a SciPy dia_array at its own
half-bandwidth u, with its diagonals at offsets -u..u in increasing
order, so its data array is the band.  Sums, shifts and adjoints are
NumPy arithmetic on it, and the solver's LU and residual and every
Cholesky band read it (diagonals).  Its products sum each row in column
order, as a CSR product does.

Oscillating coefficients are integrated per element with the
composite Gauss rule from the lattice module.  Direct solves go through
LAPACK's banded LU with partial pivoting (zgbtrf, zgbtrs), held in band
storage at the form's own half-bandwidth, with compensated-residual
iterative refinement, so forward errors sit near machine precision even
on fine meshes.  The solver takes the real forms; loads may be complex.
A refined solve takes a column block of loads (n, k); each column gets
the same bits as a solve of a block holding that column alone, and only
the columns that the second refinement pass moves get a third residual.
The refined solve that keeps the sub-ulp correction also checks each
column's residual contract.

The compensated residual b - A x is the Dot2 dot product of Ogita, Rump
and Oishi, built from error-free transformations: TwoProduct with
Dekker-split factors (the matrix diagonals are split once per
factorization, the iterate once per residual) turns each band's product
into p + e exactly; p is summed with Knuth's TwoSum, and TwoSum's
rounding errors and the products' errors e are summed plainly in a
correction.  Each float of the result is within u |r| + gamma_m^2 (|b| +
sum |d| |x|) of the exact residual r of its row, u the unit roundoff,
gamma_m = m u / (1 - m u) and m = 2 M + 1 for a row of M bands.  It
reads a complex block as the real array of its (re, im) float pairs,
whatever the block's width, and the split diagonals hold each entry
twice to match.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .errors import NumericalBreach
from .fields import Box, constant_field
from .lattice import _panel_rule, default_refine

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant
SOLVE_RTOL = 1e-10  # residual contract of solve_pair, relative to the load


def _split(a):
    """(a, high, low) with a == high + low, each half of 26 bits or less."""
    ca = _SPLIT * a
    ah = ca - (ca - a)
    return a, ah, a - ah


def _two_prod(a, b):
    """Elementwise a * b as an exact (product, rounding error) pair.

    a and b come pre-split, as returned by _split.  The error term is
    ((ah bh - p) + ah bl + al bh) + al bl, summed in place.
    """
    a, ah, al = a
    b, bh, bl = b
    p = a * b
    e = ah * bh
    e -= p
    t = ah * bl
    e += t
    np.multiply(al, bh, out=t)
    e += t
    np.multiply(al, bl, out=t)
    e += t
    return p, e


class _Compensated:
    """Running sum of a real array less exact products p + e, in Dot2 form
    (Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci.
    Comput. 26(6), 2005): each product p goes through Knuth's TwoSum, and
    TwoSum's exact rounding error and the product's own error e are summed
    apart in a correction that is added back at the end.

    The error terms are exact, so the sum and its correction come out the
    same whichever exact method finds them.
    """

    def __init__(self, init):
        self.s = np.array(init, dtype=float)
        self.c = np.zeros_like(self.s)

    def sub(self, p, e, lo, hi):
        """Subtract p + e from the entries lo:hi of the last axis.

        TwoSum of s and -p: the new sum is s - p and its exact rounding
        error (s - (tot - bv)) + (-p - bv), with bv = tot - s; that error
        and -e go to the correction.
        """
        s = self.s[..., lo:hi]
        c = self.c[..., lo:hi]
        tot = s - p
        bv = tot - s
        err = tot - bv
        np.subtract(s, err, out=err)
        np.add(p, bv, out=bv)
        err -= bv
        c += err
        c -= e
        s[...] = tot

    def value(self):
        return self.s + self.c


def band_form(data):
    """The square dia_array of a band data (2u + 1, n): data[k, j] =
    A[j - k + u, j], the diagonals at offsets -u..u, zero outside A.

    Outer pairs of diagonals with no nonzero entry are dropped, so a form
    keeps its own half-bandwidth.  data is taken over, and each zero in it
    becomes +0.0: no arithmetic on bands leaves a signed zero behind.
    """
    data += 0.0
    u = (data.shape[0] - 1) // 2
    own = int(np.abs(np.flatnonzero(data.any(axis=1)) - u).max(initial=0))
    return sp.dia_array((data[u - own:u + own + 1], np.arange(-own, own + 1)),
                        shape=(data.shape[1],) * 2)


def diagonals(form, u=None):
    """(offsets, data): the band of a band form at the offsets -u..u
    (column minus row).  u defaults to the form's own half-bandwidth, and
    data is then the form's own array; a larger u pads it with zero
    diagonals, a smaller one raises ValueError.  Rows u..2u, reversed, are
    LAPACK's upper band storage.
    """
    data = form.data
    own = (data.shape[0] - 1) // 2
    if (form.format != "dia" or data.shape[1] != form.shape[1]
            or not np.array_equal(form.offsets, np.arange(-own, own + 1))):
        raise TypeError("not a band form: a dia_array at offsets -u..u")
    if u is None or u == own:
        return form.offsets, data
    if u < own:
        raise ValueError(f"a diagonal lies at offset {own}, outside "
                         f"half-bandwidth {u}")
    return np.arange(-u, u + 1), np.pad(data, ((u - own, u - own), (0, 0)))


def aligned_bands(*forms):
    """The bands of band forms at the largest of their half-bandwidths."""
    u = max(len(form.offsets) for form in forms) // 2
    return [diagonals(form, u)[1] for form in forms]


def adjoint(form):
    """A^H of a band form, as a band form.  Its diagonal at offset k is the
    conjugate of A's at -k moved k columns, round which the zeros outside
    A wrap, so its offsets increase too (a dia_array's .T reverses them,
    which reorders a product's sums)."""
    data, u = form.data, len(form.offsets) // 2
    return band_form(np.conjugate(
        [np.roll(data[u - k], k) for k in range(-u, u + 1)]))


def is_hermitian(form):
    """Whether a band form equals its adjoint entry for entry, exactly:
    the property that lets a norm of it, or of its inverse, be taken on
    the operator itself (norms.induced_norm with no adjoint)."""
    return np.array_equal(form.data, adjoint(form).data)


def column_norms(a):
    """2-norm of each column of a 2D array, as Python floats.

    Columns are made contiguous first, so each norm reads the same bits
    as np.linalg.norm of that column held as a vector of its own.
    """
    a = np.asfortranarray(a)
    return [float(np.linalg.norm(a[:, j])) for j in range(a.shape[1])]


@dataclass(frozen=True)
class Mesh1D:
    a: float
    b: float
    n_elements: int

    def __post_init__(self):
        if self.b <= self.a:
            raise ValueError("empty interval")
        if self.n_elements < 2:
            raise ValueError("mesh needs at least 2 elements")

    @property
    def h(self):
        return (self.b - self.a) / self.n_elements


def build_mesh(domain: Box, n_elements: int) -> Mesh1D:
    if domain.dim != 1:
        raise ValueError("finite elements implemented for 1D domains")
    return Mesh1D(domain.lower[0], domain.upper[0], int(n_elements))


# ncomp is unused; perfbench/oracle.py passes it (ROADMAP item 7a)
def mesh_rule(finest_scale, ncomp, min_elements, cap_dof):
    """(n_elements, capped): ceil(16 / finest_scale) elements, at least
    min_elements and at most cap_dof (one dof a node); capped says the
    cap cut the mesh.  The count ignores the domain's length l: h is
    about l finest_scale / 16, so a finest scale spans about 16 / l
    elements, 16 only on a unit domain."""
    n = int(np.ceil(16.0 / max(finest_scale, 1e-12)))
    n = max(n, min_elements)
    cap = max(cap_dof, min_elements)
    capped = n > cap
    return min(n, cap), capped


@dataclass(frozen=True)
class OperatorSpec:
    """The base operator -u'' with Dirichlet conditions on a 1D domain;
    perturbations enter only through assemble_perturbation."""

    domain: Box

    def __post_init__(self):
        if self.domain.dim != 1:
            raise ValueError("operator specs are 1D here")


@dataclass(frozen=True)
class FeSpace:
    """P1 element space with Dirichlet conditions at both ends: the dofs
    are the interior nodes.  It holds only the mesh, and stays because
    perfbench/ passes op.space (ROADMAP item 7a)."""

    mesh: Mesh1D


def _element_moments(field_, mesh, refine, keys):
    """Weighted element integrals of a field against P1 shape products.

    keys names the moments to take, from '1', 'L', 'R', 'LL', 'LR' and
    'RR' (the shape factors 1, 1 - t, t and their products); a form term
    reads only its own (see _TERM_MOMENTS).  Returns a dict mapping each
    key to a real array (n_elements,): the integral of field * (shape
    factors) over each element.
    """
    refine = int(max(1, refine))
    t, w = _panel_rule(refine)
    h = mesh.h
    starts = mesh.a + h * np.arange(mesh.n_elements)
    # the one coordinate of every element's rule points, (n_elements, q)
    vals = field_((starts[:, None] + h * t[None, :],))
    weights = {
        "1": w,
        "L": w * (1.0 - t),
        "R": w * t,
        "LL": w * (1.0 - t) ** 2,
        "LR": w * t * (1.0 - t),
        "RR": w * t ** 2,
    }
    return {k: h * np.einsum("q,eq->e", weights[k], vals) for k in keys}


# the element moments each term of the form reads
_TERM_MOMENTS = {
    "stiffness": ("1",),
    "plus": ("L", "R"),
    "minus": ("L", "R"),
    "mass": ("LL", "LR", "RR"),
}


def _form_diagonals(mesh, coef, term, refine):
    """(sub, main, sup): the three diagonals on the interior nodes of one
    term of the form with one coefficient A: "stiffness" (A u', v'),
    "plus" (A u', v), "minus" -(A u, v') or "mass" (A u, v).  sub[i] is
    the entry (i + 1, i), main[i] the entry (i, i), sup[i] the entry
    (i, i + 1).

    block(a, b) is the (n_elements,) contribution of each element to
    local test node a and trial node b in {0, 1}.  Interior node i sits
    at local node 1 of element i - 1 and local node 0 of element i, so
    its diagonal entry is the sum of those two contributions and each
    off-diagonal entry is one contribution.
    """
    h = mesh.h
    d = (-1.0 / h, 1.0 / h)
    m = _element_moments(coef, mesh, refine, _TERM_MOMENTS[term])
    side = ("L", "R")
    pair = (("LL", "LR"), ("LR", "RR"))
    block = {
        "stiffness": lambda a, b: d[a] * d[b] * m["1"],
        "plus": lambda a, b: d[b] * m[side[a]],
        "minus": lambda a, b: -d[a] * m[side[b]],
        "mass": lambda a, b: m[pair[a][b]],
    }[term]
    main = block(0, 0)[1:] + block(1, 1)[:-1]
    return block(1, 0)[1:-1], main, block(0, 1)[1:-1]


def _tridiagonal(sub, main, sup):
    """Band of three diagonals laid out as _form_diagonals returns them."""
    data = np.zeros((3, main.size))
    data[0, :-1], data[1], data[2, 1:] = sub, main, sup
    return data


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled base form with its Gram matrices and dof bookkeeping."""

    space: FeSpace
    base_form: sp.dia_array
    gram_h1: sp.dia_array
    gram_l2: sp.dia_array

    @property
    def dof(self):
        return self.base_form.shape[0]


# spec is unused; perfbench/oracle.py passes it (ROADMAP item 7a)
def assemble_base(spec: OperatorSpec, mesh: Mesh1D) -> DiscreteOperator:
    """Assemble the base form and both Gram matrices on one mesh.

    The base form is the stiffness matrix; the H1 Gram is stiffness plus
    mass.  Hermiticity of both Grams is a construction guarantee, checked
    here once per assembly on the three diagonals they are built from.
    """
    space = FeSpace(mesh)
    one = constant_field(1, 1.0)
    stiff = _form_diagonals(mesh, one, "stiffness", 1)
    mass = _form_diagonals(mesh, one, "mass", 1)
    gram = tuple(s + m for s, m in zip(stiff, mass))
    for lower, diag, upper in (gram, mass):
        # max |g - g^H| over the pairs (j + 1, j), (j, j + 1)
        asym = np.abs(lower - upper).max(initial=0.0)
        scale = max(np.abs(lower).max(initial=0.0), np.abs(diag).max(),
                    np.abs(upper).max(initial=0.0), 1e-300)
        if asym > 1e-12 * scale:
            raise NumericalBreach("Gram matrix lost hermiticity")
    return DiscreteOperator(
        space=space,
        base_form=band_form(_tridiagonal(*stiff)),
        gram_h1=band_form(_tridiagonal(*gram)),
        gram_l2=band_form(_tridiagonal(*mass)),
    )


@dataclass(frozen=True)
class PerturbationMatrix:
    """Assembled first-order-plus-potential perturbation form."""

    matrix: sp.dia_array


def assemble_perturbation(space: FeSpace, v, refine, q=(),
                          p=()) -> PerturbationMatrix:
    """Matrix of (Q u', v) - (P u, v') + (V u, v) on the interior nodes.

    The sign convention places the derivative on the trial function for Q
    and on the test function for P, with a minus sign on the P term, so a
    triple with Q = -P and V = Q' assembles to the zero form.  The matrix
    is real (see _element_moments); the terms' bands are summed in order,
    from the first term's.
    """
    mesh = space.mesh
    terms = ([(qf, "plus") for qf in q] + [(pf, "minus") for pf in p]
             + [(v, "mass")])
    bands = (_tridiagonal(*_form_diagonals(mesh, field_, term, refine))
             for field_, term in terms)
    total = next(bands)
    for band in bands:
        total = total + band
    return PerturbationMatrix(band_form(total))


def assemble_triple(space, triple, refine):
    """Perturbation matrix of a family field triple."""
    return assemble_perturbation(space, triple.v, refine, q=triple.q,
                                 p=triple.p)


def perturbation_refine(space, finest_scale):
    """Per-element quadrature refine resolving the coefficient scale."""
    return default_refine(space.mesh.h, finest_scale)


def discretize(spec, family, eps, min_elements, cap_dof):
    """(op, mesh): the base operator for one epsilon of a family on the
    mesh mesh_rule picks for its finest scale, and that mesh's
    n_elements, capped, perturbation refine and finest_scale."""
    finest = family.finest_scale(eps)
    n, capped = mesh_rule(finest, ncomp=family.ncomp,
                          min_elements=min_elements, cap_dof=cap_dof)
    op = assemble_base(spec, build_mesh(spec.domain, n))
    return op, {"n_elements": n, "capped": capped,
                "refine": perturbation_refine(op.space, finest),
                "finest_scale": finest}


class LinearSolver:
    """Banded LU of a real form with compensated-residual iterative
    refinement.

    The form must be real, as assembled forms are: a complex one raises
    NumericalBreach.  Loads and solutions are complex.  The form is
    factored once, with LAPACK's complex banded LU with partial pivoting
    (zgbtrf) at its own half-bandwidth u: the band storage holds 3u + 1
    rows of n entries, u of them for the fill-in of row interchanges, and
    the pivots.  Every solve is zgbtrs on that storage, whatever u is.  A
    zero pivot raises NumericalBreach.

    Residuals are evaluated from the matrix diagonals in Dot2 form (see
    residual), so each refinement pass gains the LU's relative accuracy
    until the solution is accurate to working precision, and the reported
    residual is the true one.  The form is a band form, and its diagonals
    are read once, here: they fill the band storage, and those holding a
    nonzero entry are split into Dekker halves, each entry repeated for
    the (re, im) pairs of the complex loads; the row sums of their
    magnitudes give matrix_norm, |A|_inf.

    The refined solves take a block of loads (n, k) and solve A x = b.  A
    block is held column-contiguous and every column gets two refinement
    passes.  The second pass's residual and correction are also what a
    third residual and its LU solve would give for a column the pass left
    unchanged, so only the columns it moved get those two steps again, at
    their own width; each column still gets the bits of its own solve.  On
    the shipped resolvent configs the first pass reaches working precision
    and the second moves no bit; it is the margin for a worse-conditioned
    form, and solve_pair's residual contract catches a solve left short.
    The solver keeps no state between calls: solve returns the final
    residual block and the sub-ulp correction with the solution, and
    solve_pair returns the solution and its correction once every column's
    residual has passed the contract.
    """

    def __init__(self, matrix):
        # the compensated residual is exact only for a real A
        if np.iscomplexobj(matrix):
            raise NumericalBreach("the solver takes a real form; a complex "
                                  "one may hold a nonzero imaginary entry")
        n = matrix.shape[0]
        offsets, data = diagonals(matrix)
        u = int(offsets[-1])
        # LAPACK band storage: A[i, j] sits in row 2u + i - j of column j,
        # that is the diagonal at offset j - i in row 2u - offset; the top
        # u rows take the fill-in of the row interchanges
        ab = np.zeros((3 * u + 1, n), dtype=complex, order="F")
        ab[u:] = data[::-1]
        self._lu, self._piv, info = zgbtrf(ab, u, u, overwrite_ab=True)
        if info > 0:
            raise NumericalBreach(f"singular factorization: pivot {info} "
                                  f"of {n} is zero")
        if info < 0:
            raise NumericalBreach(f"zgbtrf rejected its argument {-info}")
        self._u = u
        # per diagonal holding a nonzero entry: its column range, offset
        # and split entries, in increasing offset; each entry is stored
        # twice, once for the real and once for the imaginary part of the
        # (re, im) pairs residual multiplies it with
        self._bands = []
        # |A| summed along each row in increasing column, as a product
        # with a vector of ones sums it
        rows = np.zeros(n)
        for off, d in zip(offsets.tolist(), data):
            if not d.any():
                continue
            j0, j1 = max(0, off), min(n, n + off)
            self._bands.append((j0, j1, off,
                                _split(np.repeat(d[j0:j1], 2))))
            rows[j0 - off:j1 - off] += np.abs(d[j0:j1])
        self.shape = matrix.shape
        self.matrix_norm = float(rows.max())

    def _lu_solve(self, rhs, adjoint=False):
        """A^-1 rhs, or A^-H rhs, from the banded LU, for a load vector
        (n,) or block (n, k); the result is a new array.  A is real, so
        A^-H is A^-T, the transposed solve, which skips the conjugations
        of the factor that the conjugate-transposed one makes."""
        x, info = zgbtrs(self._lu, self._u, self._u, rhs, self._piv,
                         trans=1 if adjoint else 0)
        if info:
            raise NumericalBreach(f"zgbtrs rejected its argument {-info}")
        return x

    def residual(self, rhs, x):
        """rhs - A x, accurate as if summed in twice the working precision
        and rounded once.

        Dot2 form: each band's product d x is split exactly into p + e
        (TwoProduct); p is subtracted from the sum by TwoSum, whose exact
        rounding error joins -e in a correction, and the correction is
        added to the sum at the end.  For a row of M bands, m = 2 M + 1
        terms, each float is within u |r| + gamma_m^2 (|b| + sum |d| |x|)
        of the exact residual r.

        x and rhs have shape (n, k); each column is independent.  The
        matrix is real, so each column is read as its n (re, im) pairs of
        floats: a block is a (k, 2n) real view of its column-contiguous
        copy, and a diagonal's columns j0:j1 are its floats 2 j0:2 j1,
        met there by the band's entries stored twice.  One operation then
        serves every accumulator along contiguous rows, and each float
        sees the same sequence of roundings as in a lone column's real or
        imaginary part.  The sum holds no -0.0, as its error part starts at
        +0.0 and a rounded sum is -0.0 only when both terms are, so the
        complex view of its pairs has the bits the pairs' complex sum
        re + 1j im would have.
        """
        xs = _split(np.asfortranarray(x).T.view(float))
        acc = _Compensated(np.asfortranarray(rhs).T.view(float))
        for j0, j1, off, d in self._bands:
            o0, o1 = j0 - off, j1 - off
            p, e = _two_prod(d, tuple(a[..., 2 * j0:2 * j1] for a in xs))
            acc.sub(p, e, 2 * o0, 2 * o1)
        return acc.value().view(complex).T

    def solve(self, rhs):
        """Refined solve of a load block (n, k).

        Returns (x, residual, x_lo), each (n, k): the solution after two
        refinement passes, its compensated residual, and the LU solve of
        that residual, the correction living below the solution's last
        bit.  A column that the second pass leaves bit for bit unchanged
        keeps the pass's own residual and correction; bits, not values,
        are compared, so a zero that changes sign counts as moved.
        """
        b = np.asfortranarray(rhs, dtype=complex)
        x = self._lu_solve(b)
        if not np.all(np.isfinite(x)):
            raise NumericalBreach("factorization produced non-finite solution")
        x += self._lu_solve(self.residual(b, x))
        r = self.residual(b, x)
        x_lo = self._lu_solve(r)
        last, x = x, x + x_lo
        moved = np.flatnonzero(
            (x.T.view(np.uint64) != last.T.view(np.uint64)).any(axis=1))
        if moved.size:
            r[:, moved] = self.residual(b[:, moved], x[:, moved])
            x_lo[:, moved] = self._lu_solve(r[:, moved])
        return x, r, x_lo

    def solve_pair(self, rhs):
        """Refined solve plus the correction living below its last bit,
        checked against the residual contract.

        Callers that difference two nearby solutions add the corrections
        back in, which keeps the trailing digits of the difference that
        would otherwise drown in the iterates' own rounding.  Returns
        (x, x_lo).  Column j's residual must be at most SOLVE_RTOL |b_j|,
        or 32 u (|A|_inf |x_j| + |b_j|), the roundoff of A x that no
        solution stored in doubles gets below; one above both raises.
        """
        x, r, x_lo = self.solve(rhs)
        res, nb, nx = (np.linalg.norm(a, axis=0) for a in (r, rhs, x))
        floor = 32.0 * np.finfo(float).eps * (self.matrix_norm * nx + nb)
        bad = np.flatnonzero(~(res <= np.maximum(SOLVE_RTOL * nb, floor)))
        if bad.size:
            j = bad[0]
            raise NumericalBreach(
                f"linear solve residual {res[j]:.3e} above {SOLVE_RTOL:.0e} "
                f"of |rhs| = {nb[j]:.3e} (column {j})")
        return x, x_lo

    def quick(self, rhs, adjoint=False):
        """Single unrefined LU solve, for the operators whose norms are
        measured.

        Backward error sits at the factorization's level.  That is plenty
        for an induced norm, because the resolvent differences inside one
        are applied through identities that leave nothing to cancel; the
        refined path is reserved for solves with an explicit residual
        contract.
        """
        x = self._lu_solve(np.asarray(rhs, dtype=complex), adjoint)
        if not np.all(np.isfinite(x)):
            raise NumericalBreach("factorization produced non-finite solution")
        return x
