"""P1 finite elements on uniform 1D meshes for scalar sesquilinear forms.

The base operator is -u'' with Dirichlet conditions, acting on complex
functions; its form (u', v') is the stiffness matrix.
Perturbations add the lower-order forms

    (Q u', v) - (P u, v') + (V u, v).

Oscillating coefficients are integrated per element with the
composite Gauss rule from the lattice module.  Direct solves go through a
sparse LU factorization with compensated-residual iterative refinement, so
forward errors sit near machine precision even on fine meshes.  The solver
takes real forms only; loads may be complex.  A refined solve takes a
column block of loads (n, k); each column gets the same bits as a solve of
a block holding that column alone.

The compensated residual is built from error-free transformations:
TwoProduct with Dekker-split factors (the matrix diagonals are split once
per factorization, the iterate once per residual) and Knuth's TwoSum.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalBreach
from .fields import Box, constant_field
from .lattice import _panel_rule, default_refine

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant
# mesh.min_elements and mesh.cap_dof when a config leaves them out
MIN_ELEMENTS = 64
CAP_DOF = 8192


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
    """Running sum of a real array with the exact rounding errors of every
    step (Knuth's TwoSum) summed apart and added back at the end.

    The error terms are exact, so the sum and its correction come out the
    same whichever exact method finds them.
    """

    def __init__(self, init):
        self.s = np.array(init, dtype=float)
        self.c = np.zeros_like(self.s)

    def sub(self, t, lo, hi):
        """Subtract t from the entries lo:hi of the last axis.

        TwoSum of s and -t: the new sum is s - t and its exact rounding
        error (s - (tot - bv)) + (-t - bv), with bv = tot - s.
        """
        s = self.s[..., lo:hi]
        tot = s - t
        bv = tot - s
        err = tot - bv
        np.subtract(s, err, out=err)
        np.add(t, bv, out=bv)
        err -= bv
        self.c[..., lo:hi] += err
        s[...] = tot

    def value(self):
        return self.s + self.c


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


# ncomp is unused; perfbench/oracle.py passes it (ROADMAP item 7)
def mesh_rule(finest_scale, ncomp, min_elements, cap_dof):
    """(n_elements, capped): enough elements for h to resolve the finest
    coefficient scale 16-fold, at least min_elements, and at most cap_dof
    (one dof a node); capped says the cap cut the mesh."""
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
    """P1 element space with Dirichlet conditions at both ends."""

    mesh: Mesh1D

    def bc_mask(self):
        """Node indices that are kept as dofs: every node but the two
        ends."""
        return np.arange(1, self.mesh.n_elements)


def _element_moments(field_, mesh, refine):
    """Weighted element integrals of a field against P1 shape products.

    Returns dict with keys '1', 'L', 'R', 'LL', 'LR', 'RR' mapping to
    arrays (n_elements,): the integral of field * (shape factors) over
    each element.
    """
    refine = int(max(1, refine))
    t, w = _panel_rule(refine)
    h = mesh.h
    starts = mesh.a + h * np.arange(mesh.n_elements)
    pts = (starts[:, None] + h * t[None, :]).ravel()[:, None]
    vals = field_(pts).reshape(mesh.n_elements, len(t))
    weights = {
        "1": w,
        "L": w * (1.0 - t),
        "R": w * t,
        "LL": w * (1.0 - t) ** 2,
        "LR": w * t * (1.0 - t),
        "RR": w * t ** 2,
    }
    return {k: h * np.einsum("q,eq->e", wk, vals) for k, wk in weights.items()}


def _accumulate(blocks, mesh):
    """Assemble per-element 2x2 node blocks into a CSR matrix.

    blocks[(a, b)] is (n_elements,) for local test node a and trial node
    b in {0, 1}.
    """
    nel = mesh.n_elements
    elem = np.arange(nel)
    rows = np.concatenate([elem + a for a, _ in blocks])
    cols = np.concatenate([elem + b for _, b in blocks])
    mat = sp.coo_matrix(
        (np.concatenate(list(blocks.values())), (rows, cols)),
        shape=(nel + 1, nel + 1),
    ).tocsr()
    mat.sum_duplicates()
    return mat


def _form_matrix(mesh, coef, term, refine):
    """Full (unconstrained) matrix of one term of the form with one
    coefficient A: "stiffness" (A u', v'), "plus" (A u', v), "minus"
    -(A u, v') or "mass" (A u, v)."""
    h = mesh.h
    d = (-1.0 / h, 1.0 / h)
    m = _element_moments(coef, mesh, refine)
    side = ("L", "R")
    pair = (("LL", "LR"), ("LR", "RR"))
    block = {
        "stiffness": lambda a, b: d[a] * d[b] * m["1"],
        "plus": lambda a, b: d[b] * m[side[a]],
        "minus": lambda a, b: -d[a] * m[side[b]],
        "mass": lambda a, b: m[pair[a][b]],
    }[term]
    # blocks in the order (0,0), (0,1), (1,0), (1,1): _accumulate sums the
    # duplicate entries in that order
    return _accumulate({(a, b): block(a, b) for a in (0, 1) for b in (0, 1)},
                       mesh)


def _restrict(mat, space: FeSpace):
    keep = space.bc_mask()
    return mat[keep][:, keep].tocsr()


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled base form with its Gram matrices and dof bookkeeping."""

    space: FeSpace
    base_form: sp.csr_matrix
    gram_h1: sp.csr_matrix
    gram_l2: sp.csr_matrix

    @property
    def dof(self):
        return self.base_form.shape[0]


# spec repeats the mesh's span; perfbench/oracle.py passes it (ROADMAP item 7)
def assemble_base(spec: OperatorSpec, mesh: Mesh1D) -> DiscreteOperator:
    """Assemble the base form and both Gram matrices on one mesh.

    The base form is the stiffness matrix; the H1 Gram is stiffness plus
    mass.  Hermiticity of both Grams and the Gram ordering (L2 below H1)
    are construction guarantees, checked here once per assembly.
    """
    space = FeSpace(mesh)
    one = constant_field(1, 1.0, spec.domain)
    stiff = _restrict(_form_matrix(mesh, one, "stiffness", 1), space)
    mass = _restrict(_form_matrix(mesh, one, "mass", 1), space)
    gram = (stiff + mass).tocsr()
    for g in (gram, mass):
        asym = abs(g - g.getH()).max()
        scale = max(abs(g).max(), 1e-300)
        if asym > 1e-12 * scale:
            raise NumericalBreach("Gram matrix lost hermiticity")
    return DiscreteOperator(
        space=space,
        base_form=stiff,
        gram_h1=gram,
        gram_l2=mass,
    )


@dataclass(frozen=True)
class PerturbationMatrix:
    """Assembled first-order-plus-potential perturbation form."""

    matrix: sp.csr_matrix


def assemble_perturbation(space: FeSpace, q=(), p=(), v=None,
                          refine=1) -> PerturbationMatrix:
    """Matrix of (Q u', v) - (P u, v') + (V u, v) on the constrained dofs.

    The sign convention places the derivative on the trial function for Q
    and on the test function for P, with a minus sign on the P term, so a
    triple with Q = -P and V = Q' assembles to the zero form.
    """
    mesh = space.mesh
    total = None
    for qf in q:
        mat = _form_matrix(mesh, qf, "plus", refine)
        total = mat if total is None else total + mat
    for pf in p:
        mat = _form_matrix(mesh, pf, "minus", refine)
        total = mat if total is None else total + mat
    if v is not None:
        mat = _form_matrix(mesh, v, "mass", refine)
        total = mat if total is None else total + mat
    if total is None:
        size = mesh.n_elements + 1
        total = sp.csr_matrix((size, size), dtype=complex)
    return PerturbationMatrix(_restrict(total, space))


def assemble_triple(space, triple, refine=1):
    """Perturbation matrix of a family field triple."""
    return assemble_perturbation(space, q=triple.q, p=triple.p, v=triple.v,
                                 refine=refine)


def perturbation_refine(space, finest_scale):
    """Per-element quadrature refine resolving the coefficient scale."""
    return default_refine(space.mesh.h, finest_scale)


class LinearSolver:
    """Sparse LU of a real form with compensated-residual iterative
    refinement.

    The form must be real: a nonzero imaginary entry raises
    NumericalBreach.  Loads and solutions are complex.  Residuals are
    evaluated from the matrix diagonals with exact two-term
    products and TwoSum accumulation, so each refinement pass gains the
    LU's relative accuracy until the solution is accurate to working
    precision, and the reported residual is the true one.  The diagonals
    are split into Dekker halves once, here.

    The refined solves take a block of loads (n, k) and solve A x = b.  A
    block is held column-contiguous and every column gets the same two
    refinement passes, so each column gets the bits of its own solve.  On
    the shipped resolvent configs the first pass reaches working precision
    and the second moves no bit; it is the margin for a worse-conditioned
    form, and the callers' residual contract catches a solve left short.
    The solver keeps no state between calls: solve returns the final
    residual block with the solution, and solve_pair returns its column
    norms for cheap downstream checks.
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsc().astype(complex)
        if self.matrix.data.imag.any():
            raise NumericalBreach("the solver takes a real form; this one "
                                  "has a nonzero imaginary entry")
        try:
            self.lu = spla.splu(self.matrix)
        except RuntimeError as exc:
            raise NumericalBreach(f"singular factorization: {exc}") from exc
        dia = sp.dia_matrix(self.matrix)
        n = self.matrix.shape[0]
        dia_r = np.ascontiguousarray(dia.data.real)
        # per nonempty diagonal: its column range, offset and split entries
        self._bands = []
        for k, off in enumerate(dia.offsets):
            j0, j1 = max(0, off), min(n, n + off)
            if j0 >= j1:
                continue
            self._bands.append((j0, j1, off, _split(dia_r[k, j0:j1])))
        self.shape = self.matrix.shape
        self.matrix_norm = float(np.abs(self.matrix).sum(axis=1).max())

    def _dd_residual(self, rhs, x):
        """rhs - A x with compensated accumulation.

        x and rhs have shape (n, k); each column is independent.  The
        matrix is real, so real and imaginary parts of all columns are
        carried in one real array (2, k, n), and one operation serves every
        accumulator along contiguous rows; each entry sees the same
        sequence of roundings as a lone column's would.
        """
        x = x.T
        rhs = rhs.T
        xs = _split(np.stack((x.real, x.imag)))
        acc = _Compensated(np.stack((rhs.real, rhs.imag)))
        for j0, j1, off, d in self._bands:
            o0, o1 = j0 - off, j1 - off
            p, e = _two_prod(d, tuple(a[..., j0:j1] for a in xs))
            acc.sub(p, o0, o1)
            acc.sub(e, o0, o1)
        r = acc.value()
        return (r[0] + 1j * r[1]).T

    def solve(self, rhs):
        """Refined solve of a load block (n, k): the solution after two
        refinement passes and its compensated residual, both (n, k)."""
        b = np.asfortranarray(rhs, dtype=complex)
        x = np.asfortranarray(self.lu.solve(b))
        if not np.all(np.isfinite(x)):
            raise NumericalBreach("factorization produced non-finite solution")
        for _ in range(2):
            x += self.lu.solve(self._dd_residual(b, x))
        return x, self._dd_residual(b, x)

    def solve_pair(self, rhs):
        """Refined solve plus the correction living below its last bit.

        One more LU pass against the compensated residual of the
        refined iterate, the one its solve has just measured, recovers
        the part of the solution that double precision cannot store.
        Callers that difference two nearby solutions add the corrections
        back in, which keeps the trailing digits of the difference that
        would otherwise drown in the iterates' own rounding.  Returns
        (x, x_lo, residual norms), one norm per column.
        """
        x, r = self.solve(rhs)
        return x, self.lu.solve(r), np.array(column_norms(r))

    def quick(self, rhs, adjoint=False):
        """Single unrefined LU solve, for the operators whose norms are
        measured.

        Backward error sits at the factorization's level.  That is plenty
        for an induced norm, because the resolvent differences inside one
        are applied through identities that leave nothing to cancel; the
        refined path is reserved for solves with an explicit residual
        contract.
        """
        x = self.lu.solve(np.asarray(rhs, dtype=complex),
                          trans="H" if adjoint else "N")
        if not np.all(np.isfinite(x)):
            raise NumericalBreach("factorization produced non-finite solution")
        return x
