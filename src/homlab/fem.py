"""P1 finite elements on uniform 1D meshes for vector sesquilinear forms.

The discrete operator realizes forms

    h(u, v) = (A11 u', v') + (A+ u', v) - (A- u, v') + (A0 u, v) [+ K terms]

for n-component complex fields, with Dirichlet or Robin boundary
conditions.  Oscillating coefficients are integrated per element with the
composite Gauss rule from the lattice module.  Direct solves go through a
sparse LU factorization with compensated-residual iterative refinement, so
forward errors sit near machine precision even on fine meshes.
"""

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import Box, CoefficientField, constant_field, matrix_abs
from .lattice import _panel_rule, default_refine

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_prod(a, b):
    """Elementwise a * b as an exact (product, rounding error) pair."""
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


class _Compensated:
    """Neumaier-compensated running sum over a real vector."""

    def __init__(self, init):
        self.s = np.array(init, dtype=float)
        self.c = np.zeros_like(self.s)

    def add(self, t, lo=0, hi=None):
        s = self.s[lo:hi]
        c = self.c[lo:hi]
        tot = s + t
        big = np.abs(s) >= np.abs(t)
        # the smaller addend's low bits survive in exact arithmetic
        c += np.where(big, (s - tot) + t, (t - tot) + s)
        s[...] = tot

    def value(self):
        return self.s + self.c


class NumericalBreach(RuntimeError):
    """A numerical invariant failed (singular factorization, bad residual)."""


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

    @property
    def nodes(self):
        return self.a + self.h * np.arange(self.n_elements + 1)


def build_mesh(domain: Box, n_elements: int) -> Mesh1D:
    if domain.dim != 1:
        raise ValueError("finite elements implemented for 1D domains")
    return Mesh1D(domain.lower[0], domain.upper[0], int(n_elements))


def mesh_rule(finest_scale, ncomp=1, min_elements=64, cap_dof=8192):
    """Elements so that h resolves the finest coefficient scale 16-fold."""
    n = int(np.ceil(16.0 / max(finest_scale, 1e-12)))
    n = max(n, min_elements)
    cap = max(cap_dof // max(ncomp, 1), min_elements)
    capped = n > cap
    return min(n, cap), capped


@dataclass(frozen=True)
class OperatorSpec:
    """Continuous operator data: coefficients, boundary condition, ellipticity.

    a11 is the second-order coefficient, aplus/aminus the first-order
    coefficients placed on the trial/test derivative, a0 the potential.
    bc is "dirichlet" or "robin"; Robin adds the matrices k_lower/k_upper
    at the interval endpoints.  c1 is the declared ellipticity constant.
    """

    domain: Box
    ncomp: int
    a11: CoefficientField
    aplus: Optional[CoefficientField] = None
    aminus: Optional[CoefficientField] = None
    a0: Optional[CoefficientField] = None
    bc: str = "dirichlet"
    k_lower: Optional[np.ndarray] = None
    k_upper: Optional[np.ndarray] = None
    c1: float = 1.0

    def __post_init__(self):
        if self.bc not in ("dirichlet", "robin"):
            raise ValueError("bc must be 'dirichlet' or 'robin'")
        if self.domain.dim != 1:
            raise ValueError("operator specs are 1D here")

    def validate_ellipticity(self, rng, samples=1000):
        """Sample Re(A11 z, z) >= c1 |z|^2 over random points and vectors."""
        pts = self.domain.sample(samples, rng)
        mats = self.a11(pts)
        z = rng.standard_normal((samples, self.ncomp)) + 1j * rng.standard_normal(
            (samples, self.ncomp)
        )
        quad = np.real(np.einsum("mi,mij,mj->m", np.conj(z), mats, z))
        norms = (np.abs(z) ** 2).sum(axis=1)
        worst = float((quad / norms).min())
        if worst < self.c1 - 1e-10:
            raise ValueError(
                f"ellipticity violated: sampled constant {worst} < c1 = {self.c1}"
            )
        return worst


def default_operator(domain, ncomp=1, bc="dirichlet", a0_value=0.0):
    """Laplace-type reference operator with identity second-order part."""
    eye = constant_field(1, np.eye(ncomp), domain)
    a0 = None
    if a0_value:
        a0 = constant_field(1, a0_value * np.eye(ncomp), domain)
    kz = np.zeros((ncomp, ncomp))
    return OperatorSpec(domain, ncomp, eye, a0=a0, bc=bc,
                        k_lower=kz, k_upper=kz, c1=1.0)


@dataclass(frozen=True)
class FeSpace:
    """P1 vector element space with its boundary handling."""

    mesh: Mesh1D
    ncomp: int
    bc: str

    @property
    def n_nodes(self):
        return self.mesh.n_elements + 1

    @property
    def free_nodes(self):
        if self.bc == "dirichlet":
            return np.arange(1, self.n_nodes - 1)
        return np.arange(self.n_nodes)

    @property
    def dof(self):
        return len(self.free_nodes) * self.ncomp

    def bc_mask(self):
        """Flat dof indices (into the full node set) that are kept."""
        nodes = self.free_nodes
        return (nodes[:, None] * self.ncomp + np.arange(self.ncomp)[None, :]).ravel()


def _element_moments(field_, mesh, refine):
    """Weighted element integrals of a field against P1 shape products.

    Returns dict with keys '1', 'L', 'R', 'LL', 'LR', 'RR' mapping to
    arrays (n_elements, n, n): the integral of field * (shape factors)
    over each element.
    """
    refine = int(max(1, refine))
    t, w = _panel_rule(refine)
    h = mesh.h
    starts = mesh.a + h * np.arange(mesh.n_elements)
    pts = (starts[:, None] + h * t[None, :]).ravel()[:, None]
    vals = field_(pts).reshape(mesh.n_elements, len(t), field_.ncomp, field_.ncomp)
    wl = w * (1.0 - t)
    wr = w * t
    out = {
        "1": h * np.einsum("q,eqij->eij", w, vals),
        "L": h * np.einsum("q,eqij->eij", wl, vals),
        "R": h * np.einsum("q,eqij->eij", wr, vals),
        "LL": h * np.einsum("q,eqij->eij", w * (1.0 - t) ** 2, vals),
        "LR": h * np.einsum("q,eqij->eij", w * t * (1.0 - t), vals),
        "RR": h * np.einsum("q,eqij->eij", w * t ** 2, vals),
    }
    return out


def _accumulate(blocks, mesh, ncomp):
    """Assemble per-element 2x2 node blocks into a CSR matrix.

    blocks[(a, b)] is (n_elements, n, n) for local test node a and trial
    node b in {0, 1}.
    """
    nel = mesh.n_elements
    size = (nel + 1) * ncomp
    rows, cols, data = [], [], []
    elem = np.arange(nel)
    ci = np.arange(ncomp)
    for (a, b), vals in blocks.items():
        rnode = elem + a
        cnode = elem + b
        r = (rnode[:, None, None] * ncomp + ci[None, :, None])
        c = (cnode[:, None, None] * ncomp + ci[None, None, :])
        rows.append(np.broadcast_to(r, vals.shape).ravel())
        cols.append(np.broadcast_to(c, vals.shape).ravel())
        data.append(vals.ravel())
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()
    mat.sum_duplicates()
    return mat


def _form_matrix(mesh, ncomp, a11=None, aplus=None, aminus=None, a0=None,
                 refine=1):
    """Full (unconstrained) matrix of the sesquilinear form."""
    h = mesh.h
    d = {0: -1.0 / h, 1: 1.0 / h}
    blocks = {}

    def add_block(key, val):
        if key in blocks:
            blocks[key] = blocks[key] + val
        else:
            blocks[key] = val

    if a11 is not None:
        m = _element_moments(a11, mesh, refine)
        for a in (0, 1):
            for b in (0, 1):
                add_block((a, b), d[a] * d[b] * m["1"])
    if aplus is not None:
        m = _element_moments(aplus, mesh, refine)
        shape = {0: "L", 1: "R"}
        for a in (0, 1):
            for b in (0, 1):
                add_block((a, b), d[b] * m[shape[a]])
    if aminus is not None:
        m = _element_moments(aminus, mesh, refine)
        shape = {0: "L", 1: "R"}
        for a in (0, 1):
            for b in (0, 1):
                add_block((a, b), -d[a] * m[shape[b]])
    if a0 is not None:
        m = _element_moments(a0, mesh, refine)
        pair = {(0, 0): "LL", (0, 1): "LR", (1, 0): "LR", (1, 1): "RR"}
        for key, mk in pair.items():
            add_block(key, m[mk])
    if not blocks:
        size = (mesh.n_elements + 1) * ncomp
        return sp.csr_matrix((size, size), dtype=complex)
    return _accumulate(blocks, mesh, ncomp)


def _restrict(mat, space: FeSpace):
    keep = space.bc_mask()
    return mat[keep][:, keep].tocsr()


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled base form with its Gram matrices and dof bookkeeping."""

    spec: OperatorSpec
    space: FeSpace
    base_form: sp.csr_matrix
    gram_h1: sp.csr_matrix
    gram_l2: sp.csr_matrix
    bc_mask: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    @property
    def dof(self):
        return self.base_form.shape[0]


def assemble_base(spec: OperatorSpec, mesh: Mesh1D, refine=1) -> DiscreteOperator:
    """Assemble the base form and both Gram matrices on one mesh.

    The H1 Gram is stiffness plus mass with identity component coupling;
    hermiticity of both Grams and the Gram ordering (L2 below H1) are
    construction guarantees, checked here once per assembly.
    """
    space = FeSpace(mesh, spec.ncomp, spec.bc)
    base = _form_matrix(mesh, spec.ncomp, a11=spec.a11, aplus=spec.aplus,
                        aminus=spec.aminus, a0=spec.a0, refine=refine)
    if spec.bc == "robin":
        base = base.tolil()
        n = spec.ncomp
        if spec.k_lower is not None:
            base[:n, :n] += np.asarray(spec.k_lower, dtype=complex)
        if spec.k_upper is not None:
            base[-n:, -n:] += np.asarray(spec.k_upper, dtype=complex)
        base = base.tocsr()
    eye = constant_field(1, np.eye(spec.ncomp), spec.domain)
    stiff = _form_matrix(mesh, spec.ncomp, a11=eye, refine=1)
    mass = _form_matrix(mesh, spec.ncomp, a0=eye, refine=1)
    keep = FeSpace(mesh, spec.ncomp, spec.bc).bc_mask()
    base_r = _restrict(base, space)
    stiff_r = _restrict(stiff, space)
    mass_r = _restrict(mass, space)
    gram = (stiff_r + mass_r).tocsr()
    for g in (gram, mass_r):
        asym = abs(g - g.getH()).max()
        scale = max(abs(g).max(), 1e-300)
        if asym > 1e-12 * scale:
            raise NumericalBreach("Gram matrix lost hermiticity")
    return DiscreteOperator(
        spec=spec,
        space=space,
        base_form=base_r,
        gram_h1=gram,
        gram_l2=mass_r,
        bc_mask=keep,
    )


@dataclass(frozen=True)
class PerturbationMatrix:
    """Assembled first-order-plus-potential perturbation form."""

    matrix: sp.csr_matrix
    labels: tuple


def assemble_perturbation(space: FeSpace, q=(), p=(), v=None,
                          refine=1) -> PerturbationMatrix:
    """Matrix of (Q u', v) - (P u, v') + (V u, v) on the constrained dofs.

    The sign convention places the derivative on the trial function for Q
    and on the test function for P, with a minus sign on the P term, so a
    triple with Q = -P and V = Q' assembles to the zero form.
    """
    mesh = space.mesh
    labels = []
    total = None
    for j, qf in enumerate(q):
        mat = _form_matrix(mesh, space.ncomp, aplus=qf, refine=refine)
        total = mat if total is None else total + mat
        labels.append(f"q{j}")
    for j, pf in enumerate(p):
        mat = _form_matrix(mesh, space.ncomp, aminus=pf, refine=refine)
        total = mat if total is None else total + mat
        labels.append(f"p{j}")
    if v is not None:
        mat = _form_matrix(mesh, space.ncomp, a0=v, refine=refine)
        total = mat if total is None else total + mat
        labels.append("v")
    if total is None:
        size = (mesh.n_elements + 1) * space.ncomp
        total = sp.csr_matrix((size, size), dtype=complex)
    return PerturbationMatrix(_restrict(total, space), tuple(labels))


def assemble_triple(space, triple, refine=1):
    """Perturbation matrix of a family field triple."""
    return assemble_perturbation(space, q=triple.q, p=triple.p, v=triple.v,
                                 refine=refine)


def perturbation_refine(space, finest_scale):
    """Per-element quadrature refine resolving the coefficient scale."""
    return default_refine(space.mesh.h, finest_scale)


class LinearSolver:
    """Sparse LU with compensated-residual iterative refinement.

    Residuals are evaluated from the matrix diagonals with exact two-term
    products and Neumaier summation, so the refinement loop converges to a
    solution accurate to working precision, and the reported residual is
    the true one.  Every solve records its final residual norm in
    last_residual for cheap downstream checks.
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsc().astype(complex)
        try:
            self.lu = spla.splu(self.matrix)
        except RuntimeError as exc:
            raise NumericalBreach(f"singular factorization: {exc}") from exc
        dia = sp.dia_matrix(self.matrix)
        self._offsets = dia.offsets
        self._dia_r = np.ascontiguousarray(dia.data.real)
        self._dia_i = np.ascontiguousarray(dia.data.imag)
        self._complex = bool(np.any(self._dia_i))
        self.shape = self.matrix.shape
        self.matrix_norm = float(np.abs(self.matrix).sum(axis=1).max())
        self.last_residual = None

    def _dd_residual(self, rhs, x, herm=False):
        """rhs - A x (or rhs - A^H x) with compensated accumulation."""
        n = self.shape[0]
        xr = np.ascontiguousarray(x.real)
        xi = np.ascontiguousarray(x.imag)
        acc_r = _Compensated(rhs.real)
        acc_i = _Compensated(rhs.imag)
        for k, off in enumerate(self._offsets):
            j0 = max(0, off)
            j1 = min(n, n + off)
            if j0 >= j1:
                continue
            dr = self._dia_r[k, j0:j1]
            if herm:
                o0, o1 = j0, j1
                vr = xr[j0 - off:j1 - off]
                vi = xi[j0 - off:j1 - off]
            else:
                o0, o1 = j0 - off, j1 - off
                vr = xr[j0:j1]
                vi = xi[j0:j1]
            p, e = _two_prod(dr, vr)
            acc_r.add(-p, o0, o1)
            acc_r.add(-e, o0, o1)
            p, e = _two_prod(dr, vi)
            acc_i.add(-p, o0, o1)
            acc_i.add(-e, o0, o1)
            if self._complex:
                di = self._dia_i[k, j0:j1]
                if herm:
                    di = -di
                p, e = _two_prod(di, vi)
                acc_r.add(p, o0, o1)
                acc_r.add(e, o0, o1)
                p, e = _two_prod(di, vr)
                acc_i.add(-p, o0, o1)
                acc_i.add(-e, o0, o1)
        return acc_r.value() + 1j * acc_i.value()

    def solve(self, rhs, adjoint=False):
        rhs = np.asarray(rhs, dtype=complex)
        trans = "H" if adjoint else "N"
        x = self.lu.solve(rhs, trans=trans)
        if not np.all(np.isfinite(x)):
            raise NumericalBreach("factorization produced non-finite solution")
        # corrections shrink by the LU's relative error each pass; stop on
        # stall or once they reach roundoff of the iterate
        prev = np.inf
        for _ in range(5):
            r = self._dd_residual(rhs, x, herm=adjoint)
            d = self.lu.solve(r, trans=trans)
            x = x + d
            dn = float(np.linalg.norm(d))
            if dn <= 1e-15 * float(np.linalg.norm(x)) or dn >= 0.5 * prev:
                break
            prev = dn
        r = self._dd_residual(rhs, x, herm=adjoint)
        self.last_residual = float(np.linalg.norm(r))
        return x

    def solve_pair(self, rhs, adjoint=False):
        """Refined solve plus the correction living below its last bit.

        One more LU pass against the compensated residual of the
        converged iterate recovers the part of the solution that double
        precision cannot store.  Callers that difference two nearby
        solutions add the corrections back in, which keeps the trailing
        digits of the difference that would otherwise drown in the
        iterates' own rounding.
        """
        x = self.solve(rhs, adjoint=adjoint)
        r = self._dd_residual(np.asarray(rhs, dtype=complex), x, herm=adjoint)
        d = self.lu.solve(r, trans="H" if adjoint else "N")
        return x, d

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

    def residual(self, x, rhs, adjoint=False):
        rhs = np.asarray(rhs, dtype=complex)
        x = np.asarray(x, dtype=complex)
        r = self._dd_residual(rhs, x, herm=adjoint)
        return float(np.linalg.norm(r))


def interpolate(space: FeSpace, fvec):
    """Nodal interpolation of a vector function onto the free dofs.

    fvec maps points (m, 1) -> values (m, ncomp).
    """
    nodes = space.mesh.nodes[space.free_nodes]
    vals = np.asarray(fvec(nodes[:, None]), dtype=complex)
    vals = vals.reshape(len(nodes), space.ncomp)
    return vals.ravel()


def load_vector(space: FeSpace, fvec, refine=4):
    """Right-hand side (f, phi_i) for a vector function f."""
    mesh = space.mesh
    t, w = _panel_rule(int(max(1, refine)))
    h = mesh.h
    starts = mesh.a + h * np.arange(mesh.n_elements)
    pts = (starts[:, None] + h * t[None, :]).ravel()[:, None]
    vals = np.asarray(fvec(pts), dtype=complex).reshape(
        mesh.n_elements, len(t), space.ncomp
    )
    left = h * np.einsum("q,eqi->ei", w * (1 - t), vals)
    right = h * np.einsum("q,eqi->ei", w * t, vals)
    full = np.zeros((mesh.n_elements + 1, space.ncomp), dtype=complex)
    np.add.at(full, np.arange(mesh.n_elements), left)
    np.add.at(full, np.arange(1, mesh.n_elements + 1), right)
    return full.ravel()[space.bc_mask()]


def fe_norm_h1(op: DiscreteOperator, u):
    return float(np.sqrt(max(np.real(np.vdot(u, op.gram_h1 @ u)), 0.0)))


def fe_norm_l2(op: DiscreteOperator, u):
    return float(np.sqrt(max(np.real(np.vdot(u, op.gram_l2 @ u)), 0.0)))


def fe_dual_norm(op: DiscreteOperator, f, gram_solver=None):
    solver = gram_solver or LinearSolver(op.gram_h1)
    return float(np.sqrt(max(np.real(np.vdot(f, solver.solve(f))), 0.0)))
