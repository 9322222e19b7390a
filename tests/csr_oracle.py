"""The CSR constructions that band forms replaced, kept as test oracles.

Forms were once CSR matrices: assembled from three diagonals written
straight into CSR arrays with no zero entry stored, shifted, summed and
differenced by sparse arithmetic, and read back into bands wherever a
factor or a pencil needed one.  Band forms (fem.band_form) do all of
that on their data arrays; the tests hold them to the bits of these
routes.  band() also turns any matrix, dense or sparse, into a band
form, for the tests that write their forms out entry by entry.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from homlab import fem, norms
from homlab.fields import constant_field


def stored_nonzeros(mat):
    """(offsets, cols, values) of a sparse matrix's stored nonzero entries,
    read from its CSR arrays; offset is column minus row."""
    mat = mat.tocsr()
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    nz = mat.data != 0
    cols = mat.indices[nz]
    return cols - rows[nz], cols, mat.data[nz]


def half_bandwidth(*mats):
    """Largest |column - row| of a stored nonzero entry of any matrix."""
    return max(int(np.abs(stored_nonzeros(m)[0]).max(initial=0))
               for m in mats)


def diagonals(mat, u=None):
    """(offsets, data): the diagonals of a square sparse matrix at the
    offsets -u..u, data[k, j] = mat[j - offsets[k], j], zero where no
    nonzero entry is stored; u defaults to the matrix's own half_bandwidth,
    and a stored nonzero entry farther out raises ValueError."""
    offsets, cols, values = stored_nonzeros(mat)
    widest = int(np.abs(offsets).max(initial=0))
    if u is None:
        u = widest
    elif widest > u:
        raise ValueError(f"a stored entry lies at offset {widest}, outside "
                         f"half-bandwidth {u}")
    data = np.zeros((2 * u + 1, mat.shape[1]), dtype=mat.dtype)
    data[u + offsets, cols] = values
    return np.arange(-u, u + 1), data


def upper_band(mat, u=None):
    """LAPACK upper band storage read from a sparse matrix."""
    offsets, data = diagonals(mat, u)
    return data[offsets >= 0][::-1]


def band(mat):
    """The band form of any matrix, dense or sparse."""
    if not sp.issparse(mat):
        mat = sp.csr_matrix(np.asarray(mat))
    return fem.band_form(diagonals(mat)[1])


def tridiagonal_csr(sub, main, sup):
    """CSR matrix of three diagonals, written row by row in column order,
    with no zero entry stored."""
    n = main.size
    entries = np.zeros((n, 3), dtype=main.dtype)
    entries[1:, 0] = sub
    entries[:, 1] = main
    entries[:-1, 2] = sup
    stored = entries != 0
    cols = (np.arange(-1, n - 1, dtype=np.int32)[:, None]
            + np.arange(3, dtype=np.int32))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(stored.sum(axis=1, dtype=np.int32), out=indptr[1:])
    mat = sp.csr_matrix((entries[stored], cols[stored], indptr),
                        shape=(n, n))
    mat.has_canonical_format = True
    return mat


def assemble_base(spec, mesh):
    """fem.assemble_base as CSR: the H1 Gram is the sparse sum of the
    stiffness and mass matrices."""
    one = constant_field(1, 1.0)
    stiff = tridiagonal_csr(*fem._form_diagonals(mesh, one, "stiffness", 1))
    mass = tridiagonal_csr(*fem._form_diagonals(mesh, one, "mass", 1))
    return fem.DiscreteOperator(space=fem.FeSpace(mesh), base_form=stiff,
                                gram_h1=(stiff + mass).tocsr(),
                                gram_l2=mass)


def assemble_perturbation(space, v, refine, q=(), p=()):
    """fem.assemble_perturbation as CSR: the sparse sum of the terms'
    matrices, from the first term's."""
    mesh = space.mesh
    terms = ([(qf, "plus") for qf in q] + [(pf, "minus") for pf in p]
             + [(v, "mass")])
    mats = (tridiagonal_csr(*fem._form_diagonals(mesh, field_, term, refine))
            for field_, term in terms)
    total = next(mats)
    for mat in mats:
        total = total + mat
    return fem.PerturbationMatrix(total)


def csr_setting(assemble_setting, *args, **kwargs):
    """assemble_setting on the CSR assembly: its matrices are CSR."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fem, "assemble_base", assemble_base)
        patch.setattr(fem, "assemble_perturbation", assemble_perturbation)
        return assemble_setting(*args, **kwargs)


def shifted_forms(setting, lam):
    """(Geps, G0) of a CSR setting by sparse arithmetic."""
    op = setting["op"]
    return tuple(((op.base_form + setting[x]).tocsr()
                  - lam * op.gram_l2).tocsr() for x in ("x_eps", "x_lim"))


def difference_forms(setting, lam):
    """(L, L^H) of a CSR setting at shift lam, as CSR matrices."""
    geps, g0 = shifted_forms(setting, lam)
    ell = (geps - g0).tocsr()
    return ell, ell.getH().tocsr()


def hermitian_part(G):
    return ((G + G.getH()) * 0.5).tocsr()


def bisection(H, S):
    """The lower end c of norms.smallest_eigenvalue's bracket, bisected on
    bands read from CSR pencils."""
    u = half_bandwidth(H, S)
    band_h = upper_band(H, u)
    band_s = upper_band(S, u)
    ratio = band_h[u].real / band_s[u].real
    hi = float(ratio.min())
    scale = float(np.abs(ratio).max()) or 1.0
    lo = hi - scale
    while norms._cholesky(band_h - lo * band_s) is None:
        lo = hi - 2.0 * (hi - lo)
    while hi - lo > 1e-12 * max(abs(lo), scale):
        mid = 0.5 * (lo + hi)
        if norms._cholesky(band_h - mid * band_s) is None:
            hi = mid
        else:
            lo = mid
    return lo


def shifts_tried(lambda0, lambda_start=-1.0):
    """The shifts of find_lambda's doubling path, from lambda_start on."""
    steps = round(math.log2(lambda0 / lambda_start))
    return [lambda_start * 2.0 ** k for k in range(steps + 1)]
