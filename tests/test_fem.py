"""Finite element assembly against closed-form tridiagonal oracles."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import zgbtrs

from homlab import fem, registry, study
from homlab.config import StudyConfig
from homlab.fem import (
    LinearSolver,
    Mesh1D,
    NumericalBreach,
    assemble_base,
    column_norms,
    assemble_perturbation,
    build_mesh,
    discretize,
    FeSpace,
    _element_moments,
    _form_diagonals,
    _tridiagonal_csr,
    mesh_rule,
    OperatorSpec,
)
from homlab.fields import Box, CoefficientField, constant_field, zero_field
from homlab.lattice import _panel_rule
from homlab.resolvent import assemble_setting, context_from_setting
from homlab.study import CAP_DOF, MIN_ELEMENTS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
UNIT = Box((0.0,), (1.0,))


def tridiag(n, lo, di, up):
    return (np.diag(np.full(n - 1, lo), -1)
            + np.diag(np.full(n, di))
            + np.diag(np.full(n - 1, up), 1))


# ---------------------------------------------------------------- assembly

def test_dirichlet_laplacian_matches_tridiagonal_oracle():
    n = 16
    mesh = build_mesh(UNIT, n)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    h = 1.0 / n
    # classic P1 stiffness: (1/h) tridiag(-1, 2, -1) on interior nodes
    expect = tridiag(n - 1, -1.0 / h, 2.0 / h, -1.0 / h)
    assert np.allclose(op.base_form.toarray(), expect, atol=1e-12)
    # mass: (h/6) tridiag(1, 4, 1)
    mass = tridiag(n - 1, h / 6.0, 4.0 * h / 6.0, h / 6.0)
    assert np.allclose(op.gram_l2.toarray(), mass, atol=1e-14)
    assert np.allclose(op.gram_h1.toarray(), expect + mass, atol=1e-12)
    assert op.dof == n - 1


def test_potential_adds_weighted_mass():
    n = 12
    mesh = build_mesh(UNIT, n)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    v = constant_field(1, 3.0)
    pert = assemble_perturbation(op.space, v, 1)
    assert np.allclose(pert.matrix.toarray(), 3.0 * op.gram_l2.toarray(),
                       atol=1e-12)


def test_first_order_constant_gives_central_difference():
    n = 10
    mesh = build_mesh(UNIT, n)
    space = FeSpace(mesh)
    c = 1.7
    q = constant_field(1, c)
    pert = assemble_perturbation(space, zero_field(1), 1, q=(q,))
    # (c u', v) on P1: antisymmetric central difference c/2 off-diagonals
    expect = tridiag(n - 1, -c / 2.0, 0.0, c / 2.0)
    assert np.allclose(pert.matrix.toarray(), expect, atol=1e-13)


def test_transport_pair_with_constant_coefficient_assembles_to_zero():
    # (Q u', v) - (P u, v') with P = -Q integrates (Q (uv)') = boundary only,
    # which the Dirichlet restriction removes entirely
    n = 14
    mesh = build_mesh(UNIT, n)
    space = FeSpace(mesh)
    q = constant_field(1, 0.8)
    p = constant_field(1, -0.8)
    pert = assemble_perturbation(space, zero_field(1), 1, q=(q,), p=(p,))
    assert abs(pert.matrix).max() < 1e-14


def test_oscillating_potential_element_means():
    # V(x) = sin(20 x): diagonal of the potential matrix equals the exact
    # integral of V * (shape^2) over the two adjacent elements
    n = 32
    mesh = build_mesh(UNIT, n)
    space = FeSpace(mesh)
    v = CoefficientField(1, lambda x: np.sin(20.0 * x[..., 0]), 1.0)
    pert = assemble_perturbation(space, v, 64)
    h = mesh.h
    from scipy.integrate import quad
    for i in (0, 7, n - 2):
        xi = (i + 1) * h
        phi2 = lambda x: np.sin(20.0 * x) * (1.0 - abs(x - xi) / h) ** 2
        exact, _ = quad(phi2, xi - h, xi + h, epsabs=1e-13)
        got = pert.matrix[i, i].real
        assert abs(got - exact) < 1e-9


def _full_node_route(mesh, coef, term, refine):
    """A form matrix the long way: all six element moments, every element
    block into a full-node COO matrix in the order (0,0), (0,1), (1,0),
    (1,1), summed to CSR, then cut to the interior nodes."""
    h = mesh.h
    d = (-1.0 / h, 1.0 / h)
    m = _element_moments(coef, mesh, refine,
                         ("1", "L", "R", "LL", "LR", "RR"))
    side = ("L", "R")
    pair = (("LL", "LR"), ("LR", "RR"))
    block = {
        "stiffness": lambda a, b: d[a] * d[b] * m["1"],
        "plus": lambda a, b: d[b] * m[side[a]],
        "minus": lambda a, b: -d[a] * m[side[b]],
        "mass": lambda a, b: m[pair[a][b]],
    }[term]
    nel = mesh.n_elements
    elem = np.arange(nel)
    ab = [(a, b) for a in (0, 1) for b in (0, 1)]
    mat = sp.coo_matrix(
        (np.concatenate([block(a, b) for a, b in ab]),
         (np.concatenate([elem + a for a, _ in ab]),
          np.concatenate([elem + b for _, b in ab]))),
        shape=(nel + 1, nel + 1),
    ).tocsr()
    mat.sum_duplicates()
    return mat[1:-1][:, 1:-1]


def _oscillating(x):
    return (1.3 + np.sin(37.0 * x[:, 0])) * np.cos(5.0 * x[:, 0])


def _gapped(x):
    # exactly zero on [0.25, 0.5]: whole elements of the 64-element mesh,
    # whose entries are then zeros that a CSR build must not store
    return np.where((x[:, 0] < 0.25) | (x[:, 0] > 0.5), _oscillating(x), 0.0)


def _same_bytes(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("term", ["stiffness", "plus", "minus", "mass"])
@pytest.mark.parametrize("n", [2, 3, 64])
@pytest.mark.parametrize("refine", [1, 3])
def test_form_matrix_equals_full_node_route(term, n, refine):
    mesh = build_mesh(UNIT, n)
    for func in (_oscillating, _gapped):
        coef = CoefficientField(1, func, 2.3)
        got = _tridiagonal_csr(*_form_diagonals(mesh, coef, term, refine))
        want = _full_node_route(mesh, coef, term, refine)
        assert got.shape == (n - 1, n - 1)
        assert got.has_canonical_format
        assert np.array_equal(got.toarray(), want.toarray())
        # the same CSR arrays, bit for bit, once the full-node route drops
        # the zero entries it stores
        want.eliminate_zeros()
        for arr in ("indptr", "indices", "data"):
            assert _same_bytes(getattr(got, arr), getattr(want, arr)), arr
    if n == 64:
        # _gapped left a run of zero entries unstored
        assert got.nnz < 3 * (n - 1) - 2


def test_gram_matrices_are_hermitian_and_ordered():
    mesh = build_mesh(UNIT, 20)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    for g in (op.gram_h1, op.gram_l2):
        assert abs(g - g.getH()).max() < 1e-12
    # H1 dominates L2: smallest eigenvalue of (H1 - L2) is >= 0
    gap = np.linalg.eigvalsh((op.gram_h1 - op.gram_l2).toarray())
    assert gap.min() > -1e-12


@pytest.mark.parametrize("rel, breach", [(1e-10, True), (1e-14, False)])
def test_gram_hermiticity_check_on_perturbed_mass(monkeypatch, rel, breach):
    # one off-diagonal mass entry scaled by 1 + rel: an asymmetry of rel / 4
    # of max |mass|, against the check's 1e-12
    form_diagonals = fem._form_diagonals

    def perturbed(mesh, coef, term, refine):
        sub, main, sup = form_diagonals(mesh, coef, term, refine)
        if term == "mass":
            assert sup[0] == sub[0]
            sup = sup.copy()  # the mass's sub and sup share their moments
            sup[0] *= 1.0 + rel  # the entry (0, 1)
            assert sup[0] != sub[0]
        return sub, main, sup

    monkeypatch.setattr(fem, "_form_diagonals", perturbed)
    mesh = build_mesh(UNIT, 20)
    if breach:
        with pytest.raises(NumericalBreach, match="lost hermiticity"):
            assemble_base(OperatorSpec(UNIT), mesh)
    else:
        op = assemble_base(OperatorSpec(UNIT), mesh)
        assert op.gram_l2[0, 1] != op.gram_l2[1, 0]


# ---------------------------------------------------------------- mesh rule

def _mesh_rule(finest_scale):
    """mesh_rule at the defaults a config without mesh.* keys gets."""
    return mesh_rule(finest_scale, 1, MIN_ELEMENTS, CAP_DOF)


def test_mesh_rule_tracks_finest_scale():
    assert _mesh_rule(1.0) == (64, False)
    assert _mesh_rule(0.1) == (160, False)
    assert _mesh_rule(0.001) == (8192, True)
    assert _mesh_rule(2.0 * np.pi * 0.05) == (64, False)


def test_mesh_rule_ignores_the_domain_length():
    # modulated_periodic lives on (0.5, 3.5), and its finest scale at eps
    # 0.005 is eps: 16 / 0.005 elements, so 16 / 3 span a finest scale
    cfg = StudyConfig.load(CONFIGS / "modulated_periodic_resolvent.cfg")
    family = registry.build_family(cfg)
    assert family.domain == Box((0.5,), (3.5,))
    op, mesh = discretize(study._operator_spec(cfg, family), family, 0.005,
                          **study._mesh_opts(cfg))
    assert (mesh["n_elements"], mesh["capped"]) == (3200, False)
    assert op.space.mesh.h == pytest.approx(3.0 / 3200, rel=1e-14)
    assert mesh["finest_scale"] / op.space.mesh.h == pytest.approx(16 / 3)


def test_mesh_rule_respects_minimum():
    n, capped = _mesh_rule(100.0)
    assert n == 64 and not capped


# ---------------------------------------------------------------- spec checks

def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1D(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        Mesh1D(0.0, 1.0, 1)


# ---------------------------------------------------------------- solutions

def load_vector(space, f, refine=4):
    """Right-hand side (f, phi_i) of a function f on the free dofs."""
    mesh = space.mesh
    t, w = _panel_rule(int(max(1, refine)))
    h = mesh.h
    starts = mesh.a + h * np.arange(mesh.n_elements)
    pts = (starts[:, None] + h * t[None, :]).ravel()[:, None]
    vals = np.asarray(f(pts), dtype=complex).reshape(mesh.n_elements, len(t))
    left = h * np.einsum("q,eq->e", w * (1 - t), vals)
    right = h * np.einsum("q,eq->e", w * t, vals)
    full = np.zeros(mesh.n_elements + 1, dtype=complex)
    full[:-1] += left
    full[1:] += right
    return full[1:-1]


def test_nodal_exactness_for_manufactured_solution():
    # 1D Dirichlet Laplacian with exact load integration reproduces the
    # interpolant of the true solution at the nodes
    n = 64
    mesh = build_mesh(UNIT, n)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    f = lambda pts: (np.pi ** 2) * np.sin(np.pi * pts)
    rhs = load_vector(op.space, f, refine=8)
    u = LinearSolver(op.base_form).solve(rhs[:, None])[0][:, 0]
    exact = np.sin(np.pi * mesh.h * np.arange(1, n))
    assert np.abs(u - exact).max() < 1e-10


def test_energy_deficit_decays_quadratically():
    # Galerkin orthogonality: ||u||_a^2 - ||u_h||_a^2 = ||u - u_h||_a^2,
    # which for P1 shrinks like h^2 against the exact energy pi^2/2
    deficits = []
    for n in (32, 64, 128):
        mesh = build_mesh(UNIT, n)
        op = assemble_base(OperatorSpec(UNIT), mesh)
        f = lambda pts: (np.pi ** 2) * np.sin(np.pi * pts)
        rhs = load_vector(op.space, f, refine=8)
        u = LinearSolver(op.base_form).solve(rhs[:, None])[0][:, 0]
        energy = float(np.real(np.vdot(u, op.base_form @ u)))
        deficits.append(np.pi ** 2 / 2.0 - energy)
    assert all(d > 0 for d in deficits)
    assert deficits[0] / deficits[1] == pytest.approx(4.0, rel=0.1)
    assert deficits[1] / deficits[2] == pytest.approx(4.0, rel=0.1)


def test_l2_norm_of_interpolated_constant():
    mesh = build_mesh(UNIT, 40)
    op = assemble_base(OperatorSpec(UNIT), mesh)
    # 1 on every interior node: the function is 1 except on the two end
    # elements, where it ramps from 0 and each contributes h/3
    ones = np.ones(op.dof)
    expect = 1.0 - 2.0 * mesh.h + 2.0 * mesh.h / 3.0
    assert ones @ op.gram_l2 @ ones == pytest.approx(expect, abs=1e-12)


def test_load_vector_of_one_sums_to_measure():
    mesh = build_mesh(UNIT, 17)
    space = FeSpace(mesh)
    rhs = load_vector(space, lambda pts: np.ones_like(pts))
    # the two end nodes, h/2 of the measure each, are not dofs
    assert rhs.sum() + mesh.h == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- solver

def _random_banded(rng, n):
    a = np.diag(rng.uniform(2.0, 3.0, n))
    for off in (1, 2):
        band = rng.uniform(-0.3, 0.3, n - off)
        a += np.diag(band, off) + np.diag(rng.uniform(-0.3, 0.3, n - off), -off)
    return a


def test_solver_reaches_working_precision():
    # dyadic entries and integer solution make b = A x exactly
    # representable, so the forward error is measured against truth
    rng = np.random.default_rng(7)
    n = 80
    a = np.diag(rng.integers(32, 49, n) / 16.0)
    for off in (1, 2):
        a += np.diag(rng.integers(-4, 5, n - off) / 16.0, off)
        a += np.diag(rng.integers(-4, 5, n - off) / 16.0, -off)
    x_true = (rng.integers(-8, 9, n) + 1j * rng.integers(-8, 9, n)).astype(complex)
    b = (a @ x_true)[:, None]
    solver = LinearSolver(sp.csr_matrix(a))
    x, _ = solver.solve_pair(b)
    # refinement drives forward error to roundoff, not just the residual
    fwd = float(np.abs(x[:, 0] - x_true).max() / np.abs(x_true).max())
    assert fwd < 5e-15
    _, r, _ = solver.solve(b)
    assert r.shape == (n, 1)
    assert np.linalg.norm(r) < 1e-12 * np.linalg.norm(b)


def test_reported_residual_is_true_residual():
    rng = np.random.default_rng(3)
    n = 50
    a = _random_banded(rng, n)
    solver = LinearSolver(sp.csr_matrix(a))
    x = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    b = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    got = np.linalg.norm(solver.residual(b, x))
    ref = np.linalg.norm(
        b.astype(np.clongdouble) - a.astype(np.clongdouble) @ x
    )
    assert got == pytest.approx(float(ref), rel=1e-12)


def test_complex_form_raises():
    # the compensated residual covers real forms only; loads may be complex
    a = sp.csr_matrix(np.array([[2.0, 1.0j], [-1.0j, 2.0]]))
    with pytest.raises(NumericalBreach, match="nonzero imaginary entry"):
        LinearSolver(a)
    b = np.array([[1.0j], [1.0]])
    x, _, _ = LinearSolver(a.real).solve(b)
    assert np.allclose(a.real @ x, b, rtol=0, atol=1e-15)


def test_singular_matrix_raises():
    a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(NumericalBreach):
        LinearSolver(a).solve(np.ones((2, 1)))


def test_matrix_norm_is_row_sum():
    a = sp.csr_matrix(np.array([[3.0, -1.0], [0.5, 2.0]]))
    assert LinearSolver(a).matrix_norm == pytest.approx(4.0)


# ------------------------------------------------ compensated residual

_SPLIT = 134217729.0


def _ref_two_prod(a, b):
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


class _RefCompensated:
    def __init__(self, init):
        self.s = np.array(init, dtype=float)
        self.c = np.zeros_like(self.s)

    def add(self, t, lo=0, hi=None):
        s = self.s[lo:hi]
        c = self.c[lo:hi]
        tot = s + t
        big = np.abs(s) >= np.abs(t)
        c += np.where(big, (s - tot) + t, (t - tot) + s)
        s[...] = tot

    def value(self):
        return self.s + self.c


def _ref_dd_residual(matrix, rhs, x):
    """The residual loop as first written, splits per call and Neumaier
    sums of the products p, with each product's error e taken straight
    into the correction, as Dot2 takes it."""
    n = matrix.shape[0]
    dia = sp.dia_matrix(sp.csc_matrix(matrix).astype(complex))
    dia_r = np.ascontiguousarray(dia.data.real)
    xr = np.ascontiguousarray(x.real)
    xi = np.ascontiguousarray(x.imag)
    acc_r = _RefCompensated(rhs.real)
    acc_i = _RefCompensated(rhs.imag)
    for k, off in enumerate(dia.offsets):
        j0 = max(0, off)
        j1 = min(n, n + off)
        if j0 >= j1:
            continue
        dr = dia_r[k, j0:j1]
        o0, o1 = j0 - off, j1 - off
        vr = xr[j0:j1]
        vi = xi[j0:j1]
        p, e = _ref_two_prod(dr, vr)
        acc_r.add(-p, o0, o1)
        acc_r.c[o0:o1] -= e
        p, e = _ref_two_prod(dr, vi)
        acc_i.add(-p, o0, o1)
        acc_i.c[o0:o1] -= e
    return acc_r.value() + 1j * acc_i.value()


def _wide_banded(rng, n):
    """Five real diagonals, at offsets 0, +-1 and +-3."""
    a = np.diag(rng.uniform(2.0, 3.0, n))
    for off in (1, 3):
        a += np.diag(rng.uniform(-0.3, 0.3, n - off), off)
        a += np.diag(rng.uniform(-0.3, 0.3, n - off), -off)
    return a


@pytest.mark.parametrize("complex_", [False, True])
def test_dd_residual_matches_reference_loop(complex_):
    # complex_ picks complex loads and iterates; real ones carry zero
    # imaginary parts through the same accumulators
    rng = np.random.default_rng(11)
    n = 45
    a = _wide_banded(rng, n)
    solver = LinearSolver(sp.csr_matrix(a))
    x = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    b = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    if not complex_:
        x, b = x.real + 0j, b.real + 0j
    # a sign pattern with zeros and a solution-sized residual
    x[::7, 0] = 0.0
    b[:, 1] = a @ x[:, 1]
    block = solver.residual(np.asfortranarray(b), np.asfortranarray(x))
    for j in range(4):
        ref = _ref_dd_residual(a, b[:, j], x[:, j])
        one = solver.residual(b[:, j:j + 1], x[:, j:j + 1])
        assert np.array_equal(one[:, 0], ref)
        assert np.array_equal(block[:, j], ref)


_U = Fraction(1, 2 ** 53)  # unit roundoff of a double


def _dot2_violations(a, b, x, r):
    """Entries of the residual r of A x = b, dense real a and complex
    blocks (n, k), outside the Dot2 bound u |rho| + gamma_m^2 (|b| +
    sum |a| |x|), rho the exact residual, found in rational arithmetic
    on the real and imaginary parts apart.  m = 2 M + 1 for a row of M
    nonzero entries: b, and each product's two parts p and e."""
    bad = []
    for j in range(b.shape[1]):
        for part in ("real", "imag"):
            bj, xj, rj = (getattr(v[:, j], part) for v in (b, x, r))
            for i in range(a.shape[0]):
                cols = np.flatnonzero(a[i])
                prods = [Fraction(a[i, c]) * Fraction(xj[c]) for c in cols]
                rho = Fraction(bj[i]) - sum(prods)
                m = 2 * len(cols) + 1
                gamma = m * _U / (1 - m * _U)
                size = abs(Fraction(bj[i])) + sum(abs(q) for q in prods)
                bound = _U * abs(rho) + gamma ** 2 * size
                if abs(Fraction(rj[i]) - rho) > bound:
                    bad.append((i, j, part))
    return bad


def _residual_cases():
    """(label, a, b, x): a random tridiagonal form, the five-band
    _wide_banded one and the shipped G0 of stabilizing_resolvent's first
    row, each with complex loads in three columns: a random residual, the
    residual of a refined solve, and a solution-sized one, b = fl(A x)."""
    rng = np.random.default_rng(31)
    n = 40
    tri = (np.diag(rng.uniform(2.0, 3.0, n))
           + np.diag(rng.uniform(-1.0, 1.0, n - 1), 1)
           + np.diag(rng.uniform(-1.0, 1.0, n - 1), -1))
    cfg = StudyConfig.load(CONFIGS / "stabilizing_resolvent.cfg")
    family = registry.build_family(cfg)
    setting = assemble_setting(study._operator_spec(cfg, family), family,
                               0.1, **study._mesh_opts(cfg))
    shipped = context_from_setting(setting, -1.0).G0.toarray()
    five = _wide_banded(rng, n)
    for label, a in (("tridiagonal", tri), ("five bands", five),
                     ("shipped G0", shipped)):
        n = a.shape[0]
        solver = LinearSolver(sp.csr_matrix(a))
        x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        x[:, 1] = solver.solve(b[:, 1:2])[0][:, 0]
        b[:, 2] = a @ x[:, 2]
        yield label, a, np.asfortranarray(b), np.asfortranarray(x)


def test_compensated_residual_meets_the_dot2_bound():
    # every entry, boundary rows included, on every case
    for label, a, b, x in _residual_cases():
        solver = LinearSolver(sp.csr_matrix(a))
        assert _dot2_violations(a, b, x, solver.residual(b, x)) == [], label


def test_dot2_bound_refuses_weaker_residuals(monkeypatch):
    # a plain b - A x, or the compensated one with each product's error e
    # dropped, misses the bound on the solution-sized residuals
    cases = list(_residual_cases())
    two_prod = fem._two_prod
    monkeypatch.setattr(fem, "_two_prod",
                        lambda d, v: (two_prod(d, v)[0], 0.0))
    for label, a, b, x in cases:
        for r in (b - a @ x, LinearSolver(sp.csr_matrix(a)).residual(b, x)):
            bad = _dot2_violations(a, b[:, 1:], x[:, 1:], r[:, 1:])
            assert len(bad) > a.shape[0], label


def _passes_per_call(solver, monkeypatch):
    """Column counts of every residual evaluation the solver makes."""
    widths = []
    inner = solver.residual

    def counted(rhs, x):
        widths.append(x.shape[1])
        return inner(rhs, x)

    monkeypatch.setattr(solver, "residual", counted)
    return widths


def test_block_solve_equals_column_solves():
    rng = np.random.default_rng(17)
    n = 60
    # a Laplacian-like band (condition number about 300) with one zero load
    a = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1))
    a += (np.diag(rng.uniform(-0.3, 0.3, n - 3), 3)
          + np.diag(rng.uniform(-0.3, 0.3, n - 3), -3))
    solver = LinearSolver(sp.csr_matrix(a))
    b = np.asfortranarray(rng.standard_normal((n, 4))
                          + 1j * rng.standard_normal((n, 4)))
    b[:, 1] = 0.0
    x, x_lo = solver.solve_pair(b)
    assert x.shape == x_lo.shape == (n, 4)
    _, r, _ = solver.solve(b)
    for j in range(4):
        xj, rj, xj_lo = solver.solve(b[:, j:j + 1])
        assert np.array_equal(x[:, j:j + 1], xj)
        assert np.array_equal(x_lo[:, j:j + 1], xj_lo)
        assert np.array_equal(r[:, j:j + 1], rj)
        assert column_norms(rj) == column_norms(r[:, j:j + 1])
        xj, xj_lo = solver.solve_pair(b[:, j:j + 1])
        assert np.array_equal(x[:, j:j + 1], xj)
        assert np.array_equal(x_lo[:, j:j + 1], xj_lo)


def test_breach_in_one_column_of_a_block_raises(monkeypatch):
    # a residual above the contract in the middle column of three
    rng = np.random.default_rng(6)
    n = 31
    solver = LinearSolver(sp.csr_matrix(_wide_banded(rng, n)))
    b = np.asfortranarray(rng.standard_normal((n, 3))
                          + 1j * rng.standard_normal((n, 3)))
    solver.solve_pair(b)
    inner = solver.solve

    def one_bad_column(rhs):
        x, r, x_lo = inner(rhs)
        r[:, 1] = 1e-3 * rhs[:, 1]
        return x, r, x_lo

    monkeypatch.setattr(solver, "solve", one_bad_column)
    with pytest.raises(NumericalBreach,
                       match=r"linear solve residual .* \(column 1\)"):
        solver.solve_pair(b)


def _near_singular_laplacian(n, delta):
    """tridiag(-1, 2, -1) shifted to within delta of its lowest
    eigenvalue, so its condition number is about 4 / delta."""
    lam = 4.0 * np.sin(np.pi / (2 * (n + 1))) ** 2
    return tridiag(n, -1.0, 2.0 - lam + delta, -1.0)


def _moves_in_pass_two(n_rhs=5, zero=2):
    """A near-singular form and a load block whose random columns the
    second refinement pass moves; the zero-load column it does not."""
    rng = np.random.default_rng(23)
    n = 60
    a = _near_singular_laplacian(n, 1e-9)
    b = np.asfortranarray(rng.standard_normal((n, n_rhs))
                          + 1j * rng.standard_normal((n, n_rhs)))
    b[:, zero] = 0.0
    return a, b


def _ref_refined_solve(solver, a, b):
    """The refined solve of one load as first written: two passes, then a
    third residual and its LU solve for the sub-ulp correction."""
    x = solver._lu_solve(b)
    steps = [x]
    for _ in range(2):
        x = x + solver._lu_solve(_ref_dd_residual(a, b, x))
        steps.append(x)
    r = _ref_dd_residual(a, b, x)
    return steps, r, solver._lu_solve(r)


def _same_bits(u, v):
    return np.array_equal(u.view(np.uint64), v.view(np.uint64))


def test_second_pass_matches_three_residual_reference(monkeypatch):
    a, b = _moves_in_pass_two()
    solver = LinearSolver(sp.csr_matrix(a))
    refs = [_ref_refined_solve(solver, a, b[:, j]) for j in range(5)]
    # the premise: pass 2 moves every random column and not the zero one
    moved = [not _same_bits(steps[1], steps[2]) for steps, _, _ in refs]
    assert moved == [True, True, False, True, True]

    lu_widths = []
    inner_lu = solver._lu_solve

    def counted_lu(rhs, adjoint=False):
        lu_widths.append(rhs.shape[1])
        return inner_lu(rhs, adjoint)

    monkeypatch.setattr(solver, "_lu_solve", counted_lu)
    widths = _passes_per_call(solver, monkeypatch)
    x, r, x_lo = solver.solve(b)
    # the moved columns get the third residual and LU solve at width 4
    assert widths == [5, 5, 4]
    assert lu_widths == [5, 5, 5, 4]
    px, px_lo = solver.solve_pair(b)
    for j, (steps, r_ref, lo_ref) in enumerate(refs):
        for got in (x, px):
            assert _same_bits(got[:, j], steps[2])
        for got in (x_lo, px_lo):
            assert _same_bits(got[:, j], lo_ref)
        assert _same_bits(r[:, j], r_ref)


def test_third_residual_covers_only_the_moved_columns(monkeypatch):
    # a block that pass 2 leaves unchanged takes two residuals, in solve
    # and solve_pair alike
    rng = np.random.default_rng(19)
    n = 40
    solver = LinearSolver(sp.csr_matrix(_wide_banded(rng, n)))
    b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    widths = _passes_per_call(solver, monkeypatch)
    solver.solve(b)
    assert widths == [3, 3]
    widths.clear()
    solver.solve_pair(b)
    assert widths == [3, 3]
    # on a near-singular form the third residual takes the moved columns
    a, b = _moves_in_pass_two(n_rhs=3, zero=0)
    solver = LinearSolver(sp.csr_matrix(a))
    widths = _passes_per_call(solver, monkeypatch)
    solver.solve_pair(b)
    assert widths == [3, 3, 2]


def test_quick_adjoint_solves_the_conjugate_transpose():
    # a nonsymmetric real band, so A^-H b and A^-1 b differ
    rng = np.random.default_rng(29)
    n = 40
    a = _wide_banded(rng, n)
    solver = LinearSolver(sp.csr_matrix(a))
    b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    for rhs in (b, b[:, 0]):
        want = np.linalg.solve(a.conj().T, rhs)
        got = solver.quick(rhs, adjoint=True)
        assert got.shape == rhs.shape
        assert np.allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
        assert not np.allclose(solver.quick(rhs), want, rtol=0, atol=1e-3)
    # on the real forms of a shipped row the transposed solve that quick
    # makes has the bits of the conjugate-transposed one
    cfg = StudyConfig.load(CONFIGS / "stabilizing_resolvent.cfg")
    family = registry.build_family(cfg)
    setting = assemble_setting(study._operator_spec(cfg, family), family,
                               0.025, **study._mesh_opts(cfg))
    ctx = context_from_setting(setting, -1.0)
    n = ctx.dim
    b = np.asfortranarray(rng.standard_normal((n, 2))
                          + 1j * rng.standard_normal((n, 2)))
    for solver in (ctx.solver0, ctx.solver_eps):
        for rhs in (b, b[:, 0]):
            want, info = zgbtrs(solver._lu, solver._u, solver._u, rhs,
                                solver._piv, trans=2)
            assert info == 0
            got = solver.quick(rhs, adjoint=True)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
