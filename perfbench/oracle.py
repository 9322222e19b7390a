"""Dense reference values for the norms and the coercivity bound studies report.

homlab computes every norm by power iteration and the coercivity constant
c4 by shift-inverted power iteration.  Here the same operands are rebuilt
from homlab's public assembly functions and measured densely:

* an induced norm between H1 and its dual is the spectral norm of a dense
  matrix in the Cholesky frame S = C C^H of the H1 Gram:
  kappa = |C^H (G_eps^-1 - G_0^-1) C|, |L|_{H1->H1*} = |C^-1 L C^-H|;
* the resolvent difference uses the exact identity
  G_eps^-1 - G_0^-1 = -G_0^-1 L G_eps^-1, so nothing cancels;
* c4 must not exceed the smallest eigenvalue of any pencil (H, S), H the
  Hermitian part of a shifted form the coercivity search examined.

Dense work grows like dof^3, so only rows with at most DOF_CAP degrees
of freedom are checked.  On stabilizing_resolvent the forms up to 639 dof
already bring the dense minimum below the reported c4.
"""

from collections import namedtuple

import numpy as np
import scipy.linalg as sla

DOF_CAP = 639
REL_TOL = 1e-8
# the operands here have norms of order one; a few hundred ulps of that
# covers the rounding of the dense reference itself
ULP_FLOOR = 64 * np.finfo(float).eps

Check = namedtuple("Check", "label lab ref gap ok bound")


def _dense(mat):
    arr = mat.toarray()
    return arr.real.copy() if not arr.imag.any() else arr


def _norm2(mat):
    return float(sla.svdvals(mat, check_finite=False)[0])


def _frame(gram_h1):
    """Lower Cholesky factor of the H1 Gram and its inverse."""
    chol = sla.cholesky(_dense(gram_h1), lower=True)
    inv = sla.solve_triangular(chol, np.eye(chol.shape[0]), lower=True)
    return chol, inv


def _form_norm(mat, inv):
    """|mat| as a map from H1 to its dual."""
    return _norm2(inv @ _dense(mat) @ inv.conj().T)


def _load(config_path):
    from homlab import registry, study
    from homlab.config import StudyConfig

    cfg = StudyConfig.load(config_path)
    family = registry.build_family(cfg)
    return (cfg, family, study._operator_spec(cfg, family),
            study._mesh_opts(cfg), study._schedule(cfg))


def resolvent_reference(config_path, lam):
    """Dense kappa and norm_L per capped row, and the smallest eigenvalue
    over the capped forms when the config searches its shift."""
    from homlab.resolvent import assemble_setting, context_from_setting

    cfg, family, spec, opts, schedule = _load(config_path)
    searched = cfg.get("operator.shift", None) == "auto"
    rows = []
    lambda_min = None
    for eps in schedule:
        setting = assemble_setting(spec, family, eps, **opts)
        op = setting["op"]
        if op.dof > DOF_CAP:
            rows.append(None)
            continue
        chol, inv = _frame(op.gram_h1)
        ctx = context_from_setting(setting, lam)
        diff = _dense(ctx.L)
        # (G_eps^-1 - G_0^-1) C, by the identity
        diff_chol = -sla.solve(_dense(ctx.G0),
                               diff @ sla.solve(_dense(ctx.Geps), chol))
        rows.append({
            "dof": op.dof,
            "kappa": _norm2(chol.conj().T @ diff_chol),
            "norm_L": _form_norm(ctx.L, inv),
        })
        if searched:
            gram = _dense(op.gram_h1)
            for x in (setting["x_eps"], setting["x_lim"]):
                form = _dense(op.base_form + x - lam * op.gram_l2)
                herm = 0.5 * (form + form.conj().T)
                low = float(sla.eigh(herm, gram, eigvals_only=True,
                                     subset_by_index=[0, 0])[0])
                lambda_min = low if lambda_min is None else min(lambda_min,
                                                                low)
    return {"rows": rows, "lambda_min": lambda_min}


def norm_reference(config_path):
    """Dense norm_x per capped row of a norm study."""
    from homlab.fem import (assemble_base, assemble_triple, build_mesh,
                            mesh_rule, perturbation_refine)
    from homlab.resolvent import deviation_triple

    _, family, spec, opts, schedule = _load(config_path)
    rows = []
    for eps in schedule:
        finest = family.finest_scale(eps)
        n, _ = mesh_rule(finest, ncomp=family.ncomp, **opts)
        op = assemble_base(spec, build_mesh(family.domain, n))
        if op.dof > DOF_CAP:
            rows.append(None)
            continue
        refine = perturbation_refine(op.space, finest)
        pert = assemble_triple(op.space, deviation_triple(family, eps),
                               refine)
        _, inv = _frame(op.gram_h1)
        rows.append({"dof": op.dof,
                     "norm_x": _form_norm(pert.matrix, inv)})
    return {"rows": rows, "lambda_min": None}


def compare(name, rows, info, ref):
    """Checks of one study's rows and notes against its dense reference."""
    out = []
    for row, want in zip(rows, ref["rows"]):
        if want is None:
            continue
        for key, val in want.items():
            if key == "dof":
                continue
            lab = row[key]
            gap = abs(lab - val)
            ok = gap <= REL_TOL * abs(val) + ULP_FLOOR
            out.append(Check(f"{name} eps={row['eps']:g} {key}", lab, val,
                             gap / abs(val), ok, False))
    if ref["lambda_min"] is not None and "coercivity_c4" in info:
        c4 = float(info["coercivity_c4"])
        low = ref["lambda_min"]
        ok = c4 <= low + REL_TOL * abs(low) + ULP_FLOOR
        out.append(Check(f"{name} coercivity_c4 <= dense lambda_min", c4,
                         low, (c4 - low) / abs(low), ok, True))
    return out


class Oracle:
    """Dense references, each computed once per (config, shift)."""

    def __init__(self, config_dir):
        self.config_dir = config_dir
        self._refs = {}

    def reference(self, name, kind, info):
        if kind == "resolvent":
            lam = float(info["shift"])
        elif kind == "norm":
            lam = None
        else:
            return None
        key = (name, lam)
        if key not in self._refs:
            path = f"{self.config_dir}/{name}.cfg"
            self._refs[key] = (resolvent_reference(path, lam)
                               if kind == "resolvent"
                               else norm_reference(path))
        return self._refs[key]

    def check(self, name, kind, rows, info):
        ref = self.reference(name, kind, info)
        return [] if ref is None else compare(name, rows, info, ref)
