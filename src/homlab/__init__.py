"""Numerical lab for homogenization of lower-order coefficient
perturbations: cell criteria, multiplier norms, resolvent convergence,
and truncated perturbation series, on 1D finite elements with
mesh-independent metric norms.

OpenBLAS and OpenMP are pinned to one thread unless the environment says
otherwise, before anything loads NumPy: the bytes of a study's CSV then do
not depend on the host's core count, and parallelism comes from the row
workers of --threads.  The count is read once, when the library loads, so
a program that imports NumPy before homlab keeps its own setting.  The
pin also comes before SciPy's bundled OpenBLAS, which loads later, at the
first study that discretizes the operator (norm, resolvent, neumann).
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"
