"""Test-session setup, loaded by pytest before any test module.

Dense LAPACK calls in the tests (generalized eigh, SVD oracles) run on
every OpenBLAS thread by default; next to another busy process that made
a 639-dof complex eigh take seconds instead of a fraction of one.  The
thread count is read once, when numpy loads, so it is pinned here.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
