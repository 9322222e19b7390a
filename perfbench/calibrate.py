"""Host speed probe, for wall times that do not move with the host.

On a shared 2-core VM the same study at the same seed runs up to 1.8x
slower for minutes at a time, with no change in the work done.
calibrate() times a fixed piece of work made of what homlab's hot loops
are made of: sparse LU solves on a small tridiagonal system, small dense
eigenproblems and plain Python arithmetic.  Its time follows the host's
speed.  Over 15 s windows on such a host, a sin_norm pass took 0.130 to
0.238 s while its ratio to the probe stayed within 24.0 to 27.6.

host_scaled() turns a measured time into the time on a host where the
probe takes REFERENCE_S, using the median probe time of the same run.
"""

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# the probe's time on a 2-core Xeon VM (Sapphire Rapids) in its faster state
REFERENCE_S = 0.012

_N = 255
_LU = spla.splu(sp.diags(
    [-np.ones(_N - 1), 2.5 * np.ones(_N), -np.ones(_N - 1)], [-1, 0, 1],
    format="csc", dtype=complex))
_BLOCK = np.random.default_rng(0).standard_normal((_N, 6))


def calibrate(rounds=300):
    """Seconds taken by a fixed mix of solves, small dense work and Python."""
    start = time.perf_counter()
    x = np.ones(_N, dtype=complex)
    for _ in range(rounds):
        x = _LU.solve(x)
        x = x / np.linalg.norm(x)
        np.linalg.eigh(_BLOCK.T @ _BLOCK)
        acc = 0.0
        for k in range(40):
            acc += k * 0.5
    return time.perf_counter() - start


def host_scaled(seconds, probes):
    """seconds as they would read on a host where the probe takes
    REFERENCE_S, given the probe times measured in the same run."""
    return seconds * REFERENCE_S / statistics.median(probes)
