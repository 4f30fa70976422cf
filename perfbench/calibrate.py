"""Machine-speed calibration for the benchmark's request times.

The benchmark runs on shared machines whose speed drifts by up to half
over minutes: a fixed kernel timed back to back for four minutes varied
by 0.2 (interquartile range over median) between 10-second blocks, and
requests of every workload moved with it.  The worker therefore times
``kernel_seconds()``, which shares no code with ``wmpath``, after every
request, and scales each request's latency by ``REFERENCE_S`` over the
median of the kernel times around it (``window``).  The result reads as
the time the request would take on a machine where the kernel takes
``REFERENCE_S``.  A set-up probe times the kernel in its own process,
after set-up, and is scaled the same way.  Raw times are printed too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel time on the machine the baseline was measured on (2-vCPU shared
# VM, Intel Xeon, Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31, one
# BLAS thread), in a fast phase; only the unit of the scaled times
# depends on it
REFERENCE_S = 2.0e-3
ROUNDS = 16
# kernel times on each side of a request that its scale is taken from
WINDOW = 3

_MATRIX = np.random.default_rng(20151113).normal(size=(16, 16))
_MATRIX = _MATRIX + _MATRIX.T


def kernel_seconds() -> float:
    """Wall time of ROUNDS rounds of the three kinds of work wmpath does.

    Each round is interpreted Python arithmetic, one small LAPACK call and
    one small numpy ufunc with a reduction.
    """
    start = time.perf_counter()
    for _ in range(ROUNDS):
        total = 0
        for i in range(1000):
            total += i * i % 7
        np.linalg.eigh(_MATRIX)
        np.exp(1j * _MATRIX).sum()
    return time.perf_counter() - start


def window(kernel_times: list[float], index: int) -> float:
    """The median kernel time around request ``index``.

    ``kernel_times[i]`` was measured just before request ``i`` and
    ``kernel_times[i + 1]`` just after it; the window takes WINDOW of each.
    """
    return statistics.median(kernel_times[max(0, index - WINDOW + 1):index + WINDOW + 1])
