"""Machine-speed calibration.

On the shared 2-vCPU host where this benchmark was written, a fixed loop of
small eigensolves slowed by up to 2x for stretches of seconds to minutes,
and process CPU time slowed with it, so raw wall times of the same code
spread by 15-40% between runs.  The benchmark therefore times a fixed
calibration slice (4x4 eigensolves and matmuls driven from Python, the
same mix as the kernel's per-call work on small algebras) between units of
work, and scales each unit's time by ``REFERENCE_S / slice time``.  The
result reads as time at the reference speed; the raw times are kept in the
run notes.  In a 90 s test on that host the quartile spread of 5 s blocks
of seq_product calls fell from 0.28 of the median (raw) to 0.04 (scaled).
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np
from numpy.linalg import eigh  # bound now, so a tracer's wrapper never times it

#: slice time on the reference machine (quiet 2.1 GHz x86_64 vCPU, OpenBLAS, 1 thread)
REFERENCE_S = 0.0025
_ROUNDS = 300
_M = np.random.default_rng(0).standard_normal((4, 4))
_M = _M + _M.T


def slice_s() -> float:
    """Seconds taken by one calibration slice now."""
    t0 = perf_counter()
    for _ in range(_ROUNDS):
        eigh(_M)
        _M @ _M
    return perf_counter() - t0


def scale(slices) -> float:
    """Factor turning raw seconds into reference seconds, from nearby slices.

    The median ignores a slice that an interrupt happened to lengthen.
    """
    return REFERENCE_S / median(slices)


def unit_factors(slices, units: int, reach: int = 2) -> list[float]:
    """Factors for ``units`` units of work, unit k run between slices k and k+1.

    Each unit uses the slices within ``reach`` of its two neighbours.
    """
    return [scale(slices[max(0, k - reach):k + 2 + reach]) for k in range(units)]
