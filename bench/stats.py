"""Percentiles for benchmark timings.

A timing is reported as its median and as the highest of ``PERCENTILES``
that still has at least ``MIN_BEYOND`` samples above it, so a tail figure
never rests on a handful of samples.

Percentiles are Harrell-Davis estimates: a weighted mean of all order
statistics, with weights from a Beta distribution centred on the
percentile.  The 131 row times of the default suite are unevenly spaced,
with gaps of 5-10% between neighbouring rows near the median, and each
row varies by about 11% between runs on a shared host.  A single order
statistic then jumps from one row to the next between runs; the weighted
mean moves smoothly.  On two sets of ten runs of the default suite the
quartile spread of the median row time fell from 0.105 and 0.179
(interpolated order statistic) to 0.049 and 0.119.
"""

from __future__ import annotations

import math

import numpy as np

#: at least this many integration points for the Beta weights; a large
#: sample gets one point per sample
_POINTS = 4096

PERCENTILES = (50.0, 90.0, 99.0)
MIN_BEYOND = 10


def _position(n: int, q: float) -> float:
    """0-based position of the q-th percentile among n sorted samples."""
    return q / 100.0 * (n - 1)


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile, 0 < q < 100.

    The i-th of n sorted samples gets the weight of the Beta((n+1)p,
    (n+1)(1-p)) distribution on ((i-1)/n, i/n), with p = q/100.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    if len(xs) == 0:
        raise ValueError("no samples")
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} is not inside (0, 100)")
    n, p = len(xs), q / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = -(-_POINTS // n)
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ xs / weights.sum())


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie wholly above the q-th percentile."""
    return n - 1 - math.floor(_position(n, q))


def tail_percentile(n: int) -> float:
    """Highest of PERCENTILES with at least MIN_BEYOND of n samples beyond it."""
    usable = [q for q in PERCENTILES if samples_beyond(n, q) >= MIN_BEYOND]
    if not usable:
        raise ValueError(f"{n} samples are too few for a percentile with "
                         f"{MIN_BEYOND} samples beyond it")
    return usable[-1]

