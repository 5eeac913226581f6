"""Machine-speed reference for timing on a shared host.

On a small shared VM the effective CPU speed drifts by tens of percent
over minutes, which swamps the differences the benchmark must resolve.
``reference_s`` times a fixed mix of interpreter and numpy work right next
to each measured interval, and ``at_reference_speed`` rescales the interval
to the speed at which that mix takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

# the reference mix on an idle 2-vCPU x86-64 VM (Python 3.11, numpy 2.4)
REFERENCE_S = 0.008


def calibrate() -> float:
    """Seconds for one run of the fixed mix; allocates under 300 kB."""
    start = time.perf_counter()
    total = 0
    for k in range(100_000):
        total += k * k
    buf = np.ones(1 << 15)
    for _ in range(60):
        np.add(buf, 1.0, out=buf)
        np.sqrt(buf, out=buf)
    return time.perf_counter() - start


def reference_s() -> float:
    """Median of three calibration runs."""
    return sorted(calibrate() for _ in range(3))[1]


def at_reference_speed(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference
