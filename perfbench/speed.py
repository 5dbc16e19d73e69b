"""Machine-speed gauge: scales wall times to a reference speed.

The 2-core shared host this benchmark was written on runs the same
code up to 1.5x faster or slower from one ten-second window to the
next, which spreads any wall time over ten runs by 10-50%.  A fixed
kernel that uses none of coupledwell is timed between groups of
requests, and each request's wall time is multiplied by the kernel's
reference time over the median of the readings nearest to it (WINDOW
on each side; one reading alone wavers by ~10%).  A request that takes
twice the work still reads twice as long, while most of the host's
drift cancels.  The raw wall times are kept in the result file.

The host's neighbours slow cache-bound and compute-bound code by
different amounts, so each workload's kernel does the kind of work its
requests do: a dense complex eigensolve with eigenvectors of the size
of the oracle's coarse grids for `oracle`, and a small eigensolve plus
a pure-Python loop (scalar root finding, small arrays, interpreter
start-up) for the others.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

WINDOW = 1

# workload: (matrix size, eigenvectors too, Python loop iterations,
# median kernel seconds on a 2-core Intel Xeon (KVM guest) with one
# BLAS thread, Python 3.11, numpy 2.4, scipy 1.17).  Only the ratio of
# two scaled figures matters, so the reference stays fixed when the
# machine changes.
KERNELS = {
    "cli-short": (128, False, 200_000, 0.040),
    "closed-form": (128, False, 200_000, 0.040),
    "oracle": (254, True, 0, 0.120),
}


class SpeedGauge:
    def __init__(self, workload: str):
        n, self.vectors, self.loop, self.reference_s = KERNELS[workload]
        rng = np.random.default_rng(2005)
        self.matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self.samples: list[float] = []

    def measure(self) -> float:
        """Time the kernel once; returns seconds and keeps the sample."""
        t0 = time.perf_counter()
        scipy.linalg.eig(self.matrix, right=self.vectors)
        total = 0
        for i in range(self.loop):
            total += i * i % 7
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def factors(self, readings: list[float]) -> list[float]:
        """Factor from wall to reference seconds for each interval between
        two consecutive readings."""
        out = []
        for i in range(len(readings) - 1):
            near = readings[max(0, i - WINDOW):i + WINDOW + 2]
            out.append(self.reference_s / statistics.median(near))
        return out
