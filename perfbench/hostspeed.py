"""Host speed, measured by a fixed pure-Python kernel next to the timed work.

On a host whose cores are shared, the same code can run over 1.5 times
slower for seconds to minutes at a time, so wall-clock times of one build
differ from run to run by more than the regressions the benchmark must
catch.  ``HostSpeed`` times ``kernel`` between operations and scales each
measured interval by REF_S / (kernel time around it): the result is the
time the work would take on a host that runs the kernel in REF_S.  The
kernel is the benchmark's own code, so a change to the package leaves it
alone and shows in full in the scaled times.
"""

from __future__ import annotations

import time

EVERY_S = 0.25  # sample the kernel again once this long has passed
REPEATS = 3  # a sample is the fastest of this many kernel runs
REF_S = 1.0e-3  # the reference host runs the kernel in one millisecond


def kernel() -> int:
    """Fraction-free (Bareiss) elimination of a fixed 18 x 18 integer
    matrix, then a float recurrence: the integer and float interpreter work
    the package does."""
    n = 18
    m = [[(i * 7 + j * 3) % 11 - 5 + 9 * (i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        row_k, pivot = m[k], m[k][k]
        for i in range(k + 1, n):
            row_i, mik = m[i], m[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    x = 0.5
    for _ in range(8000):
        x = 3.7 * x * (1.0 - x)
    return m[-1][-1] + int(x * 1e6)


def kernel_s() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """``record(series, wall)`` appends ``wall`` to ``series``; the entry is
    rescaled in place at the next kernel sample, by REF_S over the mean of
    the samples before and after it.  Call ``tick`` between timed
    intervals, ``sample`` to force a sample, and ``close`` at the end."""

    def __init__(self):
        self.samples: list[float] = []
        self._pending: list[tuple] = []
        self.sample()

    def sample(self) -> None:
        k = kernel_s()
        if self._pending:
            scale = REF_S / ((self.samples[-1] + k) / 2)
            for series, i in self._pending:
                series[i] *= scale
            self._pending.clear()
        self.samples.append(k)
        self._at = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._at >= EVERY_S:
            self.sample()

    def record(self, series: list, wall: float) -> None:
        series.append(wall)
        self._pending.append((series, len(series) - 1))

    def close(self) -> None:
        self.sample()
