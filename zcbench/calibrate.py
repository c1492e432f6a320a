"""Host-speed normalisation of the end-to-end times.

The benchmark host runs the same code at 1.0x to 2x its quiet-period
time, and a slow phase can last the whole of a run or of several runs.
No statistic over one run's own requests removes that: on the build VM
the quartile spread of raw `wall_s` over five seeds was 0.23 to 0.30 of
the median, depending on the workload. The slowdown is not uniform over code:
syscall-heavy work slows most, numpy-heavy work and interpreted complex
arithmetic less.

So the harness times a fixed kernel from this file between requests: a
small-array numpy sum of n^-s over complex s, the shape of the package's
Euler-Maclaurin zeta. Each measured interval is scaled by REFERENCE_S over
the median kernel time within WINDOW_S of the interval. Normalised this
way, the same five-seed spreads fell to 0.02-0.05 on `wall_s`. Of the
kernels tried (interpreted complex arithmetic, pure-Python float
arithmetic, small-file writes, and mixes of these), this one tracked the
requests of all three workloads best.

The kernel is benchmark code, so a change to the package does not move it,
and a change that slows the package shows in full. A change that slowed
the host itself while the package idles between requests (a thread left
running, say) would be scaled away in part; the raw times stay in the
detail file and the summary for that reason.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# The kernel's time at the speed the reported times refer to: about its
# median on the build VM between its fast and slow phases.
REFERENCE_S = 5e-4
# Samples this close to an interval, before or after it, or during it, set
# its speed.
WINDOW_S = 1.0

_N = np.arange(1.0, 65.0)


def kernel() -> complex:
    acc = 0j
    for j in range(40):
        acc += complex(np.sum(_N ** complex(-0.5, -10.0 - j)))
    return acc


class SpeedLog:
    """Kernel timings over a run, in the order they were taken."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter() at each sample's middle
        self.seconds: list[float] = []

    def sample(self, count: int) -> None:
        for _ in range(count):
            start = perf_counter()
            kernel()
            end = perf_counter()
            self.times.append((start + end) / 2)
            self.seconds.append(end - start)

    def normalised(self, start: float, seconds: float) -> float:
        """`seconds`, measured from `start`, at the reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return seconds * REFERENCE_S / statistics.median(near)

    def summary(self) -> dict:
        ordered = sorted(self.seconds)
        return {"samples": len(ordered), "median_s": statistics.median(ordered),
                "min_s": ordered[0], "max_s": ordered[-1], "reference_s": REFERENCE_S,
                "window_s": WINDOW_S}
