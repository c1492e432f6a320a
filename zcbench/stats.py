"""Order statistics used for the reported figures.

The benchmark host runs the same request at 1.0x to 2x its quiet-period
time. The harness scales each time to a reference host speed first
(calibrate.py); what is left still varies from repeat to repeat. Each pass
repeats the same requests, so a request's cost is taken as the median of
its repeats. The fastest repeat was tried first, on raw times, and spread
more from run to run: it depends on whether, and how often, a run happens
to catch a fast moment.
"""

from __future__ import annotations

import math
import statistics


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule; works with +inf entries."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_seconds(passes: list[list]) -> list[float]:
    """Per request (passes list the same records in the same order), the
    median of its repeats' `seconds`, whatever their status."""
    return [statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0]))]


def latencies(passes: list[list]) -> list[float]:
    """Per request, the median of its repeats; +inf if it did not succeed
    in every pass, so that a failure, even an intermittent one, misses
    every latency limit."""
    return [
        t if all(p[i].status == "ok" for p in passes) else math.inf
        for i, t in enumerate(median_seconds(passes))
    ]
