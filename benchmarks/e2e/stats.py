"""Order statistics the benchmark reports, computed from raw samples.

Nothing here reads a ``repro.obs`` histogram: every latency is a
``perf_counter`` difference the driver took itself, and quantiles are
taken over the exact samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def iqr_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` so the number printed
    beside a metric is the one the acceptance rule computes.  Fewer than
    two values, or a zero median, have no spread to speak of.
    """
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    if mid == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(mid)


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def degraded_seconds(
    due_and_response: Iterable[tuple[float, float]],
    bucket_s: float,
    limit_s: float,
) -> float:
    """Seconds of run whose requests' p95 response time exceeds the limit.

    Requests are bucketed by their *due* time (open loop), ``bucket_s``
    wide; a failed request is passed with an infinite response time.
    """
    buckets: dict[int, list[float]] = {}
    for due, response in due_and_response:
        buckets.setdefault(int(due / bucket_s), []).append(response)
    bad = sum(
        1 for samples in buckets.values() if percentile(samples, 0.95) > limit_s
    )
    return bad * bucket_s
