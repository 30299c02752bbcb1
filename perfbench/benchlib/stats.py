"""Small statistics helpers shared by the workloads and the trace report."""
from __future__ import annotations

import math
import statistics

# percentiles tried, highest first, by ``tail_percentile``
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(sorted_values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile of already sorted values, with the number of
    samples strictly after its rank."""
    n = len(sorted_values)
    # rounded so that e.g. 99 % of 1000 is rank 990, not 991
    rank = max(1, math.ceil(round(p * n / 100.0, 9)))
    return float(sorted_values[rank - 1]), n - rank


def tail_percentile(values) -> tuple[float, float] | None:
    """The highest percentile of the ladder that leaves at least ten samples
    beyond it, as (percentile, value); None when there are too few samples
    for any of them."""
    ordered = sorted(values)
    for p in PERCENTILE_LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= MIN_BEYOND:
            return p, value
    return None


def timing_summary(values) -> dict:
    """Median, tail percentile and sample count of a list of timings."""
    values = list(values)
    doc = {"n": len(values), "p50": median(values)}
    tail = tail_percentile(values)
    if tail is not None:
        doc["tail_pct"], doc["tail"] = tail
    return doc

