"""Summary statistics shared by the worker and the report."""
from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> dict:
    """Median and the highest whole percentile that has at least ten samples
    beyond it, with the sample count; the percentile is None below 20
    samples, where it would not lie above the median."""
    values = sorted(values)
    n = len(values)
    out = {"median": median(values) if n else None, "n": n,
           "pct": None, "value": None}
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    if pct >= 50:
        # nearest-rank percentile: at least ten samples lie above it
        out["pct"] = pct
        out["value"] = values[min(n - 11, math.ceil(pct / 100 * n) - 1)]
    return out
