"""The benchmark's own arithmetic: percentiles, the tail rule, ratios with bases."""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles the tail rule considers, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``p`` percentile."""
    return count - max(1, math.ceil(p / 100.0 * count))


def tail_percentile(samples: Sequence[float], min_beyond: int = 10) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(p, value, sample count)``, or None when even the median has
    fewer than ``min_beyond`` samples above it.
    """
    for p in TAIL_LADDER:
        if beyond(len(samples), p) >= min_beyond:
            return p, percentile(samples, p), len(samples)
    return None


def ratio(numerator: float, base: float) -> Dict[str, float]:
    """A ratio reported together with its base; 0 when the base is empty."""
    return {"value": numerator / base if base else 0.0, "base": base}
