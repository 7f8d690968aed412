"""Order statistics for latency samples."""

from __future__ import annotations

import math

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than MIN_BEYOND samples above it."""
    ordered = sorted(samples)
    count = len(ordered)
    rank = max(1, math.ceil(pct / 100 * count))
    beyond = count - rank
    if not count or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {count} samples has {max(beyond, 0)} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ordered[rank - 1]
