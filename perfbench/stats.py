"""Sample summaries: the median and the tail percentile the sample supports."""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """1-based rank of the highest order statistic with at least
    ``beyond`` samples above it, or ``None`` when ``n`` is too small."""
    k = n - beyond
    return k if k >= 1 else None


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND):
    """``(percentile, value)`` of the highest supported tail, or
    ``(None, None)``.  The percentile is ``100 * rank / n``."""
    k = tail_rank(len(values), beyond)
    if k is None:
        return None, None
    s = sorted(values)
    return 100.0 * k / len(s), s[k - 1]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    s = sorted(values)
    if not s:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """``{"n", "p50", "tail_pct", "tail"}`` for one timing sample."""
    pct, value = tail(values)
    return {
        "n": len(values),
        "p50": median(values) if values else None,
        "tail_pct": pct,
        "tail": value,
    }
