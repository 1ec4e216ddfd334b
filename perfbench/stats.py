"""Percentiles that are only reported when the tail is populated."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: A percentile above the median is reported only with at least this many
#: samples beyond it.
MIN_TAIL_SAMPLES = 10


def nearest_rank(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """The nearest-rank ``q``-th percentile and how many samples lie beyond it."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(samples: Sequence[float]) -> float:
    """The 50th percentile (nearest rank)."""
    return nearest_rank(samples, 50)[0]


def percentile(samples: Sequence[float], q: float) -> Tuple[float, str]:
    """``(value, note)``; the note gives the sample count beside the value.

    A percentile above the median with fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond it is not reported: its value
    is 0 and the note says why.
    """
    if not samples:
        return 0.0, "no samples"
    value, beyond = nearest_rank(samples, q)
    if q > 50 and beyond < MIN_TAIL_SAMPLES:
        return 0.0, (f"p{q} not reported: {len(samples)} samples, "
                     f"{beyond} beyond")
    return value, f"p{q} of {len(samples)} samples, {beyond} beyond"
