"""Order statistics the benchmark reports.

A percentile is only reported when the sample supports it: at least
ten samples must lie beyond it, otherwise :func:`percentile` refuses.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by the nearest-rank rule.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_BEYOND` samples lie strictly above the rank it returns.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return sorted(values)[rank - 1]
