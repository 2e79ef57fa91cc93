"""Signature similarity: Manhattan distance and its relative form.

The paper compares signatures with the Manhattan (L1) distance (§4.1
step 3) and states thresholds as percentages: "a signature must differ
from a past signature by less than 12.5%".

The normalization turning an absolute L1 distance into that percentage
is not spelled out in the paper; we normalize by the sum of the two
signatures' total weights::

    relative = manhattan(a, b) / (total(a) + total(b))

which has the properties the thresholds imply: identical signatures are
0% different, signatures with disjoint support are 100% different, and
the measure is symmetric. The choice is pluggable — pass a different
``normalizer`` to :func:`relative_distance` to explore alternatives
(an ablation in ``benchmarks/bench_ablation_distance.py``).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.core.signature import Signature

_VectorLike = Union[Signature, np.ndarray]

#: Normalizer: (total_a, total_b) -> positive denominator.
Normalizer = Callable[[int, int], float]


def _as_array(value: _VectorLike) -> np.ndarray:
    if isinstance(value, Signature):
        return value.values
    return np.asarray(value, dtype=np.int64)


def manhattan_distance(a: _VectorLike, b: _VectorLike) -> int:
    """The L1 distance between two signature vectors."""
    va, vb = _as_array(a), _as_array(b)
    if va.shape != vb.shape:
        raise ValueError(
            f"signatures have different dimensions: {va.shape} vs {vb.shape}"
        )
    return int(np.abs(va - vb).sum())


def sum_normalizer(total_a: int, total_b: int) -> float:
    """Default: normalize by the combined weight of both signatures."""
    return float(max(total_a + total_b, 1))


def max_normalizer(total_a: int, total_b: int) -> float:
    """Alternative: normalize by twice the heavier signature's weight.

    Since ``2 * max(a, b) >= a + b``, this is slightly *looser* than
    :func:`sum_normalizer` when the two signatures' totals differ.
    """
    return float(max(2 * max(total_a, total_b), 1))


def relative_distance(
    a: _VectorLike,
    b: _VectorLike,
    normalizer: Normalizer = sum_normalizer,
) -> float:
    """Manhattan distance as a fraction in [0, 1].

    0.0 means identical; 1.0 (under the default normalizer) means the
    signatures share no weight at all.
    """
    va, vb = _as_array(a), _as_array(b)
    distance = manhattan_distance(va, vb)
    return distance / normalizer(int(va.sum()), int(vb.sum()))


def relative_distance_matrix(
    matrix: np.ndarray,
    vector: np.ndarray,
    normalizer: Normalizer = sum_normalizer,
    row_totals: Optional[np.ndarray] = None,
    vector_total: Optional[int] = None,
) -> np.ndarray:
    """Vectorized relative distance of one signature against many.

    ``matrix`` is (entries x dims); ``vector`` is (dims,). Returns a
    float array of length ``entries``. This is the hot path of the
    classifier, hence the batch form. A caller that already knows the
    rows' and the vector's component sums (a signature table reads
    them from its :class:`Signature` objects) passes them as
    ``row_totals`` and ``vector_total`` instead of having them summed
    again.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    vector = np.asarray(vector, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[1:] != vector.shape:
        raise ValueError(
            f"shape mismatch: matrix {matrix.shape} vs vector {vector.shape}"
        )
    distances = np.abs(matrix - vector).sum(axis=1)
    if row_totals is None:
        row_totals = matrix.sum(axis=1)
    if vector_total is None:
        vector_total = int(vector.sum())
    # Dividing by integer denominators converts both sides to float64,
    # exactly as the normalizers' float results would be.
    if normalizer is sum_normalizer:  # vectorized hot path
        denominators = np.maximum(row_totals + vector_total, 1)
    elif normalizer is max_normalizer:
        denominators = np.maximum(2 * np.maximum(row_totals, vector_total), 1)
    else:
        denominators = np.array(
            [normalizer(int(t), vector_total) for t in row_totals],
            dtype=np.float64,
        )
    return distances / denominators
