"""Basic Block Vectors (BBVs) and random projection.

A BBV is the offline analogue of the hardware signature: one dimension
per static basic block, weighted by the instructions executed in that
block during the interval, normalized to sum to 1 (Sherwood et al.,
ASPLOS 2002). SimPoint reduces the (often 100k+-dimensional) BBV space
with a random linear projection to ~15 dimensions before clustering;
random projection approximately preserves relative distances
(Johnson-Lindenstrauss) while making k-means tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.workloads.trace import IntervalTrace


@dataclass
class BBVMatrix:
    """Per-interval basic block vectors in a dense matrix.

    ``matrix`` is (intervals x blocks), rows normalized to sum to 1.
    ``block_pcs`` maps columns back to static branch PCs.
    """

    matrix: np.ndarray
    block_pcs: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise TraceError("BBV matrix must be 2-D")
        if self.matrix.shape[1] != self.block_pcs.shape[0]:
            raise TraceError(
                "BBV matrix columns must match block_pcs length"
            )

    @property
    def num_blocks(self) -> int:
        return int(self.matrix.shape[1])


def build_bbv_matrix(trace: IntervalTrace) -> BBVMatrix:
    """Collect the full-dimensional BBV matrix of a trace.

    Every static branch PC observed anywhere in the trace gets one
    column; each row is the interval's per-block instruction weights,
    normalized so rows sum to 1.
    """
    index: Dict[int, int] = {}
    for interval in trace:
        for pc in interval.branch_pcs.tolist():
            if pc not in index:
                index[pc] = len(index)
    if not index:
        raise TraceError("trace contains no branch records")

    matrix = np.zeros((len(trace), len(index)), dtype=np.float64)
    for row, interval in enumerate(trace):
        columns = [index[int(pc)] for pc in interval.branch_pcs]
        matrix[row, columns] = interval.instr_counts
        total = matrix[row].sum()
        if total <= 0:
            raise TraceError(f"interval {row} has zero instruction weight")
        matrix[row] /= total

    block_pcs = np.empty(len(index), dtype=np.int64)
    for pc, column in index.items():
        block_pcs[column] = pc
    return BBVMatrix(matrix=matrix, block_pcs=block_pcs)


def random_projection(
    matrix: np.ndarray, dimensions: int = 15, seed: int = 42
) -> np.ndarray:
    """Project rows onto ``dimensions`` random directions.

    Uses the dense Gaussian projection SimPoint describes; the seed is
    fixed by default so classifications are reproducible.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ConfigurationError("matrix must be 2-D")
    if dimensions <= 0:
        raise ConfigurationError(
            f"dimensions must be positive, got {dimensions}"
        )
    if dimensions >= matrix.shape[1]:
        # Projection to >= original dimensionality is the identity in
        # spirit; return the original data to avoid inflating noise.
        return matrix.copy()
    rng = np.random.default_rng(seed)
    projector = rng.normal(
        scale=1.0 / np.sqrt(dimensions), size=(matrix.shape[1], dimensions)
    )
    return matrix @ projector
