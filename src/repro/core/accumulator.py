"""The accumulator table: per-interval code-signature collection.

The hardware front-end (paper §4.1 steps 1-2) records each committed
branch PC together with the number of instructions committed since the
previous branch; the PC is hashed into one of N saturating counters and
the counter is incremented by the instruction count. At the end of each
interval the counters form the interval's raw code signature.

This implementation batches the per-branch updates with ``np.bincount``,
which is arithmetically identical to the sequential hardware update
(addition commutes) but orders of magnitude faster in Python. A batch
that crosses interval boundaries is hashed once and summed one
interval's stretch at a time.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.core.config import ACCUMULATOR_BITS

#: Knuth's multiplicative hash constant (2^32 / golden ratio).
_HASH_MULTIPLIER = np.uint64(2654435761)
_HASH_MASK = np.uint64(0xFFFF_FFFF)

#: Largest per-bucket sum that a float64 ``np.bincount`` accumulates
#: exactly (53-bit mantissa); beyond it the batch path falls back to an
#: integer scatter-add.
_EXACT_FLOAT_SUM = 1 << 53


def validate_num_counters(num_counters: int) -> None:
    """Reject counter counts that are not positive powers of two.

    Validation lives here (and in :class:`AccumulatorTable.__init__`)
    rather than inside the per-call hash path; direct users composing
    their own tables can call it once up front.
    """
    if num_counters <= 0 or num_counters & (num_counters - 1):
        raise ConfigurationError(
            f"num_counters must be a positive power of two, got "
            f"{num_counters}"
        )


def _hash_pc_unchecked(pcs: np.ndarray, num_counters: int) -> np.ndarray:
    """The hash itself, assuming ``num_counters`` was validated."""
    words = (np.asarray(pcs, dtype=np.uint64) >> np.uint64(2))
    hashed = (words * _HASH_MULTIPLIER) & _HASH_MASK
    folded = hashed ^ (hashed >> np.uint64(16))
    return (folded & np.uint64(num_counters - 1)).astype(np.int64)


def hash_pc(pcs: np.ndarray, num_counters: int) -> np.ndarray:
    """Hash branch PCs into accumulator indices.

    A multiplicative hash on the word-aligned PC, folded over 16 bits so
    both halves of the product contribute. Deterministic across runs.
    """
    validate_num_counters(num_counters)
    return _hash_pc_unchecked(pcs, num_counters)


class AccumulatorTable:
    """N saturating counters accumulating instruction counts per hash bucket.

    Parameters
    ----------
    num_counters:
        Number of counters (signature dimensions); power of two.
    counter_bits:
        Counter width; 24 bits per the paper (never overflows a 10M
        instruction interval).
    """

    def __init__(
        self, num_counters: int = 16, counter_bits: int = ACCUMULATOR_BITS
    ) -> None:
        validate_num_counters(num_counters)
        if not 1 <= counter_bits <= 62:
            raise ConfigurationError(
                f"counter_bits must be in [1, 62], got {counter_bits}"
            )
        self.num_counters = num_counters
        self.counter_bits = counter_bits
        self._max_value = (1 << counter_bits) - 1
        self._counters = np.zeros(num_counters, dtype=np.int64)
        self._total = 0

    @property
    def counters(self) -> np.ndarray:
        """A copy of the current counter values."""
        return self._counters.copy()

    @property
    def total_increment(self) -> int:
        """Sum of all increments this interval (pre-saturation)."""
        return self._total

    @property
    def average_counter_value(self) -> int:
        """Average increment per counter (used by dynamic bit selection).

        Computed as total / N — in hardware a shift, since N is a power
        of two.
        """
        return self._total // self.num_counters

    def update(self, pc: int, instructions: int) -> None:
        """Record one committed branch (hardware-faithful single update)."""
        if instructions < 0:
            raise ValueError(
                f"instructions must be non-negative, got {instructions}"
            )
        index = int(_hash_pc_unchecked(np.array([pc]), self.num_counters)[0])
        self._counters[index] = min(
            int(self._counters[index]) + instructions, self._max_value
        )
        self._total += instructions

    def update_batch(
        self,
        pcs: np.ndarray,
        instructions: np.ndarray,
        ends: Sequence[int] = (),
    ) -> List[Tuple[np.ndarray, int]]:
        """Record a batch of branches, closing an interval at each of
        ``ends``.

        ``ends`` are strictly increasing record positions in
        ``[1, len(pcs)]``: the records before ``ends[0]`` complete the
        open interval, the records from each end to the next make one
        whole interval, and the records after the last end open the
        next one. Returns every closed interval's counters and total
        increment, oldest first; the table keeps the open interval.
        Without ``ends`` the counters are those of one :meth:`update`
        per record, since saturating adds of non-negative counts
        commute.

        The batch is hashed once and each interval's stretch summed
        with one ``np.bincount``. ``instructions`` must be
        non-negative. Its callers check that once, where the records
        enter (``PhaseTracker.observe_batch``, ``Interval``), so it is
        not checked again here.
        """
        pcs = np.asarray(pcs)
        instructions = np.asarray(instructions, dtype=np.int64)
        if pcs.shape != instructions.shape:
            raise ValueError(
                "pcs and instructions must be parallel arrays: "
                f"{pcs.shape} vs {instructions.shape}"
            )
        size = instructions.size
        if not size:
            return []
        indices = _hash_pc_unchecked(pcs, self.num_counters)
        starts = [0, *ends]
        if starts[-1] == size:
            starts.pop()  # the batch's last record closes an interval
        increments = np.add.reduceat(instructions, starts).tolist()
        intervals = []
        for start, stop, increment in zip(
            starts, starts[1:] + [size], increments
        ):
            stretch, weights = indices[start:stop], instructions[start:stop]
            if increment < _EXACT_FLOAT_SUM:
                # Every per-bucket sum is bounded by the stretch's total,
                # so the float64 bincount (which casts the int64 weights
                # itself) is exact, and much faster than a scatter-add.
                sums = np.bincount(
                    stretch, weights=weights, minlength=self.num_counters
                ).astype(np.int64)
            else:
                # Integer scatter-add: slower, but never rounds (the
                # hardware-faithful path accumulates in integers).
                sums = np.zeros(self.num_counters, dtype=np.int64)
                np.add.at(sums, stretch, weights)
            if start == 0:  # this stretch completes the open interval
                sums += self._counters
                increment += self._total
            np.minimum(sums, self._max_value, out=sums)
            intervals.append((sums, increment))
        if len(intervals) == len(ends):
            intervals.append((np.zeros(self.num_counters, dtype=np.int64), 0))
        self._counters, self._total = intervals.pop()
        return intervals

    def clear(self) -> None:
        """Reset all counters for the next interval."""
        self._counters.fill(0)
        self._total = 0

    # -- snapshot hooks -------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-safe mid-interval state (counters and running total)."""
        return {
            "counters": [int(v) for v in self._counters],
            "total": self._total,
        }

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state`.

        The table geometry (``num_counters``, ``counter_bits``) is not
        part of the state; the caller reconstructs the table from its
        configuration first.
        """
        counters = np.asarray(state["counters"], dtype=np.int64)
        total = int(state["total"])
        if counters.shape != self._counters.shape:
            raise ConfigurationError(
                f"snapshot has {counters.size} counters, table has "
                f"{self.num_counters}"
            )
        # The bit selector trusts the counters it compresses: refuse
        # here what it would otherwise fail on at the next boundary.
        if counters.min() < 0 or total < 0:
            raise ConfigurationError(
                "snapshot accumulator counters and total must be "
                "non-negative"
            )
        self._counters = counters.copy()
        self._total = total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AccumulatorTable(n={self.num_counters}, "
            f"bits={self.counter_bits}, total={self._total})"
        )
