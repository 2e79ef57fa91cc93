"""The past-signature table with LRU replacement.

Each entry holds (paper §4.1, §4.4, §4.6):

- the most recent signature classified into the entry (a match replaces
  the stored signature with the current one),
- the entry's phase ID — lazily allocated once the entry turns *stable*,
- the Min Counter counting how many intervals have been classified into
  the entry (the transition-phase mechanism),
- a per-entry similarity threshold (tightened by the adaptive
  classifier), and
- running CPI statistics used by the adaptive classifier's
  performance-deviation test.

The table supports a finite capacity with LRU replacement, or ``None``
capacity modelling the prior work's infinite table.

An entry is a row, not an object (DESIGN §15). The signatures sit in
one (capacity x counters) matrix of the narrowest unsigned dtype that
holds a ``bits``-wide counter (``uint8`` at the paper's 6 bits); each
row's component total and similarity threshold sit in two numpy
columns that matching reads as they are; the per-entry scalars (phase
ID, Min Counter, LRU stamp, CPI count and mean) sit in list columns.
Row order is table order, which breaks match ties and orders the
snapshot: a touch rewrites its row in place, an insert writes the row
after the last, and an eviction moves every later row up by one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.core.distance import Normalizer, relative_distance_matrix, sum_normalizer
from repro.core.signature import Signature

#: Rows an unbounded (``capacity=None``) table starts with; it doubles
#: when full.
_INITIAL_ROWS = 16


class SignatureTable:
    """Finite (or infinite) LRU table of past signatures.

    Parameters
    ----------
    capacity:
        Maximum live entries; ``None`` means unbounded (prior work's
        idealized table).
    default_threshold:
        Similarity threshold assigned to newly inserted entries.
    normalizer:
        Distance normalization strategy (see :mod:`repro.core.distance`).

    Entries are addressed by row, ``0 .. len(table) - 1`` in table
    order. The matrix and the numpy columns are allocated at the first
    insert, whose signature fixes the counter count and ``bits``; their
    rows past ``len(table)`` are stale.
    """

    def __init__(
        self,
        capacity: Optional[int],
        default_threshold: float,
        normalizer: Normalizer = sum_normalizer,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive or None, got {capacity}"
            )
        if not 0.0 < default_threshold <= 1.0:
            raise ConfigurationError(
                f"default_threshold must be in (0, 1], got "
                f"{default_threshold}"
            )
        self.capacity = capacity
        self.default_threshold = default_threshold
        self.normalizer = normalizer
        #: Counter width of every stored signature (set at allocation).
        self.bits: Optional[int] = None
        #: Stored signatures, one row per entry.
        self.rows: Optional[np.ndarray] = None
        #: Each row's component sum, for distance scaling.
        self.totals: Optional[np.ndarray] = None
        #: Each row's similarity threshold (the adaptive classifier
        #: halves it in place).
        self.thresholds: Optional[np.ndarray] = None
        self.phase_ids: List[Optional[int]] = []
        self.min_counters: List[int] = []
        self.last_used: List[int] = []
        self.cpi_counts: List[int] = []
        self.cpi_means: List[float] = []
        self._clock = 0
        self.evictions = 0

    # -- bookkeeping --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.last_used)

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _allocate(self, dims: int, bits: int, size: int) -> None:
        self.bits = bits
        self.rows = np.zeros(
            (size, dims), dtype=np.min_scalar_type((1 << bits) - 1)
        )
        self.totals = np.zeros(size, dtype=np.int64)
        self.thresholds = np.zeros(size, dtype=np.float64)

    def _grow(self) -> None:
        """Double an unbounded table's arrays, keeping their rows."""
        rows, totals, thresholds = self.rows, self.totals, self.thresholds
        self._allocate(rows.shape[1], self.bits, 2 * len(rows))
        self.rows[:len(rows)] = rows
        self.totals[:len(rows)] = totals
        self.thresholds[:len(rows)] = thresholds

    def _check(self, signature: Signature) -> None:
        if signature.bits != self.bits:
            raise ConfigurationError(
                f"a {signature.bits}-bit signature cannot enter a table "
                f"of {self.bits}-bit rows"
            )

    # -- search -------------------------------------------------------------

    def _distances(self, signature: Signature) -> np.ndarray:
        """The relative distance from ``signature`` to every row, in
        table order. The narrow rows are subtracted from the int64
        probe, so the difference is signed."""
        size = len(self.last_used)
        return relative_distance_matrix(
            self.rows[:size],
            signature.values,
            self.normalizer,
            row_totals=self.totals[:size],
            vector_total=signature.total,
        )

    def find_matches(
        self, signature: Signature
    ) -> List[Tuple[int, float]]:
        """All rows whose threshold admits ``signature``.

        Returns (row, relative distance) pairs in table order.
        """
        if not self.last_used:
            return []
        distances = self._distances(signature)
        eligible = distances <= self.thresholds[:len(distances)]
        return [
            (row, float(distances[row]))
            for row in np.flatnonzero(eligible).tolist()
        ]

    def best_match(
        self, signature: Signature, policy: str = "most_similar"
    ) -> Optional[Tuple[int, float]]:
        """The row ``signature`` classifies into and its distance, or
        ``None``.

        ``policy`` is ``"most_similar"`` (this paper: the eligible row
        with the smallest distance, the earliest in table order on a
        tie) or ``"first"`` (prior work: the first eligible row in
        table order). Either is one pass over the distance vector: the
        same row :meth:`find_matches` followed by ``min`` by distance,
        or by taking its head, would give.
        """
        if policy not in ("most_similar", "first"):
            raise ConfigurationError(
                f"unknown match policy {policy!r}; expected "
                "'most_similar' or 'first'"
            )
        if not self.last_used:
            return None
        distances = self._distances(signature)
        eligible = distances <= self.thresholds[:len(distances)]
        if policy == "first":
            row = int(eligible.argmax())
        else:
            row = int(np.where(eligible, distances, np.inf).argmin())
        if not eligible[row]:
            return None
        return row, float(distances[row])

    # -- mutation -----------------------------------------------------------

    def touch(self, row: int, signature: Signature) -> None:
        """Record a classification hit: replace the row's signature
        with the current one (paper §4.1 step 3) and refresh its LRU
        stamp."""
        self._check(signature)
        self.rows[row] = signature.values
        self.totals[row] = signature.total
        self.last_used[row] = self._tick()

    def insert(self, signature: Signature) -> int:
        """Insert a new entry after the last, evicting the LRU entry
        first if at capacity; returns its row."""
        size = len(self.last_used)
        if self.rows is None:
            self._allocate(
                signature.dimensions, signature.bits,
                self.capacity or _INITIAL_ROWS,
            )
        self._check(signature)
        if signature.dimensions != self.rows.shape[1]:
            raise ValueError(
                f"a {signature.dimensions}-counter signature cannot enter "
                f"a table of {self.rows.shape[1]}-counter rows"
            )
        if self.capacity is not None and size >= self.capacity:
            self._remove(self.last_used.index(min(self.last_used)))
            self.evictions += 1
            size -= 1
        elif size == len(self.rows):
            self._grow()
        self.rows[size] = signature.values
        self.totals[size] = signature.total
        self.thresholds[size] = self.default_threshold
        self.phase_ids.append(None)
        self.min_counters.append(0)
        self.last_used.append(self._tick())
        self.cpi_counts.append(0)
        self.cpi_means.append(0.0)
        return size

    def _remove(self, row: int) -> None:
        """Drop ``row``, moving every later row up by one."""
        size = len(self.last_used)
        for column in (self.rows, self.totals, self.thresholds):
            column[row:size - 1] = column[row + 1:size]
        for values in (
            self.phase_ids, self.min_counters, self.last_used,
            self.cpi_counts, self.cpi_means,
        ):
            del values[row]

    # -- adaptive feedback (§4.6) ---------------------------------------------

    def record_cpi(self, row: int, cpi: float) -> None:
        """Fold one interval's CPI into the row's running average."""
        count = self.cpi_counts[row] + 1
        self.cpi_counts[row] = count
        self.cpi_means[row] += (cpi - self.cpi_means[row]) / count

    def cpi_deviation(self, row: int, cpi: float) -> float:
        """Relative deviation of ``cpi`` from the row's running average.

        Returns 0.0 when no history exists yet.
        """
        mean = self.cpi_means[row]
        if self.cpi_counts[row] == 0 or mean == 0.0:
            return 0.0
        return abs(cpi - mean) / mean

    def clear_cpi_stats(self, row: int) -> None:
        """Flush the row's CPI statistics (after threshold tightening)."""
        self.cpi_counts[row] = 0
        self.cpi_means[row] = 0.0

    def flush_cpi_stats(self) -> None:
        """Clear CPI history on every entry (paper §4.6: performed when a
        reconfiguration changes the program's CPI)."""
        size = len(self.last_used)
        self.cpi_counts[:] = [0] * size
        self.cpi_means[:] = [0.0] * size

    def clear(self) -> None:
        """Drop every entry and reset LRU/eviction bookkeeping, leaving
        capacity, threshold and normalizer configuration in place."""
        for values in (
            self.phase_ids, self.min_counters, self.last_used,
            self.cpi_counts, self.cpi_means,
        ):
            values.clear()
        self._clock = 0
        self.evictions = 0

    # -- snapshot hooks -------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-safe full table state (entries in table order, LRU
        clock, evictions). Every value is a Python scalar."""
        size = len(self.last_used)
        rows = self.rows[:size].tolist() if size else []
        thresholds = self.thresholds[:size].tolist() if size else []
        return {
            "clock": self._clock,
            "evictions": self.evictions,
            "entries": [
                {
                    "values": rows[row],
                    "bits": self.bits,
                    "threshold": thresholds[row],
                    "phase_id": self.phase_ids[row],
                    "min_counter": self.min_counters[row],
                    "last_used": self.last_used[row],
                    "cpi_count": self.cpi_counts[row],
                    "cpi_mean": self.cpi_means[row],
                }
                for row in range(size)
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state`, replacing any
        current contents. Capacity/threshold configuration is the
        caller's responsibility (rebuilt from the classifier config)."""
        entries = state["entries"]
        if self.capacity is not None and len(entries) > self.capacity:
            raise ConfigurationError(
                f"snapshot has {len(entries)} table entries, the table "
                f"holds {self.capacity}"
            )
        if entries:
            bits = int(entries[0]["bits"])
            if bits < 1 or any(
                int(record["bits"]) != bits for record in entries
            ):
                raise ConfigurationError(
                    "snapshot table entries must share one positive width"
                )
            try:
                values = np.array(
                    [record["values"] for record in entries], dtype=np.int64
                )
            except OverflowError:
                raise ConfigurationError(
                    f"signature values out of range for {bits} bits"
                ) from None
            if values.ndim != 2 or values.shape[1] == 0:
                raise ConfigurationError(
                    "snapshot table entries must be non-empty vectors of "
                    "one length"
                )
            if values.min() < 0 or values.max() > (1 << bits) - 1:
                raise ConfigurationError(
                    f"signature values out of range for {bits} bits"
                )
            for record in entries:
                phase_id = record["phase_id"]
                if phase_id is not None and type(phase_id) is not int:
                    raise ConfigurationError(
                        f"snapshot phase ID {phase_id!r} is not an int"
                    )
            size = len(entries)
            self._allocate(
                values.shape[1], bits,
                self.capacity or max(_INITIAL_ROWS, size),
            )
            self.rows[:size] = values
            self.totals[:size] = values.sum(axis=1)
            self.thresholds[:size] = [
                float(record["threshold"]) for record in entries
            ]
        self.clear()
        for record in entries:
            self.phase_ids.append(record["phase_id"])
            self.min_counters.append(int(record["min_counter"]))
            self.last_used.append(int(record["last_used"]))
            self.cpi_counts.append(int(record["cpi_count"]))
            self.cpi_means.append(float(record["cpi_mean"]))
        self._clock = int(state["clock"])
        self.evictions = int(state["evictions"])
