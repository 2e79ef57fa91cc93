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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.core.distance import Normalizer, relative_distance_matrix, sum_normalizer
from repro.core.signature import Signature


@dataclass(init=False)
class TableEntry:
    """One signature-table entry (see module docstring for field roles).

    Slotted to keep a long-lived session's table small. The defaults
    live in ``__init__``: a class-level default cannot sit beside
    ``__slots__``, and ``dataclass(slots=True)`` needs Python 3.10.
    """

    __slots__ = (
        "signature", "similarity_threshold", "phase_id", "min_counter",
        "last_used", "cpi_count", "cpi_mean",
    )

    signature: Signature
    similarity_threshold: float
    phase_id: Optional[int]
    min_counter: int
    last_used: int
    cpi_count: int
    cpi_mean: float

    def __init__(
        self,
        signature: Signature,
        similarity_threshold: float,
        phase_id: Optional[int] = None,
        min_counter: int = 0,
        last_used: int = 0,
        cpi_count: int = 0,
        cpi_mean: float = 0.0,
    ) -> None:
        self.signature = signature
        self.similarity_threshold = similarity_threshold
        self.phase_id = phase_id
        self.min_counter = min_counter
        self.last_used = last_used
        self.cpi_count = cpi_count
        self.cpi_mean = cpi_mean

    def record_cpi(self, cpi: float) -> None:
        """Fold one interval's CPI into the running average."""
        self.cpi_count += 1
        self.cpi_mean += (cpi - self.cpi_mean) / self.cpi_count

    def clear_cpi_stats(self) -> None:
        """Flush CPI statistics (after threshold tightening, or when an
        external reconfiguration invalidates performance history)."""
        self.cpi_count = 0
        self.cpi_mean = 0.0

    def cpi_deviation(self, cpi: float) -> float:
        """Relative deviation of ``cpi`` from the running average.

        Returns 0.0 when no history exists yet.
        """
        if self.cpi_count == 0 or self.cpi_mean == 0.0:
            return 0.0
        return abs(cpi - self.cpi_mean) / self.cpi_mean


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
        self._entries: List[TableEntry] = []
        self._clock = 0
        self.evictions = 0

    # -- bookkeeping --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[TableEntry]:
        """Live entries (mutable references, in insertion order)."""
        return self._entries

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # -- search -------------------------------------------------------------

    def _distances(
        self, signature: Signature
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The relative distance from ``signature`` to every entry, and
        every entry's similarity threshold, in table order.

        Both are read at the call: entries change at every boundary,
        and the adaptive classifier halves thresholds in place. The
        matrix is built with ``np.array`` over the entries' rows, a
        third of ``np.stack``'s cost on a 32-entry table, and the rows'
        totals come from their signatures rather than a second sum.
        """
        entries = self._entries
        distances = relative_distance_matrix(
            np.array([entry.signature.values for entry in entries]),
            signature.values,
            self.normalizer,
            row_totals=np.array(
                [entry.signature.total for entry in entries]
            ),
            vector_total=signature.total,
        )
        thresholds = np.array(
            [entry.similarity_threshold for entry in entries]
        )
        return distances, thresholds

    def find_matches(
        self, signature: Signature
    ) -> List[Tuple[TableEntry, float]]:
        """All entries whose per-entry threshold admits ``signature``.

        Returns (entry, relative distance) pairs in table order.
        """
        if not self._entries:
            return []
        distances, thresholds = self._distances(signature)
        return [
            (self._entries[index], float(distances[index]))
            for index in np.flatnonzero(distances <= thresholds).tolist()
        ]

    def best_match(
        self, signature: Signature, policy: str = "most_similar"
    ) -> Optional[Tuple[TableEntry, float]]:
        """The entry ``signature`` classifies into, or ``None``.

        ``policy`` is ``"most_similar"`` (this paper: the eligible entry
        with the smallest distance, the earliest in table order on a
        tie) or ``"first"`` (prior work: the first eligible entry in
        table order). Either is one pass over the distance vector: the
        same entry :meth:`find_matches` followed by ``min`` by
        distance, or by taking its head, would give.
        """
        if policy not in ("most_similar", "first"):
            raise ConfigurationError(
                f"unknown match policy {policy!r}; expected "
                "'most_similar' or 'first'"
            )
        if not self._entries:
            return None
        distances, thresholds = self._distances(signature)
        eligible = distances <= thresholds
        if policy == "first":
            index = int(eligible.argmax())
        else:
            index = int(np.where(eligible, distances, np.inf).argmin())
        if not eligible[index]:
            return None
        return self._entries[index], float(distances[index])

    # -- mutation -----------------------------------------------------------

    def touch(self, entry: TableEntry, signature: Signature) -> None:
        """Record a classification hit: replace the stored signature with
        the current one (paper §4.1 step 3) and refresh LRU state."""
        entry.signature = signature
        entry.last_used = self._tick()

    def insert(self, signature: Signature) -> TableEntry:
        """Insert a new entry, evicting the LRU entry if at capacity."""
        if self.capacity is not None and len(self._entries) >= self.capacity:
            victim_index = min(
                range(len(self._entries)),
                key=lambda i: self._entries[i].last_used,
            )
            del self._entries[victim_index]
            self.evictions += 1
        entry = TableEntry(
            signature=signature,
            similarity_threshold=self.default_threshold,
            last_used=self._tick(),
        )
        self._entries.append(entry)
        return entry

    def flush_cpi_stats(self) -> None:
        """Clear CPI history on every entry (paper §4.6: performed when a
        reconfiguration changes the program's CPI)."""
        for entry in self._entries:
            entry.clear_cpi_stats()

    def clear(self) -> None:
        """Drop every entry and reset LRU/eviction bookkeeping, leaving
        capacity, threshold and normalizer configuration in place."""
        self._entries.clear()
        self._clock = 0
        self.evictions = 0

    # -- snapshot hooks -------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-safe full table state (entries, LRU clock, evictions)."""
        return {
            "clock": self._clock,
            "evictions": self.evictions,
            "entries": [
                {
                    "values": [int(v) for v in entry.signature.values],
                    "bits": entry.signature.bits,
                    "threshold": entry.similarity_threshold,
                    "phase_id": entry.phase_id,
                    "min_counter": entry.min_counter,
                    "last_used": entry.last_used,
                    "cpi_count": entry.cpi_count,
                    "cpi_mean": entry.cpi_mean,
                }
                for entry in self._entries
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
        self._entries = [
            TableEntry(
                signature=Signature(record["values"], bits=record["bits"]),
                similarity_threshold=float(record["threshold"]),
                phase_id=record["phase_id"],
                min_counter=int(record["min_counter"]),
                last_used=int(record["last_used"]),
                cpi_count=int(record["cpi_count"]),
                cpi_mean=float(record["cpi_mean"]),
            )
            for record in entries
        ]
        self._clock = int(state["clock"])
        self.evictions = int(state["evictions"])
