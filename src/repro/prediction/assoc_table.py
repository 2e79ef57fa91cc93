"""Set-associative prediction table with per-set LRU.

Both the Markov and RLE phase-change predictors store their state in a
32-entry, 4-way set associative table (paper §5.1). Keys are arbitrary
hashable history tuples; the table hashes them to a set index and
compares full keys as tags (a faithful idealization of tag matching —
tag aliasing is a second-order hardware detail the paper does not
evaluate).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import (
    Callable,
    Generic,
    Hashable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError

P = TypeVar("P")

_HASH_SALT = 0x9E3779B9


def _set_index(key: Hashable, num_sets: int) -> int:
    # Process-independent on purpose: built-in ``hash()`` of strings is
    # salted per interpreter, and predictor keys carry strings — a
    # table restored after a crash (a different process) must place
    # every way in the same set it occupied before the kill, or the
    # recovered predictor diverges from the one that was journaled.
    # ``repr`` of the nested int/str tuple keys is canonical.
    return (
        zlib.crc32(repr(key).encode("utf-8")) ^ _HASH_SALT
    ) % num_sets


def tuple_key(obj: object) -> Hashable:
    """Rebuild a predictor table key from its JSON form.

    Predictor keys are nested tuples of ints and strings; JSON
    round-trips tuples as lists, so restoring recursively converts
    lists back to tuples.
    """
    if isinstance(obj, list):
        return tuple(tuple_key(item) for item in obj)
    return obj


@dataclass
class _Way(Generic[P]):
    __slots__ = ("key", "payload", "last_used")

    key: Hashable
    payload: P
    last_used: int


class AssociativeTable(Generic[P]):
    """Generic (key -> payload) storage with bounded associative sets.

    Parameters
    ----------
    entries:
        Total capacity (default 32, paper §5.1).
    assoc:
        Ways per set (default 4). ``entries`` must divide evenly.
    """

    def __init__(self, entries: int = 32, assoc: int = 4) -> None:
        if entries <= 0 or assoc <= 0:
            raise ConfigurationError(
                f"entries and assoc must be positive, got {entries}/{assoc}"
            )
        if entries % assoc:
            raise ConfigurationError(
                f"entries ({entries}) must be a multiple of assoc ({assoc})"
            )
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._sets: List[List[_Way[P]]] = [[] for _ in range(self.num_sets)]
        self._clock = 0
        self.insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def lookup(self, key: Hashable) -> Optional[P]:
        """Return the payload for ``key`` (refreshing LRU), or ``None``."""
        ways = self._sets[_set_index(key, self.num_sets)]
        for way in ways:
            if way.key == key:
                way.last_used = self._tick()
                return way.payload
        return None

    def peek(self, key: Hashable) -> Optional[P]:
        """Like :meth:`lookup` but without touching LRU state."""
        ways = self._sets[_set_index(key, self.num_sets)]
        for way in ways:
            if way.key == key:
                return way.payload
        return None

    def insert(self, key: Hashable, payload: P) -> None:
        """Insert or overwrite; evicts the set's LRU way when full."""
        ways = self._sets[_set_index(key, self.num_sets)]
        for way in ways:
            if way.key == key:
                way.payload = payload
                way.last_used = self._tick()
                return
        if len(ways) >= self.assoc:
            victim = min(range(len(ways)), key=lambda i: ways[i].last_used)
            del ways[victim]
            self.evictions += 1
        ways.append(_Way(key=key, payload=payload, last_used=self._tick()))
        self.insertions += 1

    def remove(self, key: Hashable) -> bool:
        """Delete ``key`` if present; returns whether it was found."""
        ways = self._sets[_set_index(key, self.num_sets)]
        for i, way in enumerate(ways):
            if way.key == key:
                del ways[i]
                return True
        return False

    def items(self) -> List[Tuple[Hashable, P]]:
        """All live (key, payload) pairs (for inspection/tests)."""
        return [
            (way.key, way.payload) for ways in self._sets for way in ways
        ]

    def clear(self) -> None:
        """Drop every way and reset LRU/eviction bookkeeping, keeping
        the table geometry."""
        for ways in self._sets:
            ways.clear()
        self._clock = 0
        self.insertions = 0
        self.evictions = 0

    # -- snapshot hooks -------------------------------------------------------

    def export_state(
        self, encode_payload: Callable[[P], object]
    ) -> dict:
        """JSON-safe table state.

        Keys must themselves be JSON-representable (the predictors use
        nested tuples of ints and strings; tuples round-trip as lists
        and are rebuilt by the caller's key codec). ``encode_payload``
        maps each stored payload to a JSON-safe object.
        """
        return {
            "entries": self.entries,
            "assoc": self.assoc,
            "clock": self._clock,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "ways": [
                [way.key, encode_payload(way.payload), way.last_used]
                for ways in self._sets
                for way in ways
            ],
        }

    def restore_state(
        self,
        state: dict,
        decode_payload: Callable[[object], P],
        decode_key: Callable[[object], Hashable],
    ) -> None:
        """Restore state captured by :meth:`export_state`.

        Ways are re-placed by recomputing each key's set index
        (deterministic across processes), preserving each way's LRU
        stamp, so restore-then-export round-trips are byte-identical —
        including in a freshly started process recovering a crash.
        """
        if (
            int(state["entries"]) != self.entries
            or int(state["assoc"]) != self.assoc
        ):
            raise ConfigurationError(
                "snapshot table geometry "
                f"{state['entries']}/{state['assoc']} does not match "
                f"{self.entries}/{self.assoc}"
            )
        self.clear()
        self._clock = int(state["clock"])
        self.insertions = int(state["insertions"])
        self.evictions = int(state["evictions"])
        for raw_key, raw_payload, last_used in state["ways"]:
            key = decode_key(raw_key)
            self._sets[_set_index(key, self.num_sets)].append(
                _Way(
                    key=key,
                    payload=decode_payload(raw_payload),
                    last_used=int(last_used),
                )
            )
