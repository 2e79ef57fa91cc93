"""Set-associative prediction table with per-set LRU.

The Markov and RLE phase-change predictors and the length predictor
store their state in a 32-entry, 4-way set associative table (paper
§5.1). The table hashes each key to a set index and compares full keys
as tags (a faithful idealization of tag matching — tag aliasing is a
second-order hardware detail the paper does not evaluate).

A way is a slot, not an object (DESIGN §15). The table keeps
``entries`` slots in set-major order: set ``s`` owns slots
``s * assoc`` up to ``(s + 1) * assoc``, and its live ways fill a
prefix of them, oldest insertion first. Each slot's key sits in the
``keys`` list, its LRU stamp in the int64 ``stamps`` array, and each
payload field in a list of its own (``columns``). Removing a way moves
the set's later ways up one slot, so the order within a set — which
breaks LRU ties and orders the snapshot — is the insertion order with
removals closed up.
"""

from __future__ import annotations

import zlib
from array import array
from typing import (
    Callable,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, SnapshotError

_HASH_SALT = 0x9E3779B9


def _set_index(
    key: Hashable, num_sets: int, describe: Callable[[Hashable], str] = repr
) -> int:
    # Process-independent on purpose: built-in ``hash()`` of strings is
    # salted per interpreter, and predictor keys carry strings — a
    # table restored after a crash (a different process) must place
    # every way in the same set it occupied before the kill, or the
    # recovered predictor diverges from the one that was journaled.
    # ``describe`` gives the key's canonical text: ``repr`` of a nested
    # int/str tuple, or the same text formatted from a flat key.
    return (
        zlib.crc32(describe(key).encode("utf-8")) ^ _HASH_SALT
    ) % num_sets


def phase_or_none(value: object) -> Optional[int]:
    """A snapshot's current phase: ``None`` or an int, which keys are
    made of. Raises :class:`~repro.errors.SnapshotError` otherwise."""
    if value is not None and type(value) is not int:
        raise SnapshotError(f"snapshot phase {value!r} is not an int")
    return value


class KeyShape:
    """A predictor key: a flat tuple of ``depth * width`` ints.

    RLE-N keys are N (phase ID, run length) pairs (``width`` 2),
    Markov-N keys N phase IDs (``width`` 1). A table holds only the
    flat tuple. The nested form — ``(tag, depth, history)``, with
    ``history`` a tuple of pairs or of ints — is what snapshots carry,
    and its ``repr`` is the text the set index hashes; :meth:`describe`
    formats that text from the flat tuple without building the tuple.
    """

    __slots__ = ("tag", "depth", "width", "_format")

    def __init__(self, tag: str, depth: int, width: int) -> None:
        self.tag = tag
        self.depth = depth
        self.width = width
        item = "%d" if width == 1 else "(" + ", ".join(["%d"] * width) + ")"
        history = ", ".join([item] * depth) + ("," if depth == 1 else "")
        self._format = f"({tag!r}, {depth}, ({history}))"

    def describe(self, key: Tuple[int, ...]) -> str:
        """``repr(self.nest(key))``, formatted directly."""
        return self._format % key

    def nest(self, key: Tuple[int, ...]) -> tuple:
        """The snapshot form of a flat key."""
        width = self.width
        history = key if width == 1 else tuple(
            key[index:index + width] for index in range(0, len(key), width)
        )
        return (self.tag, self.depth, history)

    def flatten(self, raw: object) -> Tuple[int, ...]:
        """The flat key of a snapshot key (JSON lists for tuples).

        Raises :class:`~repro.errors.SnapshotError` unless ``raw`` is
        a key of this shape: this tag and depth, and ``depth`` items
        that are ints (``width`` 1) or lists of ``width`` ints.
        """
        if (
            isinstance(raw, (list, tuple)) and len(raw) == 3
            and raw[0] == self.tag and raw[1] == self.depth
            and type(raw[1]) is int
            and isinstance(raw[2], (list, tuple))
            and len(raw[2]) == self.depth
        ):
            if self.width == 1:
                flat = tuple(raw[2])
            elif all(
                isinstance(item, (list, tuple)) and len(item) == self.width
                for item in raw[2]
            ):
                flat = tuple(value for item in raw[2] for value in item)
            else:
                flat = ()
            if flat and all(type(value) is int for value in flat):
                return flat
        raise SnapshotError(
            f"predictor key {raw!r} is not a {self.tag!r} key of depth "
            f"{self.depth}"
        )


class AssociativeTable:
    """(key -> payload fields) storage with bounded associative sets.

    Parameters
    ----------
    entries:
        Total capacity (default 32, paper §5.1).
    assoc:
        Ways per set (default 4). ``entries`` must divide evenly.
    fields:
        Payload fields per way, one list in :attr:`columns` each.
    describe:
        The canonical text of a key, which the set index hashes
        (default ``repr``; predictors pass :meth:`KeyShape.describe`).

    Lookups return a slot, the index of the way in :attr:`keys`,
    :attr:`stamps` and every column, or ``None`` on a miss. A slot
    stays valid until the next insert or remove.
    """

    def __init__(
        self,
        entries: int = 32,
        assoc: int = 4,
        fields: int = 1,
        describe: Callable[[Hashable], str] = repr,
    ) -> None:
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
        self._describe = describe
        self.keys: List[Optional[Hashable]] = [None] * entries
        self.stamps = array("q", bytes(8 * entries))
        self.columns: Tuple[list, ...] = tuple(
            [None] * entries for _ in range(fields)
        )
        #: Live ways per set.
        self._fill = [0] * self.num_sets
        self._clock = 0
        self.insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return sum(self._fill)

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _set(self, key: Hashable) -> int:
        return _set_index(key, self.num_sets, self._describe)

    def _slot(self, key: Hashable, index: int) -> Optional[int]:
        base = index * self.assoc
        keys = self.keys
        for slot in range(base, base + self._fill[index]):
            if keys[slot] == key:
                return slot
        return None

    def _slots(self) -> Iterator[int]:
        """Every live slot, set by set, in way order."""
        for index, fill in enumerate(self._fill):
            base = index * self.assoc
            yield from range(base, base + fill)

    def lookup(self, key: Hashable) -> Optional[int]:
        """The slot holding ``key`` (refreshing LRU), or ``None``."""
        slot = self._slot(key, self._set(key))
        if slot is not None:
            self.stamps[slot] = self._tick()
        return slot

    def peek(self, key: Hashable) -> Optional[int]:
        """Like :meth:`lookup` but without touching LRU state."""
        return self._slot(key, self._set(key))

    def insert(self, key: Hashable, *fields: object) -> int:
        """Insert or overwrite; evicts the set's LRU way when full.
        Returns the way's slot."""
        index = self._set(key)
        slot = self._slot(key, index)
        if slot is None:
            base = index * self.assoc
            fill = self._fill[index]
            if fill == self.assoc:
                stamps = self.stamps[base:base + fill]
                self._delete(index, base + stamps.index(min(stamps)))
                self.evictions += 1
                fill -= 1
            slot = base + fill
            self._fill[index] = fill + 1
            self.keys[slot] = key
            self.insertions += 1
        for column, value in zip(self.columns, fields):
            column[slot] = value
        self.stamps[slot] = self._tick()
        return slot

    def _delete(self, index: int, slot: int) -> None:
        """Drop ``slot``, moving the set's later ways up one slot."""
        last = index * self.assoc + self._fill[index] - 1
        for column in (self.keys, *self.columns):
            del column[slot]
            column.insert(last, None)
        del self.stamps[slot]
        self.stamps.insert(last, 0)
        self._fill[index] -= 1

    def remove(self, key: Hashable) -> bool:
        """Delete ``key`` if present; returns whether it was found."""
        index = self._set(key)
        slot = self._slot(key, index)
        if slot is None:
            return False
        self._delete(index, slot)
        return True

    def items(self) -> List[Tuple[Hashable, tuple]]:
        """All live (key, payload fields) pairs (for inspection/tests)."""
        return [
            (self.keys[slot], tuple(column[slot] for column in self.columns))
            for slot in self._slots()
        ]

    def clear(self) -> None:
        """Drop every way and reset LRU/eviction bookkeeping, keeping
        the table geometry."""
        for column in (self.keys, *self.columns):
            column[:] = [None] * self.entries
        self.stamps[:] = array("q", bytes(8 * self.entries))
        self._fill[:] = [0] * self.num_sets
        self._clock = 0
        self.insertions = 0
        self.evictions = 0

    # -- snapshot hooks -------------------------------------------------------

    def export_state(
        self,
        encode_key: Callable[[Hashable], object],
        encode_fields: Callable[..., object],
    ) -> dict:
        """JSON-safe table state, ways set by set in way order.

        ``encode_key`` maps a key to its JSON-representable form and
        ``encode_fields`` a way's payload fields to theirs.
        """
        columns = self.columns
        return {
            "entries": self.entries,
            "assoc": self.assoc,
            "clock": self._clock,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "ways": [
                [
                    encode_key(self.keys[slot]),
                    encode_fields(*(column[slot] for column in columns)),
                    self.stamps[slot],
                ]
                for slot in self._slots()
            ],
        }

    def restore_state(
        self,
        state: dict,
        decode_key: Callable[[object], Hashable],
        decode_fields: Callable[[object], Sequence[object]],
    ) -> None:
        """Restore state captured by :meth:`export_state`.

        Ways are re-placed by recomputing each key's set index
        (deterministic across processes), preserving each way's LRU
        stamp, so restore-then-export round-trips are byte-identical —
        including in a freshly started process recovering a crash.

        Raises :class:`~repro.errors.SnapshotError` for more ways than
        the table holds, more than ``assoc`` ways in one set, or a key
        twice; ``decode_key`` and ``decode_fields`` refuse what they
        cannot read.
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
        ways = state["ways"]
        if len(ways) > self.entries:
            raise SnapshotError(
                f"snapshot table has {len(ways)} ways, the table holds "
                f"{self.entries}"
            )
        self.clear()
        for raw_key, raw_fields, last_used in ways:
            key = decode_key(raw_key)
            index = self._set(key)
            if self._slot(key, index) is not None:
                raise SnapshotError(f"snapshot table repeats key {raw_key!r}")
            fill = self._fill[index]
            if fill == self.assoc:
                raise SnapshotError(
                    f"snapshot table puts more than {self.assoc} ways in "
                    f"set {index}"
                )
            slot = index * self.assoc + fill
            self._fill[index] = fill + 1
            self.keys[slot] = key
            for column, value in zip(self.columns, decode_fields(raw_fields)):
                column[slot] = value
            try:
                self.stamps[slot] = int(last_used)
            except OverflowError:
                raise SnapshotError(
                    f"snapshot LRU stamp {last_used!r} is out of range"
                ) from None
        self._clock = int(state["clock"])
        self.insertions = int(state["insertions"])
        self.evictions = int(state["evictions"])
