"""Append-only segment journal with CRC-framed records.

The write-ahead half of the durable session tier. Every session
lifecycle change and every observed branch batch becomes one framed
record appended to the active segment file::

    [length: u32 LE] [crc32(payload): u32 LE] [payload]

A payload takes one of two forms, told apart by its first byte:

- a **JSON record** — the record as one UTF-8 JSON object, so its
  first byte is ``{``. Every record without array columns (open,
  close), and every observe written before binary records existed;
- a **binary record** — a record with int64 array columns (observe's
  ``pcs`` and ``counts``)::

      [0x00] [header length: u32 LE] [header: UTF-8 JSON] [tail]

  The header holds the record's other fields plus ``"arrays"``, an
  ordered ``{name: element count}`` map. The tail is those columns'
  raw int64 little-endian bytes, back to back, so it is exactly
  8 bytes per declared element; replay hands each column back as a
  read-only int64 array under its name. A frame whose tail disagrees
  with its header is torn, the same as a CRC mismatch. An observe of
  n records costs 16n bytes here (as JSON text, the benchmark's
  ``stream`` traffic took about 11.7n), but is written without
  converting or re-encoding a single element.

The record always carries a ``seq`` field — one global, strictly
increasing sequence number per record — which is what checkpoints
reference ("this snapshot covers everything up to seq N") and what
compaction reasons about. Segments are named after the first sequence
number they hold (``seg-<first seq, 16 hex>.jnl``), so a segment's
coverage is knowable from directory listing alone.

Durability is a dial (:data:`SYNC_MODES`):

- ``none`` — records stay in the process's write buffer until the next
  rotation, :meth:`Journal.sync`, or close. Fastest; a ``kill -9`` can
  lose the buffered tail.
- ``batch`` — every append is flushed to the OS (so a process kill
  loses nothing) and ``fsync`` runs once per ``batch_records`` appends
  (bounding what a *machine* crash can lose). The default.
- ``always`` — flush + ``fsync`` per append: an acknowledged record
  survives power loss.

Reading is torn-tail tolerant: :func:`replay_journal` walks the
segments in order and, on the first frame that is short, CRC-corrupt,
undecodable, or out of sequence, truncates the file back to the last
good record and stops — a counted, non-fatal event (exactly what a
``kill -9`` mid-append leaves behind). Segments after a truncation
point are causally unusable and are discarded.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING, Union,
)

import numpy as np

from repro.errors import PersistenceError

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry

#: Valid values for the journal's ``sync`` dial.
SYNC_MODES = ("none", "batch", "always")

#: Frame header: payload length then crc32 of the payload bytes.
_HEADER = struct.Struct("<II")

#: A binary record's payload prefix: the 0x00 marker, then the length
#: of its JSON header.
_BINARY = struct.Struct("<BI")

#: The dtype of a binary record's array columns.
_COLUMN = np.dtype("<i8")

#: Upper bound on one record's payload. A frame whose declared length
#: exceeds this is treated as corruption, not as a huge record —
#: :meth:`Journal.append` refuses oversized payloads so a record that
#: replay would reject can never be written.
MAX_RECORD_BYTES = 32 * 1024 * 1024

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".jnl"


def segment_name(first_seq: int) -> str:
    """The file name of the segment whose first record is ``first_seq``."""
    return f"{_SEGMENT_PREFIX}{first_seq:016x}{_SEGMENT_SUFFIX}"


def segment_first_seq(path: Union[str, Path]) -> int:
    """The first sequence number a segment file name declares."""
    stem = Path(path).name
    if not (
        stem.startswith(_SEGMENT_PREFIX) and stem.endswith(_SEGMENT_SUFFIX)
    ):
        raise PersistenceError(f"not a journal segment name: {stem!r}")
    return int(stem[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)], 16)


def list_segments(root: Union[str, Path]) -> List[Path]:
    """Segment files under ``root``, oldest first."""
    root = Path(root)
    if not root.is_dir():
        return []
    segments = [
        path
        for path in root.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
        if path.is_file()
    ]
    return sorted(segments, key=segment_first_seq)


def encode_record(payload: bytes) -> bytes:
    """Frame one payload: length + crc32 header, then the bytes."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def encode_payload(
    record: dict, arrays: Optional[Dict[str, object]] = None
) -> bytes:
    """One record's payload: a JSON record, or with ``arrays`` (name
    -> 1-D integer sequence) a binary record carrying them as int64
    columns."""
    if not arrays:
        return json.dumps(record, separators=(",", ":")).encode("utf-8")
    columns = [
        np.ascontiguousarray(values, dtype=_COLUMN)
        for values in arrays.values()
    ]
    header = json.dumps(
        dict(record, arrays={
            name: column.size for name, column in zip(arrays, columns)
        }),
        separators=(",", ":"),
    ).encode("utf-8")
    return b"".join([_BINARY.pack(0, len(header)), header, *columns])


def decode_payload(payload: bytes) -> dict:
    """The record a payload holds, a binary record's columns as
    read-only int64 arrays. Raises :class:`ValueError` on a payload
    that is neither valid JSON nor a binary record whose tail matches
    its header."""
    if payload[:1] != b"\x00":
        return json.loads(payload.decode("utf-8"))
    if len(payload) < _BINARY.size:
        raise ValueError("binary record shorter than its prefix")
    _, length = _BINARY.unpack_from(payload)
    offset = _BINARY.size + length
    record = json.loads(payload[_BINARY.size:offset].decode("utf-8"))
    sizes = record.pop("arrays", None) if isinstance(record, dict) else None
    if not isinstance(sizes, dict) or any(
        not isinstance(size, int) or size < 0 for size in sizes.values()
    ) or len(payload) - offset != _COLUMN.itemsize * sum(sizes.values()):
        raise ValueError("binary record tail disagrees with its header")
    for name, size in sizes.items():
        record[name] = np.frombuffer(
            payload, dtype=_COLUMN, count=size, offset=offset
        )
        offset += _COLUMN.itemsize * size
    return record


@dataclass
class ReplayStats:
    """What :func:`replay_journal` saw — including the damage."""

    records: int = 0
    segments: int = 0
    bytes_read: int = 0
    #: Torn/corrupt tails truncated back to the last good record.
    torn_tails: int = 0
    truncated_bytes: int = 0
    #: Whole segments discarded because they follow a truncation point.
    segments_discarded: int = 0
    #: The next sequence number to assign: one past the highest seen,
    #: and never below the newest segment's name.
    next_seq: int = 1


@dataclass
class JournalReplay:
    """The decoded records plus the :class:`ReplayStats` accounting."""

    records: List[dict] = field(default_factory=list)
    stats: ReplayStats = field(default_factory=ReplayStats)


def _read_frames(path: Path) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(frame_start_offset, payload)`` for every *complete,
    CRC-valid* frame; raises :class:`_TornFrame` at the first bad one."""
    with open(path, "rb") as handle:
        offset = 0
        while True:
            header = handle.read(_HEADER.size)
            if not header:
                return
            if len(header) < _HEADER.size:
                raise _TornFrame(offset)
            length, crc = _HEADER.unpack(header)
            if length > MAX_RECORD_BYTES:
                raise _TornFrame(offset)
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                raise _TornFrame(offset)
            yield offset, payload
            offset += _HEADER.size + length


class _TornFrame(Exception):
    """Internal: a frame at ``offset`` is incomplete or corrupt."""

    def __init__(self, offset: int) -> None:
        super().__init__(f"torn frame at offset {offset}")
        self.offset = offset


def replay_journal(
    root: Union[str, Path],
    truncate: bool = True,
    telemetry: "Optional[Telemetry]" = None,
) -> JournalReplay:
    """Decode every record under ``root``, repairing torn tails.

    The first short, CRC-corrupt, undecodable, or out-of-sequence frame
    ends the replay: with ``truncate=True`` the damaged segment is cut
    back to its last good record and any *later* segments (causally
    after the tear) are deleted. Both repairs are counted in the
    returned :class:`ReplayStats` and emitted as telemetry events —
    never raised, because this is the expected aftermath of ``kill -9``.
    """
    replay = JournalReplay()
    stats = replay.stats
    segments = list_segments(root)
    last_seq = 0
    torn_at: Optional[int] = None  # index into ``segments``

    for index, segment in enumerate(segments):
        if torn_at is not None:
            break
        stats.segments += 1
        try:
            for offset, payload in _read_frames(segment):
                try:
                    record = decode_payload(payload)
                    seq = record["seq"]
                except (UnicodeDecodeError, ValueError, KeyError, TypeError):
                    raise _TornFrame(offset) from None
                if not isinstance(seq, int) or seq <= last_seq:
                    raise _TornFrame(offset)
                last_seq = seq
                stats.records += 1
                stats.bytes_read += _HEADER.size + len(payload)
                replay.records.append(record)
        except _TornFrame as torn:
            stats.torn_tails += 1
            size = segment.stat().st_size
            stats.truncated_bytes += size - torn.offset
            if truncate:
                with open(segment, "rb+") as handle:
                    handle.truncate(torn.offset)
            torn_at = index
            if telemetry is not None:
                telemetry.emit(
                    "journal_torn_tail",
                    segment=segment.name,
                    offset=torn.offset,
                    dropped_bytes=size - torn.offset,
                )

    if torn_at is not None:
        for segment in segments[torn_at + 1:]:
            stats.segments_discarded += 1
            if truncate:
                try:
                    segment.unlink()
                except OSError:  # pragma: no cover - raced deletion
                    pass
            if telemetry is not None:
                telemetry.emit(
                    "journal_segment_discarded", segment=segment.name
                )

    # Compaction can leave one empty segment, whose name still holds
    # the next seq: reusing lower ones would misorder later segments.
    stats.next_seq = last_seq + 1
    if segments:
        stats.next_seq = max(stats.next_seq, segment_first_seq(segments[-1]))
    return replay


class Journal:
    """The append side: one writer, framed records, segment rotation.

    Parameters
    ----------
    root:
        Segment directory (created if missing).
    sync:
        One of :data:`SYNC_MODES`; see the module docstring.
    segment_bytes:
        Rotate to a fresh segment once the active one exceeds this.
    batch_records:
        In ``batch`` mode, ``fsync`` once per this many appends.
    next_seq:
        First sequence number to assign — pass the replay's
        ``stats.next_seq`` when reopening an existing journal.
    telemetry:
        Optional hub: appended-record/byte counters, an
        ``fsync``-latency histogram, and the durability-lag gauge
        (records appended but not yet fsynced).
    """

    def __init__(
        self,
        root: Union[str, Path],
        sync: str = "batch",
        segment_bytes: int = 4 * 1024 * 1024,
        batch_records: int = 64,
        next_seq: int = 1,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        if sync not in SYNC_MODES:
            raise PersistenceError(
                f"sync must be one of {SYNC_MODES}, got {sync!r}"
            )
        if segment_bytes <= 0 or batch_records <= 0 or next_seq <= 0:
            raise PersistenceError(
                "segment_bytes, batch_records and next_seq must be positive"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.sync_mode = sync
        self.segment_bytes = segment_bytes
        self.batch_records = batch_records
        self._next_seq = next_seq
        self._unsynced = 0
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self._telemetry = telemetry
        if telemetry is not None:
            telemetry.counter(
                "repro_persistence_journal_records_total",
                "Records appended to the session journal",
                read=lambda: self.records_appended,
            )
            telemetry.counter(
                "repro_persistence_journal_bytes_total",
                "Framed bytes appended to the session journal",
                read=lambda: self.bytes_appended,
            )
            self._h_fsync = telemetry.histogram(
                "repro_persistence_fsync_seconds",
                "Wall time of one journal fsync",
            )
            telemetry.gauge(
                "repro_persistence_unsynced_records",
                "Durability lag: records appended but not yet fsynced",
                read=lambda: self._unsynced,
            )

        # Continue the newest segment when it has headroom; otherwise
        # start a fresh one named after the next sequence number.
        segments = list_segments(self.root)
        if segments and segments[-1].stat().st_size < segment_bytes:
            self.active_path = segments[-1]
        else:
            self.active_path = self.root / segment_name(next_seq)
        self._file = open(self.active_path, "ab")
        self._active_bytes = self.active_path.stat().st_size

    # -- the write path -------------------------------------------------------

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def unsynced_records(self) -> int:
        """Durability lag: appended records not yet fsynced."""
        return self._unsynced

    def append(
        self, record: dict, arrays: Optional[Dict[str, object]] = None
    ) -> int:
        """Frame and append ``record``; returns its sequence number.

        The record must be JSON-safe; ``seq`` is stamped in here.
        ``arrays`` (name -> 1-D integer sequence, typically an int64
        array) makes it a binary record: the columns are written as
        raw int64 bytes and come back from replay under their names.
        The write is flushed/fsynced per the journal's sync mode before
        this returns, so a caller that acknowledges afterwards gets the
        mode's durability guarantee.

        A payload over :data:`MAX_RECORD_BYTES` raises
        :class:`PersistenceError` *before* anything is written: replay
        treats such a frame as corruption and would truncate the
        journal there, discarding every later record.
        """
        if self._file is None:
            raise PersistenceError("journal is closed")
        seq = self._next_seq
        payload = encode_payload(dict(record, seq=seq), arrays)
        if len(payload) > MAX_RECORD_BYTES:
            raise PersistenceError(
                f"journal record of {len(payload)} bytes exceeds the "
                f"{MAX_RECORD_BYTES}-byte frame cap"
            )
        frame = encode_record(payload)
        self._file.write(frame)
        self._next_seq += 1
        self._unsynced += 1
        self._active_bytes += len(frame)
        self.records_appended += 1
        self.bytes_appended += len(frame)
        if self.sync_mode == "always":
            self._flush(fsync=True)
        elif self.sync_mode == "batch":
            self._flush(fsync=self._unsynced >= self.batch_records)
        if self._active_bytes >= self.segment_bytes:
            self._rotate()
        return seq

    def sync(self) -> None:
        """Flush and ``fsync`` everything appended so far."""
        if self._file is not None:
            self._flush(fsync=True)

    def close(self) -> None:
        """Sync and close the active segment. Idempotent."""
        if self._file is None:
            return
        self._flush(fsync=self.sync_mode != "none")
        file, self._file = self._file, None
        file.close()

    @property
    def closed(self) -> bool:
        return self._file is None

    # -- internals ------------------------------------------------------------

    def _flush(self, fsync: bool) -> None:
        self._file.flush()
        if fsync:
            started = time.perf_counter()
            os.fsync(self._file.fileno())
            self.fsyncs += 1
            self._unsynced = 0
            if self._telemetry is not None:
                self._h_fsync.observe(time.perf_counter() - started)

    def _rotate(self) -> None:
        # The retiring segment is made fully durable so a torn tail can
        # only ever live in the active segment.
        self._flush(fsync=self.sync_mode != "none")
        self._file.close()
        self.active_path = self.root / segment_name(self._next_seq)
        self._file = open(self.active_path, "ab")
        self._active_bytes = 0

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Journal(root={str(self.root)!r}, sync={self.sync_mode!r}, "
            f"next_seq={self._next_seq})"
        )
