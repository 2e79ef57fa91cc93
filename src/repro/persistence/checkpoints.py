"""Atomic per-session snapshot checkpoints.

A checkpoint is the materialized half of the durable tier: one JSON
file per session holding the full tracker snapshot
(:func:`repro.service.snapshot.snapshot_tracker`) and the journal
sequence number the snapshot covers. Journal records at or below the
stamped ``seq`` are superseded by the checkpoint; records above it are
the replay tail.

Durability discipline (PR 3's store rules, tightened):

- writes go to a private temp file, are optionally fsynced, and are
  published with one atomic ``os.replace`` — readers only ever see
  complete documents, even under ``kill -9``;
- the payload carries a CRC32 over its canonical JSON, so silent
  corruption is detected on load;
- a CRC-mismatched, undecodable, or schema-incompatible checkpoint is
  a counted miss (best-effort unlinked), never an exception — recovery
  keeps going with what it can read. A *transient* read failure (EIO,
  EACCES) is also a counted miss, but the file stays on disk for a
  retry or the next recovery.

File names are the SHA-256 of the session name (client-chosen names
are not filesystem-safe); the name travels inside the document, so
:meth:`CheckpointStore.load_all` can rebuild the name -> document map
from a directory listing alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.errors import PersistenceError
from repro.telemetry import Telemetry

#: Bump when the checkpoint document layout changes; old files become
#: counted misses, never misreads.
CHECKPOINT_SCHEMA_VERSION = 1

_SUFFIX = ".ckpt"


def _canonical(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


class CheckpointStore:
    """One checkpoint file per session under ``root``."""

    def __init__(
        self,
        root: Union[str, Path],
        fsync: bool = True,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.written = 0
        self.corrupt_dropped = 0
        self.read_errors = 0
        self._tmp_serial = 0
        if telemetry is None:
            telemetry = Telemetry()
        self._telemetry = telemetry
        telemetry.counter(
            "repro_persistence_checkpoints_written_total",
            "Checkpoints published",
            read=lambda: self.written,
        )
        telemetry.counter(
            "repro_persistence_checkpoints_corrupt_total",
            "Checkpoints dropped as unreadable",
            read=lambda: self.corrupt_dropped,
        )
        telemetry.counter(
            "repro_persistence_checkpoint_read_errors_total",
            "Checkpoint reads that failed transiently",
            read=lambda: self.read_errors,
        )

    def _count(self, name: str, amount: int = 1, help: str = "") -> None:
        self._telemetry.metrics.counter(
            f"repro_persistence_{name}_total", help
        ).inc(amount)

    def path_for(self, name: str) -> Path:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()
        return self.root / f"{digest}{_SUFFIX}"

    # -- write ----------------------------------------------------------------

    def write(self, name: str, document: dict) -> Path:
        """Atomically publish ``document`` as ``name``'s checkpoint.

        The document must be JSON-safe; the schema stamp, session name,
        and CRC are added here. Raises :class:`PersistenceError` when
        the write cannot be completed (disk full, unwritable root) —
        the caller decides whether losing the checkpoint is fatal.
        """
        body = dict(
            document,
            checkpoint_schema=CHECKPOINT_SCHEMA_VERSION,
            session=name,
        )
        payload = _canonical(body)
        envelope = json.dumps(
            {"crc": zlib.crc32(payload), "body": body},
            separators=(",", ":"),
        ).encode("utf-8")
        final = self.path_for(name)
        self._tmp_serial += 1
        tmp = final.with_name(
            f"{final.stem}.{os.getpid()}.{self._tmp_serial}.tmp"
        )
        try:
            with open(tmp, "wb") as handle:
                handle.write(envelope)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, final)
        except OSError as error:
            try:
                tmp.unlink()
            except OSError:
                pass
            self._count("checkpoint_write_errors", help="Failed writes")
            raise PersistenceError(
                f"cannot write checkpoint for {name!r}: {error}"
            ) from None
        self.written += 1
        self._count(
            "checkpoint_bytes_written", len(envelope),
            help="Checkpoint bytes published",
        )
        return final

    # -- read -----------------------------------------------------------------

    def _load_path(self, path: Path) -> Optional[dict]:
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except OSError as error:
            # A transient read failure (EIO, EACCES) is not
            # corruption: count the miss but leave the file in place
            # for a retry or the next recovery.
            self.read_errors += 1
            self._telemetry.emit(
                "checkpoint_read_error",
                path=path.name,
                error=f"{type(error).__name__}: {error}",
            )
            return None
        try:
            envelope = json.loads(raw.decode("utf-8"))
            body = envelope["body"]
            if zlib.crc32(_canonical(body)) != envelope["crc"]:
                raise ValueError("checkpoint CRC mismatch")
            if body.get("checkpoint_schema") != CHECKPOINT_SCHEMA_VERSION:
                raise ValueError(
                    f"checkpoint schema {body.get('checkpoint_schema')!r}"
                    f" != {CHECKPOINT_SCHEMA_VERSION}"
                )
            if not isinstance(body.get("session"), str):
                raise ValueError("checkpoint lacks a session name")
        except (UnicodeDecodeError, ValueError, KeyError, TypeError):
            self.corrupt_dropped += 1
            self._telemetry.emit("checkpoint_corrupt", path=path.name)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return body

    def load(self, name: str) -> Optional[dict]:
        """``name``'s checkpoint document, or ``None`` (missing or
        dropped as corrupt — a counted, non-fatal event)."""
        return self._load_path(self.path_for(name))

    def load_all(self) -> Dict[str, dict]:
        """Every readable checkpoint, keyed by session name."""
        documents: Dict[str, dict] = {}
        for path in self._files():
            body = self._load_path(path)
            if body is not None:
                documents[body["session"]] = body
        return documents

    def _files(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob(f"*{_SUFFIX}")):
            if path.is_file():
                yield path

    # -- maintenance ----------------------------------------------------------

    def delete(self, name: str) -> bool:
        """Remove ``name``'s checkpoint; returns whether one existed.
        Raises :class:`PersistenceError` when it cannot be removed."""
        try:
            self.path_for(name).unlink()
        except FileNotFoundError:
            return False
        except OSError as error:
            raise PersistenceError(
                f"cannot delete checkpoint for {name!r}: {error}"
            ) from None
        return True

    def __len__(self) -> int:
        return sum(1 for _ in self._files())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckpointStore(root={str(self.root)!r})"
