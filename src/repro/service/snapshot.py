"""Full serialize/restore of :class:`~repro.core.online.PhaseTracker`.

A snapshot is a JSON-safe document capturing *everything* a tracker
knows: the signature table (entries, per-entry thresholds, min
counters, CPI statistics, LRU clocks), the mid-interval accumulator
contents, adaptive-threshold state, both predictors' tables and
histories, and the interval bookkeeping. Restoring a snapshot and
continuing a branch stream yields byte-identical phase-ID and
prediction streams versus never having stopped — the property the test
suite enforces — so sessions survive service restarts and can migrate
between hosts.

The document is stamped with an explicit ``schema_version``
(:data:`SNAPSHOT_VERSION`); a mismatch raises the typed
:class:`~repro.errors.SnapshotSchemaError` from the envelope
validators, before any component state is touched. The document is
self-describing: the classifier configuration and the change
predictor's type/geometry travel inside it, so ``restore_tracker``
needs nothing but the document. The component state formats live with
the components themselves (``export_state`` / ``restore_state`` hooks
on the classifier, tables and predictors); this module adds the
envelope, validation, and tracker reconstruction.
"""

from __future__ import annotations

import json
from typing import Optional, TYPE_CHECKING

from repro.core.config import ClassifierConfig
from repro.core.online import PhaseTracker
from repro.errors import (
    ConfigurationError,
    ReproError,
    SnapshotError,
    SnapshotSchemaError,
)
from repro.prediction import change_predictor_from_spec

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry

#: Snapshot document revision; bumped on incompatible state changes.
SNAPSHOT_VERSION = 1

__all__ = [
    "SNAPSHOT_VERSION",
    "check_schema_version",
    "dumps",
    "loads",
    "restore_tracker",
    "snapshot_tracker",
]


def snapshot_tracker(tracker) -> dict:
    """Export a tracker into a versioned, JSON-safe document.

    Accepts anything with the :class:`PhaseTracker` ``export_state``
    hook — including a library :class:`~repro.core.pool.PooledTracker`
    slot, whose exported state is byte-identical to the scalar
    tracker's.
    """
    document = {
        "schema_version": SNAPSHOT_VERSION,
        "tracker": tracker.export_state(),
    }
    return document


def check_schema_version(document: dict) -> int:
    """Validate a document's ``schema_version`` stamp.

    Accepts the pre-stamp key ``version`` as a legacy alias. Returns
    the version on success; raises :class:`SnapshotSchemaError` when
    the stamp is missing or differs from :data:`SNAPSHOT_VERSION`.
    """
    version = document.get("schema_version", document.get("version"))
    if version != SNAPSHOT_VERSION:
        raise SnapshotSchemaError(
            f"unsupported snapshot schema_version {version!r}; this "
            f"build reads version {SNAPSHOT_VERSION}"
        )
    return version


def restore_tracker(
    document: dict,
    telemetry: "Optional[Telemetry]" = None,
) -> PhaseTracker:
    """Rebuild a tracker from a :func:`snapshot_tracker` document.

    The returned tracker continues exactly where the snapshotted one
    stopped (mid-interval accumulator contents included). Listeners
    are not part of a snapshot; ``telemetry`` attaches a hub to the
    restored tracker.

    Raises :class:`~repro.errors.SnapshotError` on a malformed
    document and :class:`~repro.errors.SnapshotSchemaError` (a
    subclass) on a ``schema_version`` mismatch.
    """
    if not isinstance(document, dict):
        raise SnapshotError("snapshot must be a JSON object")
    check_schema_version(document)
    state = document.get("tracker")
    if not isinstance(state, dict):
        raise SnapshotError("snapshot lacks the 'tracker' state object")

    try:
        config = ClassifierConfig(**state["classifier"]["config"])
    except (KeyError, TypeError, ConfigurationError) as error:
        raise SnapshotError(
            f"snapshot classifier configuration is invalid: {error}"
        ) from None

    tracker = PhaseTracker(
        config,
        interval_instructions=int(state["interval_instructions"]),
        change_predictor=change_predictor_from_spec(
            state.get("change_predictor")
        ),
        telemetry=telemetry,
    )
    try:
        tracker.restore_state(state)
    except (KeyError, IndexError, TypeError, ValueError, ReproError) as error:
        raise SnapshotError(f"snapshot state is malformed: {error}") from None
    return tracker


def dumps(document: dict) -> str:
    """Serialize a snapshot document to compact JSON text."""
    return json.dumps(document, separators=(",", ":"))


def loads(text: str) -> dict:
    """Parse snapshot JSON text, validating the envelope shape and the
    ``schema_version`` stamp (:class:`~repro.errors.SnapshotSchemaError`
    on mismatch)."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise SnapshotError(f"snapshot text is not valid JSON: {error}")
    if not isinstance(document, dict):
        raise SnapshotError("snapshot must be a JSON object")
    check_schema_version(document)
    return document
