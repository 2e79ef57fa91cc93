"""Phase predictors (paper §5 and §6).

Next-phase prediction predicts the phase ID of the next interval of
execution; phase-change prediction predicts the outcome of the next
phase change, whenever it may occur; phase-length prediction predicts
the run-length *class* of the next phase.

- :mod:`repro.prediction.counters` — saturating / confidence counters.
- :mod:`repro.prediction.assoc_table` — the 32-entry 4-way set
  associative prediction table with per-set LRU.
- :mod:`repro.prediction.last_value` — last-value prediction with
  per-phase 3-bit confidence (§5.2.1, §5.1).
- :mod:`repro.prediction.markov` — Markov-N predictors over the last N
  unique phase IDs, with Last-4 and Top-N entry variants (§5.2.2, §6.1).
- :mod:`repro.prediction.rle` — run-length-encoding predictors over the
  last N (phase ID, run length) pairs (§5.2.3).
- :mod:`repro.prediction.composite` — the combined next-phase predictor
  (confident phase-change table result, else last value).
- :mod:`repro.prediction.perfect` — the infinite-memory oracle Markov
  models bounding achievable phase-change coverage (§6.1).
- :mod:`repro.prediction.change_eval` — phase-change prediction
  evaluation (Fig. 8 categories).
- :mod:`repro.prediction.length` — run-length classes and the RLE-2
  length predictor with hysteresis (§6.2, Fig. 9).
- :mod:`repro.prediction.protocol` — the unified
  :class:`~repro.prediction.protocol.PhasePredictor` contract every
  predictor implements (``advance(phase_id) -> PhaseObservation``).

Every predictor here conforms to :class:`PhasePredictor`: drive it
with ``advance(phase_id)`` and read the uniform
:class:`PhaseObservation` it returns; it is the only entry point.
:class:`CompositePhasePredictor` is the one deliberate exception — it
*drives* component predictors through the protocol and exposes the
richer ``step``/``predict`` interface trackers consume.
"""

from typing import Optional

from repro.errors import SnapshotError
from repro.prediction.assoc_table import AssociativeTable
from repro.prediction.change_eval import (
    ChangePredictionStats,
    evaluate_change_predictor,
)
from repro.prediction.composite import CompositePhasePredictor, NextPhaseStats
from repro.prediction.counters import ConfidenceCounter, SaturatingCounter
from repro.prediction.last_value import LastValuePredictor
from repro.prediction.markov import MarkovChangePredictor
from repro.prediction.length import (
    LENGTH_CLASS_BOUNDS,
    PhaseLengthPredictor,
    length_class,
)
from repro.prediction.perfect import PerfectMarkovPredictor
from repro.prediction.protocol import PhaseObservation, PhasePredictor
from repro.prediction.rle import RLEChangePredictor
from repro.prediction.tournament import TournamentChangePredictor

#: Change-predictor registry keyed by snapshot kind — the vocabulary
#: snapshot documents use to name the predictor that must be rebuilt.
CHANGE_PREDICTOR_KINDS = {
    RLEChangePredictor.snapshot_kind: RLEChangePredictor,
    MarkovChangePredictor.snapshot_kind: MarkovChangePredictor,
}


def change_predictor_from_spec(spec: "Optional[dict]"):
    """Rebuild a change predictor from its snapshot spec.

    ``spec`` is the ``{"kind": ..., "kwargs": ...}`` mapping a tracker
    snapshot carries (``None`` means pure last-value — no change
    predictor). Raises :class:`~repro.errors.SnapshotError` for a spec
    that is not a mapping, a kind that is not a known name, a spec
    without ``kwargs``, or kwargs the predictor's constructor rejects.
    """
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise SnapshotError(
            f"change-predictor spec must be an object, not "
            f"{type(spec).__name__}"
        )
    kind = spec.get("kind")
    predictor_cls = (
        CHANGE_PREDICTOR_KINDS.get(kind) if isinstance(kind, str) else None
    )
    if predictor_cls is None:
        raise SnapshotError(
            f"unknown change-predictor kind {kind!r}; expected one of "
            f"{sorted(CHANGE_PREDICTOR_KINDS)}"
        )
    try:
        return predictor_cls(**spec["kwargs"])
    except Exception as error:
        raise SnapshotError(
            f"cannot rebuild {kind!r} change predictor: {error}"
        ) from error


__all__ = [
    "AssociativeTable",
    "CHANGE_PREDICTOR_KINDS",
    "ChangePredictionStats",
    "CompositePhasePredictor",
    "ConfidenceCounter",
    "LENGTH_CLASS_BOUNDS",
    "LastValuePredictor",
    "MarkovChangePredictor",
    "NextPhaseStats",
    "PerfectMarkovPredictor",
    "PhaseLengthPredictor",
    "PhaseObservation",
    "PhasePredictor",
    "RLEChangePredictor",
    "SaturatingCounter",
    "TournamentChangePredictor",
    "change_predictor_from_spec",
    "evaluate_change_predictor",
    "length_class",
]
