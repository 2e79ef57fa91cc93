"""Streaming phase tracking: the deployable branch-by-branch interface.

:class:`PhaseTracker` is what an online system (a DVS governor, a
reconfiguration manager, an OS scheduler) would actually embed: it is
driven one committed branch at a time, detects interval boundaries
itself, classifies each completed interval, keeps the next-phase and
phase-length predictors trained, and notifies registered listeners on
phase changes.

Typical use::

    tracker = PhaseTracker()
    tracker.add_phase_change_listener(
        lambda report: print("now in phase", report.phase_id))
    ...
    for pc, instructions in committed_branches:
        if tracker.observe_branch(pc, instructions):
            report = tracker.complete_interval(cpi=read_cpi_counter())

The caller supplies the interval's CPI at the boundary (a hardware
implementation reads cycle/instruction counters); everything else is
internal.

Pass ``telemetry=`` a :class:`repro.telemetry.Telemetry` hub to make
the tracker observable: per-interval stage spans (signature formation,
table matching, prediction update), signature-table hit/miss/eviction
counters, predictor accuracy counters, a per-branch ingest-latency
histogram, and one structured ``interval`` event per boundary. The
bare (``telemetry=None``) hot path is unchanged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, TYPE_CHECKING

import numpy as np

from repro.core.classifier import PhaseClassifier
from repro.core.config import ClassifierConfig, TRANSITION_PHASE_ID
from repro.core.events import ClassificationResult
from repro.core.signature import Signature
from repro.errors import PredictionError
from repro.prediction.composite import (
    CompositePhasePredictor,
    NextPhasePrediction,
)
from repro.prediction.length import PhaseLengthPredictor
from repro.prediction.rle import RLEChangePredictor
from repro.workloads.trace import DEFAULT_INTERVAL_INSTRUCTIONS

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    from repro.telemetry import Telemetry

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrackerReport:
    """Everything the tracker knows at one interval boundary."""

    interval_index: int
    phase_id: int
    is_transition: bool
    phase_changed: bool
    new_phase_allocated: bool
    predicted_next_phase: Optional[int]
    prediction_confident: bool
    predicted_length_class: Optional[int]

    def to_dict(self) -> dict:
        """The report's wire format: plain JSON-safe field/value pairs.

        This is the single serializer every consumer shares — telemetry
        ``interval`` events and the service protocol's interval pushes
        both carry exactly these keys, in field-declaration order (the
        order is part of the wire format). A literal, because
        ``dataclasses.asdict`` deep-copies every field and costs thirty
        times as much at every interval boundary.
        """
        return {
            "interval_index": self.interval_index,
            "phase_id": self.phase_id,
            "is_transition": self.is_transition,
            "phase_changed": self.phase_changed,
            "new_phase_allocated": self.new_phase_allocated,
            "predicted_next_phase": self.predicted_next_phase,
            "prediction_confident": self.prediction_confident,
            "predicted_length_class": self.predicted_length_class,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrackerReport":
        """Rebuild a report from its :meth:`to_dict` form."""
        return cls(**{name: payload[name] for name in (
            "interval_index", "phase_id", "is_transition", "phase_changed",
            "new_phase_allocated", "predicted_next_phase",
            "prediction_confident", "predicted_length_class",
        )})


def _check_cpi(cpi: float) -> None:
    """Refuse a CPI the adaptive classifier cannot fold into an
    entry's running mean (one NaN would poison that mean for good)."""
    if not 0.0 < cpi < math.inf:
        raise ValueError(f"cpi must be a finite positive number, got {cpi}")


#: Listener signature for phase-change notifications.
PhaseChangeListener = Callable[[TrackerReport], None]


class PhaseTracker:
    """Branch-granularity online phase tracking, prediction included.

    Parameters
    ----------
    config:
        Classifier configuration (paper §5.1 defaults).
    interval_instructions:
        Interval length; boundaries are detected when the committed
        instruction count reaches this (the branch record that crosses
        the boundary is attributed entirely to the completing interval,
        as the hardware's queue drain would).
    change_predictor:
        Phase-change predictor backing next-phase prediction; defaults
        to an RLE-2 table. Pass ``None`` for pure last-value.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hub. When given,
        the tracker records counters, stage spans and per-interval
        events into it; when ``None`` (default) no telemetry work
        happens on either the per-branch or the per-interval path.
    """

    def __init__(
        self,
        config: Optional[ClassifierConfig] = None,
        interval_instructions: int = DEFAULT_INTERVAL_INSTRUCTIONS,
        change_predictor: "RLEChangePredictor | None | str" = "default",
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        if interval_instructions <= 0:
            raise PredictionError(
                "interval_instructions must be positive, got "
                f"{interval_instructions}"
            )
        self.classifier = PhaseClassifier(
            config or ClassifierConfig.paper_default()
        )
        self.interval_instructions = interval_instructions
        if change_predictor == "default":
            change_predictor = RLEChangePredictor(2)
        self.next_phase = CompositePhasePredictor(change_predictor)
        self.length_predictor = PhaseLengthPredictor()
        self._instructions = 0
        self._boundary_pending = False
        self._interval_index = 0
        self._previous_phase: Optional[int] = None
        self._listeners: List[PhaseChangeListener] = []
        self._branches_in_interval = 0
        self._telemetry = telemetry
        if telemetry is not None:
            self._init_telemetry(telemetry)

    # -- wiring ---------------------------------------------------------------

    def _init_telemetry(self, telemetry: "Telemetry") -> None:
        metrics = telemetry.metrics
        self._m_branches = metrics.counter(
            "repro_tracker_branches_total",
            "Committed branches observed by the tracker",
        )
        self._m_instructions = metrics.counter(
            "repro_tracker_instructions_total",
            "Committed instructions attributed to completed intervals",
        )
        self._m_intervals = metrics.counter(
            "repro_tracker_intervals_total",
            "Intervals classified at boundaries",
        )
        self._m_transitions = metrics.counter(
            "repro_tracker_transition_intervals_total",
            "Intervals classified into the transition phase (ID 0)",
        )
        self._m_phase_changes = metrics.counter(
            "repro_tracker_phase_changes_total",
            "Interval boundaries where the phase ID changed",
        )
        self._m_new_phases = metrics.counter(
            "repro_tracker_new_phases_total",
            "Real phase IDs allocated (entries turning stable)",
        )
        self._m_listener_errors = metrics.counter(
            "repro_tracker_listener_errors_total",
            "Phase-change listener callbacks that raised",
        )
        self._m_table_hits = metrics.counter(
            "repro_signature_table_hits_total",
            "Signatures matched to an existing table entry",
        )
        self._m_table_misses = metrics.counter(
            "repro_signature_table_misses_total",
            "Signatures that inserted a new table entry",
        )
        self._m_table_evictions = metrics.counter(
            "repro_signature_table_evictions_total",
            "LRU evictions from the signature table",
        )
        self._m_table_occupancy = metrics.gauge(
            "repro_signature_table_occupancy",
            "Live signature-table entries",
        )
        self._m_halvings = metrics.counter(
            "repro_classifier_threshold_halvings_total",
            "Adaptive similarity-threshold halvings (paper §4.6)",
        )
        self._m_pred_total = metrics.counter(
            "repro_next_phase_predictions_total",
            "Next-phase predictions evaluated against the actual phase",
        )
        self._m_pred_correct = metrics.counter(
            "repro_next_phase_correct_total",
            "Next-phase predictions that were correct",
        )
        self._m_pred_confident = metrics.counter(
            "repro_next_phase_confident_total",
            "Next-phase predictions issued with confidence",
        )
        self._m_pred_confident_correct = metrics.counter(
            "repro_next_phase_confident_correct_total",
            "Confident next-phase predictions that were correct",
        )
        self._h_branch_ingest = metrics.histogram(
            "repro_branch_ingest_seconds",
            "Mean per-branch observe latency, measured per interval",
            start=1e-8,
            factor=4.0,
            count=14,
        )
        self._evictions_seen = 0
        self._observe_window_start: Optional[float] = None
        telemetry.emit(
            "tracker_start",
            interval_instructions=self.interval_instructions,
            config=asdict(self.classifier.config),
            change_predictor=type(
                self.next_phase.change_predictor
            ).__name__ if self.next_phase.change_predictor else None,
        )

    def add_phase_change_listener(
        self, listener: PhaseChangeListener
    ) -> None:
        """Register a callback fired whenever the phase ID changes.

        Listeners are isolated: a raising listener is logged (and
        counted/recorded when telemetry is attached) and the remaining
        listeners still run — interval completion never aborts on a
        listener failure.
        """
        self._listeners.append(listener)

    # -- the streaming interface ------------------------------------------------

    def observe_branch(self, pc: int, instructions: int) -> bool:
        """Record one committed branch; returns True at a boundary.

        When True is returned the caller must call
        :meth:`complete_interval` with the interval's measured CPI
        before observing further branches.
        """
        if self._boundary_pending:
            raise PredictionError(
                "interval boundary reached; call complete_interval(cpi) "
                "before observing more branches"
            )
        self.classifier.accumulator.update(pc, instructions)
        self._instructions += instructions
        self._branches_in_interval += 1
        if self._instructions >= self.interval_instructions:
            self._boundary_pending = True
        return self._boundary_pending

    def observe_batch(
        self, pcs, counts, cpi: float = 1.0
    ) -> List[TrackerReport]:
        """Ingest many committed branches at once, closing every interval
        boundary the batch crosses.

        Behaviourally identical to calling :meth:`observe_branch` per
        record and :meth:`complete_interval` at each boundary (the
        accumulator's saturating adds commute with batching), but the
        per-interval segments are ingested vectorized — this is the
        service's batched-ingest fast path. ``cpi`` is attributed to
        every interval the batch completes. Returns the boundary
        reports, oldest first; the batch never ends boundary-pending.
        Negative counts and a CPI that is not a finite positive number
        raise ``ValueError`` before anything is ingested.
        """
        if self._boundary_pending:
            raise PredictionError(
                "interval boundary reached; call complete_interval(cpi) "
                "before observing more branches"
            )
        pcs = np.asarray(pcs, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if pcs.shape != counts.shape or pcs.ndim != 1:
            raise PredictionError(
                "pcs and counts must be parallel 1-D arrays: "
                f"{pcs.shape} vs {counts.shape}"
            )
        _check_cpi(cpi)
        if pcs.size == 0:
            return []
        if counts.min() < 0:
            raise ValueError("instruction counts must be non-negative")

        accumulator = self.classifier.accumulator
        prefix = np.cumsum(counts)
        reports: List[TrackerReport] = []
        start = 0
        consumed = 0
        total = pcs.size
        while start < total:
            needed = self.interval_instructions - self._instructions
            boundary = int(
                np.searchsorted(prefix, consumed + needed, side="left")
            )
            if boundary >= total:
                accumulator.update_batch(pcs[start:], counts[start:])
                self._instructions += int(prefix[-1]) - consumed
                self._branches_in_interval += total - start
                break
            accumulator.update_batch(
                pcs[start:boundary + 1], counts[start:boundary + 1]
            )
            self._instructions += int(prefix[boundary]) - consumed
            self._branches_in_interval += boundary + 1 - start
            self._boundary_pending = True
            reports.append(self._close_interval(cpi))
            consumed = int(prefix[boundary])
            start = boundary + 1
        return reports

    def complete_interval(self, cpi: float) -> TrackerReport:
        """Close the current interval: classify, predict, notify.

        A CPI that is not a finite positive number raises
        ``ValueError`` and leaves the interval open.
        """
        if not self._boundary_pending and self._instructions == 0:
            raise PredictionError("no interval content to complete")
        _check_cpi(cpi)
        return self._close_interval(cpi)

    def _close_interval(self, cpi: float) -> TrackerReport:
        telemetry = self._telemetry
        interval_instructions = self._instructions
        interval_branches = self._branches_in_interval

        if telemetry is None:
            signature = self._form_signature()
            result = self.classifier.classify_signature(signature, cpi)
            prediction = self._update_predictors(result.phase_id)
        else:
            # The prediction this interval is scored against; a
            # restored snapshot carries it too.
            evaluated = self.next_phase.pending_prediction
            now = telemetry.tracer.clock()
            if (
                self._observe_window_start is not None
                and interval_branches > 0
            ):
                self._h_branch_ingest.observe(
                    (now - self._observe_window_start) / interval_branches
                )
            with telemetry.span("interval"):
                with telemetry.span("signature"):
                    signature = self._form_signature()
                with telemetry.span("match"):
                    result = self.classifier.classify_signature(
                        signature, cpi
                    )
                with telemetry.span("predict"):
                    prediction = self._update_predictors(result.phase_id)

        self._instructions = 0
        self._branches_in_interval = 0
        self._boundary_pending = False

        phase_changed = (
            self._previous_phase is not None
            and result.phase_id != self._previous_phase
        )
        report = TrackerReport(
            interval_index=self._interval_index,
            phase_id=result.phase_id,
            is_transition=result.phase_id == TRANSITION_PHASE_ID,
            phase_changed=phase_changed,
            new_phase_allocated=result.new_phase_allocated,
            predicted_next_phase=(
                prediction.phase_id if prediction is not None else None
            ),
            prediction_confident=(
                prediction.confident if prediction is not None else False
            ),
            predicted_length_class=(
                self.length_predictor.outstanding_prediction
            ),
        )
        self._interval_index += 1
        self._previous_phase = result.phase_id

        if telemetry is not None:
            self._record_interval_telemetry(
                telemetry, report, result, evaluated, cpi,
                interval_instructions, interval_branches,
            )

        if phase_changed:
            self._notify_listeners(report)
        return report

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Return to a freshly constructed tracker's state in place.

        Clears the classifier (accumulator, signature table, phase-ID
        allocation), both predictors, interval bookkeeping and the
        registered listeners — without reconstructing any of those
        objects. A reset tracker produces the same classification
        stream as a new one built with the same configuration. An
        attached telemetry hub stays attached; its cumulative counters
        are not rewound.
        """
        self.classifier.reset()
        self.next_phase.reset()
        self.length_predictor.reset()
        self._instructions = 0
        self._boundary_pending = False
        self._interval_index = 0
        self._previous_phase = None
        self._branches_in_interval = 0
        self._listeners.clear()
        if self._telemetry is not None:
            self._evictions_seen = 0
            self._observe_window_start = None

    # -- snapshot hooks --------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-safe full tracker state (see :mod:`repro.service.snapshot`
        for the versioned envelope and the restore entry point).

        Captures everything replay-relevant: classifier tables and
        mid-interval accumulator contents, both predictors, and the
        interval bookkeeping. Listeners and telemetry are runtime
        wiring and are not part of the state.
        """
        change = self.next_phase.change_predictor
        return {
            "interval_instructions": self.interval_instructions,
            "instructions": self._instructions,
            "boundary_pending": self._boundary_pending,
            "interval_index": self._interval_index,
            "previous_phase": self._previous_phase,
            "branches_in_interval": self._branches_in_interval,
            "classifier": self.classifier.export_state(),
            "change_predictor": (
                {"kind": change.snapshot_kind,
                 "kwargs": change.snapshot_kwargs()}
                if change is not None else None
            ),
            "next_phase": self.next_phase.export_state(),
            "length_predictor": self.length_predictor.export_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state` onto a tracker
        constructed with the same configuration and predictor setup."""
        self.interval_instructions = int(state["interval_instructions"])
        self._instructions = int(state["instructions"])
        self._boundary_pending = bool(state["boundary_pending"])
        self._interval_index = int(state["interval_index"])
        self._previous_phase = state["previous_phase"]
        self._branches_in_interval = int(state["branches_in_interval"])
        self.classifier.restore_state(state["classifier"])
        self.next_phase.restore_state(state["next_phase"])
        self.length_predictor.restore_state(state["length_predictor"])
        if self._telemetry is not None:
            # Restored table evictions predate this telemetry session;
            # don't re-count them at the next boundary.
            self._evictions_seen = self.classifier.table.evictions

    # -- interval stages ------------------------------------------------------

    def _form_signature(self) -> Signature:
        """Compress the accumulated counters into the interval signature."""
        accumulator = self.classifier.accumulator
        compressed = self.classifier.bit_selector.compress(
            accumulator.counters, accumulator.average_counter_value
        )
        accumulator.clear()
        return Signature.from_compressed(
            compressed, self.classifier.config.bits_per_counter
        )

    def _update_predictors(
        self, phase_id: int
    ) -> Optional[NextPhasePrediction]:
        """Train predictors on the classified interval; predict the next."""
        self.next_phase.step(phase_id)
        self.length_predictor.advance(phase_id)
        # ``step`` has just made the next prediction; predicting again
        # would repeat its table lookups.
        return self.next_phase.pending_prediction

    # -- telemetry ------------------------------------------------------------

    def _record_interval_telemetry(
        self,
        telemetry: "Telemetry",
        report: TrackerReport,
        result: ClassificationResult,
        evaluated: Optional[NextPhasePrediction],
        cpi: float,
        interval_instructions: int,
        interval_branches: int,
    ) -> None:
        self._m_branches.inc(interval_branches)
        self._m_instructions.inc(interval_instructions)
        self._m_intervals.inc()
        if result.matched:
            self._m_table_hits.inc()
        else:
            self._m_table_misses.inc()
        evictions = self.classifier.table.evictions
        if evictions > self._evictions_seen:
            self._m_table_evictions.inc(evictions - self._evictions_seen)
            self._evictions_seen = evictions
        self._m_table_occupancy.set(len(self.classifier.table))
        if result.threshold_tightened:
            self._m_halvings.inc()
        if result.new_phase_allocated:
            self._m_new_phases.inc()
        if report.is_transition:
            self._m_transitions.inc()
        if report.phase_changed:
            self._m_phase_changes.inc()

        # Score the prediction made at the previous boundary against
        # the phase this interval actually landed in.
        if evaluated is not None:
            correct = evaluated.phase_id == report.phase_id
            self._m_pred_total.inc()
            if correct:
                self._m_pred_correct.inc()
            if evaluated.confident:
                self._m_pred_confident.inc()
                if correct:
                    self._m_pred_confident_correct.inc()

        telemetry.emit(
            "interval",
            **report.to_dict(),
            table_occupancy=len(self.classifier.table),
            threshold_halvings=int(self._m_halvings.value),
            cpi=cpi,
            branches=interval_branches,
        )
        self._observe_window_start = telemetry.tracer.clock()

    # -- listeners ------------------------------------------------------------

    def _notify_listeners(self, report: TrackerReport) -> None:
        for listener in self._listeners:
            try:
                listener(report)
            except Exception as error:  # noqa: BLE001 - isolation boundary
                logger.exception(
                    "phase-change listener %r raised at interval %d; "
                    "continuing",
                    listener,
                    report.interval_index,
                )
                if self._telemetry is not None:
                    self._m_listener_errors.inc()
                    self._telemetry.emit(
                        "listener_error",
                        interval=report.interval_index,
                        phase_id=report.phase_id,
                        listener=repr(listener),
                        error=repr(error),
                    )

    # -- inspection ---------------------------------------------------------------

    @property
    def intervals_observed(self) -> int:
        return self._interval_index

    @property
    def current_phase(self) -> Optional[int]:
        """Phase of the most recently completed interval."""
        return self._previous_phase

    @property
    def instructions_into_interval(self) -> int:
        """Committed instructions since the last boundary."""
        return self._instructions

    @property
    def telemetry(self) -> "Optional[Telemetry]":
        """The attached telemetry hub, if any."""
        return self._telemetry
