"""The online phase classifier.

Combines the accumulator table, bit selection, signature table,
transition-phase min counters and adaptive thresholds into the full
architecture of the paper:

1. **Track the code** — each interval's (branch PC, instruction count)
   records accumulate into the hashed counter table.
2. **Form the signature** — at interval end the counters are compressed
   by the configured bit selector.
3. **Classify** — the signature is compared against the table. On a
   match (most-similar policy by default) the stored signature is
   replaced by the current one and the entry's Min Counter increments;
   on a miss a new entry is inserted. An entry's intervals belong to
   the transition phase (ID 0) until the Min Counter exceeds the
   min-count threshold, at which point a real phase ID is allocated.
4. **Adapt** — with the adaptive classifier enabled, each stable entry
   tracks the running-average CPI of its intervals; an interval whose
   CPI deviates more than the performance-deviation threshold halves
   the entry's similarity threshold and clears its CPI statistics.

The classifier is driven interval by interval
(:meth:`PhaseClassifier.classify_interval`) or over a whole trace
(:meth:`PhaseClassifier.classify_trace`).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional

import numpy as np

from repro.core.accumulator import AccumulatorTable
from repro.core.bitselect import (
    BitSelector,
    DynamicBitSelector,
    StaticBitSelector,
)
from repro.core.config import TRANSITION_PHASE_ID, ClassifierConfig
from repro.core.distance import Normalizer, sum_normalizer
from repro.core.events import ClassificationResult, ClassificationRun
from repro.core.signature import Signature
from repro.core.signature_table import SignatureTable
from repro.errors import ConfigurationError
from repro.workloads.trace import Interval, IntervalTrace


class PhaseClassifier:
    """Online phase classification per the paper's architecture.

    Example
    -------
    >>> from repro.core import ClassifierConfig, PhaseClassifier
    >>> from repro.workloads import benchmark
    >>> trace = benchmark("gzip/g", scale=0.1)
    >>> classifier = PhaseClassifier(ClassifierConfig.paper_default())
    >>> run = classifier.classify_trace(trace)
    >>> run.num_phases >= 1
    True
    """

    def __init__(
        self,
        config: Optional[ClassifierConfig] = None,
        normalizer: Normalizer = sum_normalizer,
    ) -> None:
        self.config = config or ClassifierConfig()
        self.accumulator = AccumulatorTable(self.config.num_counters)
        self.table = SignatureTable(
            capacity=self.config.table_entries,
            default_threshold=self.config.similarity_threshold,
            normalizer=normalizer,
        )
        self.bit_selector = self._build_bit_selector(self.config)
        self._next_phase_id = TRANSITION_PHASE_ID + 1
        self.phases_allocated = 0

    @staticmethod
    def _build_bit_selector(config: ClassifierConfig) -> BitSelector:
        if config.bit_selector == "dynamic":
            return DynamicBitSelector(bits=config.bits_per_counter)
        return StaticBitSelector(
            bits=config.bits_per_counter, low_bit=config.static_low_bit
        )

    # -- signature formation ---------------------------------------------

    def signature_for(self, interval: Interval) -> Signature:
        """Form the compressed signature for one interval's records.

        The accumulator table is cleared, fed the interval's branch
        records, and compressed with the configured bit selector.
        """
        self.accumulator.clear()
        self.accumulator.update_batch(
            interval.branch_pcs, interval.instr_counts
        )
        compressed = self.bit_selector.compress(
            self.accumulator.counters,
            self.accumulator.average_counter_value,
        )
        return Signature.from_compressed(
            compressed, self.config.bits_per_counter
        )

    # -- classification -----------------------------------------------------

    def classify_interval(self, interval: Interval) -> ClassificationResult:
        """Classify one interval; returns its phase verdict."""
        signature = self.signature_for(interval)
        return self.classify_signature(signature, interval.cpi)

    def classify_signature(
        self, signature: Signature, cpi: float
    ) -> ClassificationResult:
        """Classify an already-formed signature (paper §4.1 step 3).

        This is the entry point for streaming drivers
        (:class:`repro.core.online.PhaseTracker`) that feed the
        accumulator branch by branch themselves; ``cpi`` is the
        interval's measured CPI used only by the adaptive feedback.
        """
        table = self.table
        match = table.best_match(signature, self.config.match_policy)

        if match is None:
            row = table.insert(signature)
            table.min_counters[row] = 1
            distance = 0.0
            matched = False
        else:
            row, distance = match
            table.min_counters[row] += 1
            table.touch(row, signature)
            matched = True

        new_phase = False
        phase_id = table.phase_ids[row]
        if (
            phase_id is None
            and table.min_counters[row] > self.config.min_count_threshold
        ):
            phase_id = table.phase_ids[row] = self._next_phase_id
            self._next_phase_id += 1
            self.phases_allocated += 1
            new_phase = True
        if phase_id is None:
            phase_id = TRANSITION_PHASE_ID

        tightened = False
        if self.config.adaptive and phase_id != TRANSITION_PHASE_ID:
            tightened = self._apply_performance_feedback(row, cpi)

        return ClassificationResult(
            phase_id=phase_id,
            matched=matched,
            distance=distance,
            threshold_tightened=tightened,
            new_phase_allocated=new_phase,
        )

    def _apply_performance_feedback(self, row: int, cpi: float) -> bool:
        """§4.6: halve the entry's threshold on large CPI deviation.

        Classification itself remains purely code-based; CPI only
        decides *when* to tighten. Returns whether tightening occurred.
        """
        table = self.table
        threshold = self.config.perf_dev_threshold
        assert threshold is not None  # guarded by caller
        if table.cpi_deviation(row, cpi) > threshold:
            table.thresholds[row] /= 2.0
            table.clear_cpi_stats(row)
            return True
        table.record_cpi(row, cpi)
        return False

    def classify_trace(self, trace: IntervalTrace) -> ClassificationRun:
        """Classify every interval of a trace, in order."""
        results: List[ClassificationResult] = [
            self.classify_interval(interval) for interval in trace
        ]
        return ClassificationRun(
            results=results,
            num_phases=self.phases_allocated,
            evictions=self.table.evictions,
        )

    # -- maintenance ----------------------------------------------------------

    def reset(self) -> None:
        """Return to the just-constructed state without rebuilding the
        accumulator, table or bit-selector objects."""
        self.accumulator.clear()
        self.table.clear()
        self._next_phase_id = TRANSITION_PHASE_ID + 1
        self.phases_allocated = 0

    # -- snapshot hooks -------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-safe full classifier state.

        The configuration travels with the state so a restored
        classifier is self-describing; the bit selector is stateless
        and rebuilt from the configuration.
        """
        return {
            "config": asdict(self.config),
            "next_phase_id": self._next_phase_id,
            "phases_allocated": self.phases_allocated,
            "accumulator": self.accumulator.export_state(),
            "table": self.table.export_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`export_state`.

        The classifier must have been constructed with the same
        configuration the state was exported under.
        """
        exported = ClassifierConfig(**state["config"])
        if exported != self.config:
            raise ConfigurationError(
                "snapshot was exported under a different classifier "
                f"configuration: {exported} vs {self.config}"
            )
        # Boundary signatures are matched against every entry's values
        # as one matrix: an entry of another shape or width would fail
        # (or silently mis-match) at the next boundary instead of here.
        for record in state["table"]["entries"]:
            if len(record["values"]) != self.config.num_counters:
                raise ConfigurationError(
                    f"snapshot table entry has {len(record['values'])} "
                    f"values, the configuration {self.config.num_counters}"
                )
            if record["bits"] != self.config.bits_per_counter:
                raise ConfigurationError(
                    f"snapshot table entry has {record['bits']} bits, the "
                    f"configuration {self.config.bits_per_counter}"
                )
        self._next_phase_id = int(state["next_phase_id"])
        self.phases_allocated = int(state["phases_allocated"])
        self.accumulator.restore_state(state["accumulator"])
        self.table.restore_state(state["table"])

    def notify_reconfiguration(self) -> None:
        """Flush all CPI feedback state (paper §4.6: an optimization that
        changes CPI must clear the feedback data, since classification
        must stay independent of the underlying hardware)."""
        self.table.flush_cpi_stats()

    @property
    def num_phases(self) -> int:
        """Real phase IDs allocated so far."""
        return self.phases_allocated
