"""Structure-of-arrays tracker pool: batched classification for many
logical trackers per numpy call.

The scalar :class:`~repro.core.online.PhaseTracker` steps its signature
table, min-counters and adaptive thresholds one tracker at a time in
Python; with thousands of concurrent sessions the per-tracker loop —
not the arithmetic — dominates. This module keeps *all* of that state
in shared numpy arrays instead:

- :class:`ClassifierPool` — N logical classifiers in
  structure-of-arrays form. Accumulator counters live in one ``(N, C)``
  array; signature tables in ``(N, T, C)``; min-counters, adaptive
  thresholds, LRU ticks and CPI statistics in parallel ``(N, T)``
  arrays. One :meth:`ClassifierPool.classify` call runs the paper's
  interval-boundary pipeline (Manhattan distance, threshold
  eligibility, most-similar argmin, min-counter/phase allocation,
  adaptive threshold feedback) for every ready slot at once.
- :class:`TrackerPool` — the public pool API: interval bookkeeping on
  top of a :class:`ClassifierPool`, with per-slot next-phase and
  length predictors (ordinary Python objects — they only run at
  interval boundaries, off the vectorized hot path).
  :meth:`TrackerPool.observe_batch` ingests branch records for many
  sessions per call with a segmented scatter-add.
- :class:`PooledTracker` — a per-slot facade quacking like
  :class:`~repro.core.online.PhaseTracker`, so library code written
  against one tracker (observe, predict, snapshot) can drive a pool
  slot unchanged.

Equivalence contract
--------------------
The scalar ``PhaseTracker`` is the oracle. For the same branch streams
the pool produces **identical** phase IDs, transition decisions,
predictor inputs and exported snapshots, byte for byte:

- All float arithmetic (relative distance, CPI running means,
  threshold halving) applies the same IEEE-754 double operations in
  the same order as the scalar path — elementwise numpy float64 ops
  are the same hardware ops Python floats use.
- The scalar table's *list order* (which breaks most-similar distance
  ties, "first" policy matches and LRU eviction scans) is reproduced
  with a per-entry insertion tick: scalar list order is exactly
  ascending insertion order, so "first minimal in list order" becomes
  "minimal insertion tick among candidates".
- Saturating accumulator adds commute with batching (clipping after
  each non-negative sub-batch equals clipping once at the end), so the
  segmented scatter-add matches the scalar per-segment ingest exactly.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.accumulator import _EXACT_FLOAT_SUM, _hash_pc_unchecked
from repro.core.config import (
    ACCUMULATOR_BITS,
    TRANSITION_PHASE_ID,
    ClassifierConfig,
)
from repro.core.distance import Normalizer, max_normalizer, sum_normalizer
from repro.core.online import PhaseChangeListener, TrackerReport
from repro.errors import ConfigurationError, PoolError, PredictionError
from repro.prediction import change_predictor_from_spec
from repro.prediction.composite import CompositePhasePredictor
from repro.prediction.length import PhaseLengthPredictor
from repro.prediction.rle import RLEChangePredictor
from repro.workloads.trace import DEFAULT_INTERVAL_INSTRUCTIONS

#: Sentinel larger than any real tick / record index / target.
_BIG = np.iinfo(np.int64).max


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for non-negative int64 values.

    A shift cascade rather than a log2 so no float rounding can
    disagree with the scalar ``bit_length`` at powers of two.
    """
    values = values.astype(np.int64, copy=True)
    out = np.zeros(values.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = values >= (np.int64(1) << np.int64(shift))
        out[big] += shift
        values = np.where(big, values >> np.int64(shift), values)
    return out + values  # remaining value is 0 or 1


class ClassifierPool:
    """N logical phase classifiers in structure-of-arrays form.

    One pool slot is state-equivalent to one
    :class:`~repro.core.classifier.PhaseClassifier`; a single
    :meth:`classify` call advances many slots in one vectorized pass.
    All slots share one :class:`ClassifierConfig` — batching requires a
    common table geometry.

    Raises :class:`~repro.errors.PoolError` for configurations the
    structure-of-arrays layout cannot host: an infinite signature
    table, or a custom distance normalizer (only the named
    :func:`~repro.core.distance.sum_normalizer` and
    :func:`~repro.core.distance.max_normalizer` have batched forms).
    """

    def __init__(
        self,
        capacity: int,
        config: Optional[ClassifierConfig] = None,
        normalizer: Normalizer = sum_normalizer,
    ) -> None:
        if capacity <= 0:
            raise PoolError(f"capacity must be positive, got {capacity}")
        self.config = config or ClassifierConfig()
        if self.config.table_entries is None:
            raise PoolError(
                "the pool needs a finite signature table; "
                "table_entries=None (the infinite prior-work table) "
                "requires the scalar classifier"
            )
        if normalizer is not sum_normalizer and normalizer is not max_normalizer:
            raise PoolError(
                "the pool batches distance normalization and supports only "
                "sum_normalizer and max_normalizer; custom normalizers "
                "require the scalar classifier"
            )
        self.normalizer = normalizer
        self.capacity = capacity
        self._allocate_arrays(capacity)

    def _allocate_arrays(self, capacity: int) -> None:
        num_counters = self.config.num_counters
        table_entries = self.config.table_entries
        # Accumulator tier: raw per-interval counters and totals.
        self._counters = np.zeros((capacity, num_counters), dtype=np.int64)
        self._acc_total = np.zeros(capacity, dtype=np.int64)
        # Signature-table tier, (N, T) unless noted.
        self._sig = np.zeros(
            (capacity, table_entries, num_counters), dtype=np.int64
        )
        self._sig_total = np.zeros((capacity, table_entries), dtype=np.int64)
        self._threshold = np.zeros((capacity, table_entries), dtype=np.float64)
        self._phase = np.full((capacity, table_entries), -1, dtype=np.int64)
        self._min_counter = np.zeros((capacity, table_entries), dtype=np.int64)
        self._last_used = np.zeros((capacity, table_entries), dtype=np.int64)
        self._insert_tick = np.zeros((capacity, table_entries), dtype=np.int64)
        self._valid = np.zeros((capacity, table_entries), dtype=bool)
        self._cpi_count = np.zeros((capacity, table_entries), dtype=np.int64)
        self._cpi_mean = np.zeros((capacity, table_entries), dtype=np.float64)
        # Per-slot scalars.
        self._clock = np.zeros(capacity, dtype=np.int64)
        self._evictions = np.zeros(capacity, dtype=np.int64)
        self._next_phase_id = np.full(
            capacity, TRANSITION_PHASE_ID + 1, dtype=np.int64
        )
        self._phases_allocated = np.zeros(capacity, dtype=np.int64)
        self._counter_max = (1 << ACCUMULATOR_BITS) - 1
        self._sig_max = (1 << self.config.bits_per_counter) - 1

    def grow(self, capacity: int) -> None:
        """Extend every array to ``capacity`` slots (contents kept)."""
        if capacity <= self.capacity:
            return
        old = self.__dict__.copy()
        self._allocate_arrays(capacity)
        for name in (
            "_counters", "_acc_total", "_sig", "_sig_total", "_threshold",
            "_phase", "_min_counter", "_last_used", "_insert_tick",
            "_valid", "_cpi_count", "_cpi_mean", "_clock", "_evictions",
            "_next_phase_id", "_phases_allocated",
        ):
            getattr(self, name)[: self.capacity] = old[name]
        self.capacity = capacity

    # -- per-slot bookkeeping -------------------------------------------------

    @property
    def phases_allocated(self) -> np.ndarray:
        """Per-slot count of real phase IDs allocated (read-only view)."""
        return self._phases_allocated

    @property
    def evictions(self) -> np.ndarray:
        """Per-slot LRU eviction counts (read-only view)."""
        return self._evictions

    def reset_slots(self, slots: np.ndarray) -> None:
        """Return the given slots to the just-constructed state."""
        self._counters[slots] = 0
        self._acc_total[slots] = 0
        self._sig[slots] = 0
        self._sig_total[slots] = 0
        self._threshold[slots] = 0.0
        self._phase[slots] = -1
        self._min_counter[slots] = 0
        self._last_used[slots] = 0
        self._insert_tick[slots] = 0
        self._valid[slots] = False
        self._cpi_count[slots] = 0
        self._cpi_mean[slots] = 0.0
        self._clock[slots] = 0
        self._evictions[slots] = 0
        self._next_phase_id[slots] = TRANSITION_PHASE_ID + 1
        self._phases_allocated[slots] = 0

    # -- ingest ---------------------------------------------------------------

    def ingest(
        self, slots: np.ndarray, pcs: np.ndarray, counts: np.ndarray
    ) -> None:
        """Scatter-add branch records into the slots' accumulators.

        ``slots`` may repeat: each record updates its own slot's hashed
        counter. Identical to per-slot
        :meth:`~repro.core.accumulator.AccumulatorTable.update_batch`
        calls — non-negative saturating adds clip the same regardless
        of sub-batching, and the float64 bincount is only used where it
        is exact.
        """
        if pcs.size == 0:
            return
        num_counters = self.config.num_counters
        indices = _hash_pc_unchecked(pcs, num_counters)
        flat = slots * np.int64(num_counters) + indices
        total = int(counts.sum())
        touched = np.unique(slots)
        if total < _EXACT_FLOAT_SUM:
            weights = counts.astype(np.float64)
            sums = np.bincount(
                flat, weights=weights,
                minlength=self.capacity * num_counters,
            ).astype(np.int64)
            per_slot = np.bincount(
                slots, weights=weights, minlength=self.capacity
            ).astype(np.int64)
        else:
            sums = np.zeros(self.capacity * num_counters, dtype=np.int64)
            np.add.at(sums, flat, counts)
            per_slot = np.zeros(self.capacity, dtype=np.int64)
            np.add.at(per_slot, slots, counts)
        gathered = sums.reshape(self.capacity, num_counters)[touched]
        self._counters[touched] = np.minimum(
            self._counters[touched] + gathered, self._counter_max
        )
        self._acc_total[touched] += per_slot[touched]

    # -- the batched boundary pipeline ---------------------------------------

    def form_signatures(self, slots: np.ndarray) -> np.ndarray:
        """Compress the slots' accumulated counters into signatures and
        clear the accumulators (scalar ``_form_signature`` semantics)."""
        counters = self._counters[slots]
        bits = self.config.bits_per_counter
        if self.config.bit_selector == "dynamic":
            average = self._acc_total[slots] // self.config.num_counters
            window_top = _bit_length(average) + 2
            shift = np.maximum(window_top - bits, 0)
        else:
            shift = np.full(
                len(slots), self.config.static_low_bit, dtype=np.int64
            )
        # Accumulator counters are 24-bit, so any shift >= 24 yields 0;
        # clamp to keep numpy's shift semantics defined.
        shift = np.minimum(shift, 63 - bits)
        selected = (counters >> shift[:, None]) & self._sig_max
        overflowed = (counters >> (shift[:, None] + bits)) > 0
        signatures = np.where(overflowed, self._sig_max, selected)
        self._counters[slots] = 0
        self._acc_total[slots] = 0
        return signatures

    def classify(
        self, slots: np.ndarray, cpis: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """One batched interval-boundary pass over unique ready slots.

        Forms each slot's signature from its accumulator, matches it
        against the slot's table (Manhattan distance, per-entry
        thresholds, the configured match policy), applies min-counter
        phase allocation and — when configured — adaptive threshold
        feedback. Returns parallel arrays: ``phase_id``, ``matched``,
        ``distance``, ``threshold_tightened``, ``new_phase_allocated``.
        """
        slots = np.asarray(slots, dtype=np.int64)
        cpis = np.broadcast_to(
            np.asarray(cpis, dtype=np.float64), slots.shape
        )
        if len(np.unique(slots)) != len(slots):
            raise PoolError("classify requires unique slots per call")
        signatures = self.form_signatures(slots)
        own_total = signatures.sum(axis=1)

        # Distance + eligibility against every (valid) table entry.
        stored = self._sig[slots]
        distances = np.abs(stored - signatures[:, None, :]).sum(axis=2)
        if self.normalizer is sum_normalizer:
            denominators = np.maximum(
                self._sig_total[slots] + own_total[:, None], 1
            ).astype(np.float64)
        else:  # max_normalizer, the only other constructor-accepted one
            denominators = np.maximum(
                2 * np.maximum(self._sig_total[slots], own_total[:, None]), 1
            ).astype(np.float64)
        relative = distances / denominators
        valid = self._valid[slots]
        eligible = valid & (relative <= self._threshold[slots])
        any_hit = eligible.any(axis=1)

        # Match selection mirrors the scalar list-order tie-breaks via
        # insertion ticks (list order == ascending insertion order).
        ticks = self._insert_tick[slots]
        if self.config.match_policy == "most_similar":
            masked = np.where(eligible, relative, np.inf)
            row_min = masked.min(axis=1)
            candidate = eligible & (masked == row_min[:, None])
            match_idx = np.argmin(
                np.where(candidate, ticks, _BIG), axis=1
            )
        else:  # "first": first eligible entry in list order
            match_idx = np.argmin(np.where(eligible, ticks, _BIG), axis=1)

        # One LRU tick per classified slot, as in scalar touch/insert.
        self._clock[slots] += 1
        tick = self._clock[slots]

        entry_idx = match_idx.copy()
        distance = np.zeros(len(slots), dtype=np.float64)

        hit = np.nonzero(any_hit)[0]
        if hit.size:
            h_slots = slots[hit]
            h_idx = match_idx[hit]
            distance[hit] = relative[hit, h_idx]
            self._min_counter[h_slots, h_idx] += 1
            self._sig[h_slots, h_idx] = signatures[hit]
            self._sig_total[h_slots, h_idx] = own_total[hit]
            self._last_used[h_slots, h_idx] = tick[hit]

        miss = np.nonzero(~any_hit)[0]
        if miss.size:
            m_slots = slots[miss]
            m_valid = self._valid[m_slots]
            full = m_valid.all(axis=1)
            first_free = np.argmax(~m_valid, axis=1)
            victim = np.argmin(
                np.where(m_valid, self._last_used[m_slots], _BIG), axis=1
            )
            ins_idx = np.where(full, victim, first_free)
            entry_idx[miss] = ins_idx
            self._evictions[m_slots] += full
            self._sig[m_slots, ins_idx] = signatures[miss]
            self._sig_total[m_slots, ins_idx] = own_total[miss]
            self._threshold[m_slots, ins_idx] = (
                self.config.similarity_threshold
            )
            self._phase[m_slots, ins_idx] = -1
            self._min_counter[m_slots, ins_idx] = 1
            self._last_used[m_slots, ins_idx] = tick[miss]
            self._insert_tick[m_slots, ins_idx] = tick[miss]
            self._valid[m_slots, ins_idx] = True
            self._cpi_count[m_slots, ins_idx] = 0
            self._cpi_mean[m_slots, ins_idx] = 0.0

        # Min-counter phase allocation (transition phase until stable).
        entry_phase = self._phase[slots, entry_idx]
        entry_min = self._min_counter[slots, entry_idx]
        allocate = (entry_phase < 0) & (
            entry_min > self.config.min_count_threshold
        )
        fresh_ids = self._next_phase_id[slots]
        if allocate.any():
            a_rows = np.nonzero(allocate)[0]
            self._phase[slots[a_rows], entry_idx[a_rows]] = fresh_ids[a_rows]
            self._next_phase_id[slots[a_rows]] += 1
            self._phases_allocated[slots[a_rows]] += 1
        entry_phase = np.where(allocate, fresh_ids, entry_phase)
        phase_id = np.where(
            entry_phase < 0, TRANSITION_PHASE_ID, entry_phase
        )

        # Adaptive classifier (§4.6): stable entries only.
        tightened = np.zeros(len(slots), dtype=bool)
        if self.config.adaptive:
            stable = phase_id != TRANSITION_PHASE_ID
            count = self._cpi_count[slots, entry_idx]
            mean = self._cpi_mean[slots, entry_idx]
            no_history = (count == 0) | (mean == 0.0)
            safe_mean = np.where(mean == 0.0, 1.0, mean)
            deviation = np.where(
                no_history, 0.0, np.abs(cpis - mean) / safe_mean
            )
            tightened = stable & (
                deviation > self.config.perf_dev_threshold
            )
            recorded = stable & ~tightened
            if tightened.any():
                t_rows = np.nonzero(tightened)[0]
                self._threshold[slots[t_rows], entry_idx[t_rows]] /= 2.0
                self._cpi_count[slots[t_rows], entry_idx[t_rows]] = 0
                self._cpi_mean[slots[t_rows], entry_idx[t_rows]] = 0.0
            if recorded.any():
                r_rows = np.nonzero(recorded)[0]
                new_count = count[r_rows] + 1
                self._cpi_count[slots[r_rows], entry_idx[r_rows]] = new_count
                self._cpi_mean[slots[r_rows], entry_idx[r_rows]] = (
                    mean[r_rows] + (cpis[r_rows] - mean[r_rows]) / new_count
                )

        return {
            "phase_id": phase_id,
            "matched": any_hit,
            "distance": distance,
            "threshold_tightened": tightened,
            "new_phase_allocated": allocate,
        }

    # -- snapshot interop -----------------------------------------------------

    def export_slot(self, slot: int) -> dict:
        """The slot's classifier state, byte-identical to
        :meth:`~repro.core.classifier.PhaseClassifier.export_state`."""
        order = np.argsort(
            np.where(self._valid[slot], self._insert_tick[slot], _BIG),
            kind="stable",
        )
        live = order[: int(self._valid[slot].sum())]
        bits = self.config.bits_per_counter
        entries = [
            {
                "values": [int(v) for v in self._sig[slot, i]],
                "bits": bits,
                "threshold": float(self._threshold[slot, i]),
                "phase_id": (
                    int(self._phase[slot, i])
                    if self._phase[slot, i] >= 0 else None
                ),
                "min_counter": int(self._min_counter[slot, i]),
                "last_used": int(self._last_used[slot, i]),
                "cpi_count": int(self._cpi_count[slot, i]),
                "cpi_mean": float(self._cpi_mean[slot, i]),
            }
            for i in (int(i) for i in live)
        ]
        return {
            "config": asdict(self.config),
            "next_phase_id": int(self._next_phase_id[slot]),
            "phases_allocated": int(self._phases_allocated[slot]),
            "accumulator": {
                "counters": [int(v) for v in self._counters[slot]],
                "total": int(self._acc_total[slot]),
            },
            "table": {
                "clock": int(self._clock[slot]),
                "evictions": int(self._evictions[slot]),
                "entries": entries,
            },
        }

    def restore_slot(self, slot: int, state: dict) -> None:
        """Load scalar classifier state into a slot.

        Snapshot list order becomes ascending insertion ticks ``0..k-1``
        — valid because the stored clock is at least the total insert
        count, so every future tick sorts after every restored entry.
        """
        exported = ClassifierConfig(**state["config"])
        if exported != self.config:
            raise ConfigurationError(
                "snapshot was exported under a different classifier "
                f"configuration: {exported} vs {self.config}"
            )
        table = state["table"]
        entries = table["entries"]
        if len(entries) > self.config.table_entries:
            raise ConfigurationError(
                f"snapshot has {len(entries)} table entries, pool table "
                f"holds {self.config.table_entries}"
            )
        counters = np.asarray(
            state["accumulator"]["counters"], dtype=np.int64
        )
        if counters.shape != (self.config.num_counters,):
            raise ConfigurationError(
                f"snapshot has {counters.size} counters, table has "
                f"{self.config.num_counters}"
            )
        if counters.min() < 0 or int(state["accumulator"]["total"]) < 0:
            raise ConfigurationError(
                "snapshot accumulator counters and total must be "
                "non-negative"
            )
        self.reset_slots(np.array([slot]))
        self._counters[slot] = counters
        self._acc_total[slot] = int(state["accumulator"]["total"])
        self._next_phase_id[slot] = int(state["next_phase_id"])
        self._phases_allocated[slot] = int(state["phases_allocated"])
        self._clock[slot] = int(table["clock"])
        self._evictions[slot] = int(table["evictions"])
        for position, record in enumerate(entries):
            values = np.asarray(record["values"], dtype=np.int64)
            if values.shape != (self.config.num_counters,):
                raise ConfigurationError(
                    "snapshot entry signature has wrong dimensions"
                )
            if int(record["bits"]) != self.config.bits_per_counter:
                raise ConfigurationError(
                    "snapshot entry bits disagree with the configuration"
                )
            self._sig[slot, position] = values
            self._sig_total[slot, position] = int(values.sum())
            self._threshold[slot, position] = float(record["threshold"])
            self._phase[slot, position] = (
                -1 if record["phase_id"] is None else int(record["phase_id"])
            )
            self._min_counter[slot, position] = int(record["min_counter"])
            self._last_used[slot, position] = int(record["last_used"])
            self._insert_tick[slot, position] = position
            self._valid[slot, position] = True
            self._cpi_count[slot, position] = int(record["cpi_count"])
            self._cpi_mean[slot, position] = float(record["cpi_mean"])


class TrackerPool:
    """N logical phase trackers behind one batched API.

    The pool owns the hot-path state in numpy arrays (see
    :class:`ClassifierPool`) plus per-slot interval bookkeeping; the
    next-phase and length predictors stay ordinary per-slot Python
    objects — they only run at interval boundaries.

    Use :meth:`acquire` for a :class:`PooledTracker` facade that drops
    into code written against :class:`~repro.core.online.PhaseTracker`,
    or drive slot handles directly through :meth:`observe_batch` /
    :meth:`complete_intervals` for the many-sessions-per-call paths.

    Parameters
    ----------
    capacity:
        Initial number of slots; grows by doubling when exhausted
        unless ``auto_grow=False`` (then allocation raises
        :class:`~repro.errors.PoolError`).
    config:
        The shared classifier configuration (finite table required).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hub. When given,
        the pool keeps slot-occupancy/capacity gauges, lifecycle
        counters (acquire/release/adopt/grow) and a boundary-round
        batch-size histogram current. All instrumentation sits on the
        slot-lifecycle and boundary paths — never per branch.
    """

    def __init__(
        self,
        capacity: int = 1024,
        config: Optional[ClassifierConfig] = None,
        *,
        auto_grow: bool = True,
        telemetry=None,
    ) -> None:
        self.classifiers = ClassifierPool(capacity, config)
        self.config = self.classifiers.config
        self.auto_grow = auto_grow
        self.telemetry = telemetry
        self._instrument(telemetry)
        capacity = self.classifiers.capacity
        self._interval_instructions = np.full(
            capacity, DEFAULT_INTERVAL_INSTRUCTIONS, dtype=np.int64
        )
        self._instructions = np.zeros(capacity, dtype=np.int64)
        self._boundary_pending = np.zeros(capacity, dtype=bool)
        self._interval_index = np.zeros(capacity, dtype=np.int64)
        self._previous_phase = np.full(capacity, -1, dtype=np.int64)
        self._branches = np.zeros(capacity, dtype=np.int64)
        self._allocated = np.zeros(capacity, dtype=bool)
        self._generation = np.zeros(capacity, dtype=np.int64)
        self._next_phase: List[Optional[CompositePhasePredictor]] = (
            [None] * capacity
        )
        self._length: List[Optional[PhaseLengthPredictor]] = (
            [None] * capacity
        )
        self._listeners: List[List[PhaseChangeListener]] = (
            [[] for _ in range(capacity)]
        )
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        if self._m_capacity is not None:
            self._m_capacity.set(capacity)

    # -- instrumentation ------------------------------------------------------

    def _instrument(self, telemetry) -> None:
        """Bind pool metrics on the hub (or None them all out)."""
        if telemetry is None:
            self._m_capacity = None
            self._m_active = None
            self._m_acquires = None
            self._m_releases = None
            self._m_adoptions = None
            self._m_grows = None
            self._m_batch = None
            return
        self._m_capacity = telemetry.gauge(
            "repro_pool_capacity", help="Total tracker pool slots."
        )
        self._m_active = telemetry.gauge(
            "repro_pool_active_slots",
            help="Tracker pool slots currently allocated.",
        )
        self._m_acquires = telemetry.counter(
            "repro_pool_acquires_total",
            help="Slots handed out by allocate()/acquire().",
        )
        self._m_releases = telemetry.counter(
            "repro_pool_releases_total",
            help="Slots returned to the free list.",
        )
        self._m_adoptions = telemetry.counter(
            "repro_pool_adoptions_total",
            help="Snapshots adopted into pool slots via try_adopt().",
        )
        self._m_grows = telemetry.counter(
            "repro_pool_grows_total",
            help="Capacity-doubling growth events.",
        )
        self._m_batch = telemetry.histogram(
            "repro_pool_boundary_batch_size",
            help="Slots classified per batched boundary round.",
            start=1.0, factor=2.0, count=16,
        )

    # -- slot lifecycle -------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.classifiers.capacity

    @property
    def active_slots(self) -> int:
        """Currently allocated slots."""
        return int(self._allocated.sum())

    def _grow(self) -> None:
        old_capacity = self.capacity
        new_capacity = old_capacity * 2
        self.classifiers.grow(new_capacity)
        for name, fill in (
            ("_interval_instructions", DEFAULT_INTERVAL_INSTRUCTIONS),
            ("_instructions", 0),
            ("_boundary_pending", False),
            ("_interval_index", 0),
            ("_previous_phase", -1),
            ("_branches", 0),
            ("_allocated", False),
            ("_generation", 0),
        ):
            old = getattr(self, name)
            grown = np.full(new_capacity, fill, dtype=old.dtype)
            grown[:old_capacity] = old
            setattr(self, name, grown)
        self._next_phase.extend([None] * old_capacity)
        self._length.extend([None] * old_capacity)
        self._listeners.extend([] for _ in range(old_capacity))
        self._free.extend(range(new_capacity - 1, old_capacity - 1, -1))
        if self._m_grows is not None:
            self._m_grows.inc()
            self._m_capacity.set(new_capacity)

    def allocate(
        self,
        interval_instructions: Optional[int] = None,
        change_predictor: "RLEChangePredictor | None | str" = "default",
    ) -> int:
        """Claim a fresh slot; returns its handle.

        Raises :class:`~repro.errors.PoolError` when the pool is full
        and growth is disabled.
        """
        interval = interval_instructions or DEFAULT_INTERVAL_INSTRUCTIONS
        if interval <= 0:
            raise PredictionError(
                "interval_instructions must be positive, got "
                f"{interval_instructions}"
            )
        if not self._free:
            if not self.auto_grow:
                raise PoolError(
                    f"pool is full ({self.capacity} slots) and growth "
                    "is disabled"
                )
            self._grow()
        slot = self._free.pop()
        if change_predictor == "default":
            change_predictor = RLEChangePredictor(2)
        self._next_phase[slot] = CompositePhasePredictor(change_predictor)
        self._length[slot] = PhaseLengthPredictor()
        self._listeners[slot] = []
        self._interval_instructions[slot] = interval
        self._instructions[slot] = 0
        self._boundary_pending[slot] = False
        self._interval_index[slot] = 0
        self._previous_phase[slot] = -1
        self._branches[slot] = 0
        self.classifiers.reset_slots(np.array([slot]))
        self._allocated[slot] = True
        if self._m_acquires is not None:
            self._m_acquires.inc()
            self._m_active.set(self.active_slots)
        return slot

    def acquire(
        self,
        interval_instructions: Optional[int] = None,
        change_predictor: "RLEChangePredictor | None | str" = "default",
    ) -> "PooledTracker":
        """Allocate a slot wrapped in a :class:`PooledTracker` facade."""
        slot = self.allocate(interval_instructions, change_predictor)
        return PooledTracker(self, slot)

    def release(self, slot: int) -> None:
        """Return a slot to the free list; its handle becomes stale."""
        self._check_slot(slot)
        self._allocated[slot] = False
        self._generation[slot] += 1
        self._next_phase[slot] = None
        self._length[slot] = None
        self._listeners[slot] = []
        self._free.append(slot)
        if self._m_releases is not None:
            self._m_releases.inc()
            self._m_active.set(self.active_slots)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.capacity or not self._allocated[slot]:
            raise PoolError(f"slot {slot} is not allocated")

    def _check_slots(self, slots: np.ndarray) -> None:
        if slots.size == 0:
            return
        if slots.min() < 0 or slots.max() >= self.capacity:
            raise PoolError("slot handle out of range")
        if not self._allocated[slots].all():
            bad = slots[~self._allocated[slots]]
            raise PoolError(f"slot {int(bad[0])} is not allocated")

    def compatible(self, config: ClassifierConfig) -> bool:
        """Whether sessions with ``config`` can live in this pool."""
        return config == self.config

    # -- streaming ------------------------------------------------------------

    def observe_branch(self, slot: int, pc: int, instructions: int) -> bool:
        """Scalar-granularity ingest for one slot (facade support)."""
        self._check_slot(slot)
        if self._boundary_pending[slot]:
            raise PredictionError(
                "interval boundary reached; call complete_interval(cpi) "
                "before observing more branches"
            )
        if instructions < 0:
            raise ValueError(
                f"instructions must be non-negative, got {instructions}"
            )
        index = int(_hash_pc_unchecked(
            np.array([pc]), self.config.num_counters
        )[0])
        counters = self.classifiers._counters
        counters[slot, index] = min(
            int(counters[slot, index]) + instructions,
            self.classifiers._counter_max,
        )
        self.classifiers._acc_total[slot] += instructions
        self._instructions[slot] += instructions
        self._branches[slot] += 1
        if self._instructions[slot] >= self._interval_instructions[slot]:
            self._boundary_pending[slot] = True
        return bool(self._boundary_pending[slot])

    def observe_batch(
        self,
        slots,
        pcs,
        counts,
        cpi: float = 1.0,
    ) -> List[Tuple[int, TrackerReport]]:
        """Ingest branch records for many sessions in one call.

        ``slots``/``pcs``/``counts`` are parallel arrays; each record
        belongs to the slot named beside it and slots may interleave
        freely. Every interval boundary any slot crosses is closed with
        a batched classification pass; ``cpi`` is attributed to every
        completed interval. Returns ``(slot, report)`` pairs ordered by
        the position of each interval's crossing record in the input —
        the order a record-by-record scalar replay would produce.
        Behaviourally identical to per-slot
        :meth:`~repro.core.online.PhaseTracker.observe_batch` calls.
        """
        slots = np.asarray(slots, dtype=np.int64)
        pcs = np.asarray(pcs, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if not (slots.shape == pcs.shape == counts.shape) or slots.ndim != 1:
            raise PredictionError(
                "slots, pcs and counts must be parallel 1-D arrays: "
                f"{slots.shape} vs {pcs.shape} vs {counts.shape}"
            )
        self._check_slots(slots)
        if np.any(self._boundary_pending[slots]):
            raise PredictionError(
                "interval boundary reached; call complete_interval(cpi) "
                "before observing more branches"
            )
        if slots.size == 0:
            return []
        if np.any(counts < 0):
            raise ValueError("instruction counts must be non-negative")
        cpis = np.full(slots.size, cpi, dtype=np.float64)
        return [
            (slot, report)
            for _, slot, report in self._observe_records(
                slots, pcs, counts, cpis
            )
        ]

    def observe_fanin(
        self,
        segments: Sequence[Tuple[int, Sequence[int], Sequence[int], float]],
    ) -> List[List[TrackerReport]]:
        """Ingest per-session record slices in one fused pass.

        ``segments`` is a sequence of ``(slot, pcs, counts, cpi)``
        slices — one per caller request. All slices are concatenated
        and driven through the same segmented boundary machinery as
        :meth:`observe_batch`; each completed interval is attributed
        the ``cpi`` of the segment whose record crossed the boundary,
        exactly as per-segment scalar ``observe_batch(..., cpi=...)``
        calls would. Returns one report list per segment, in the order
        each segment's boundaries were crossed — byte-identical to
        running the segments one at a time in order.

        This is the batch API for callers that hold many sessions'
        record slices at once (offline replay, bulk ingest): one pool
        pass, with the reports fanned back per slice.
        """
        if not segments:
            return []
        slot_parts: List[np.ndarray] = []
        pc_parts: List[np.ndarray] = []
        count_parts: List[np.ndarray] = []
        cpi_parts: List[np.ndarray] = []
        offsets = np.zeros(len(segments), dtype=np.int64)
        total = 0
        for index, (slot, pcs, counts, cpi) in enumerate(segments):
            pcs = np.asarray(pcs, dtype=np.int64)
            counts = np.asarray(counts, dtype=np.int64)
            if pcs.shape != counts.shape or pcs.ndim != 1:
                raise PredictionError(
                    "segment pcs and counts must be parallel 1-D arrays: "
                    f"{pcs.shape} vs {counts.shape}"
                )
            offsets[index] = total
            total += pcs.size
            if pcs.size == 0:
                continue
            slot_parts.append(
                np.full(pcs.size, np.int64(slot), dtype=np.int64)
            )
            pc_parts.append(pcs)
            count_parts.append(counts)
            cpi_parts.append(np.full(pcs.size, cpi, dtype=np.float64))
        reports: List[List[TrackerReport]] = [[] for _ in segments]
        if total == 0:
            return reports
        slots = np.concatenate(slot_parts)
        pcs_all = np.concatenate(pc_parts)
        counts_all = np.concatenate(count_parts)
        cpis_all = np.concatenate(cpi_parts)
        self._check_slots(slots)
        if np.any(self._boundary_pending[slots]):
            raise PredictionError(
                "interval boundary reached; call complete_interval(cpi) "
                "before observing more branches"
            )
        if np.any(counts_all < 0):
            raise ValueError("instruction counts must be non-negative")
        for position, _, report in self._observe_records(
            slots, pcs_all, counts_all, cpis_all
        ):
            # The owning segment is the last one starting at or before
            # the crossing record (empty segments share offsets but can
            # never own a record).
            segment = int(
                np.searchsorted(offsets, position, side="right")
            ) - 1
            reports[segment].append(report)
        return reports

    def _observe_records(
        self,
        slots: np.ndarray,
        pcs: np.ndarray,
        counts: np.ndarray,
        cpis: np.ndarray,
    ) -> List[Tuple[int, int, TrackerReport]]:
        """The segmented multi-session ingest rounds shared by
        :meth:`observe_batch` and :meth:`observe_fanin`.

        ``cpis`` is per-record; a completed interval is attributed the
        CPI of the record that crossed the boundary. Returns
        ``(position, slot, report)`` boundary events ordered by the
        crossing record's position in the input arrays.
        """
        # Stable sort groups records per slot while preserving each
        # slot's record order (and lets every round reduce per group).
        order = np.argsort(slots, kind="stable")
        s_slots = slots[order]
        s_pcs = pcs[order]
        s_counts = counts[order]
        s_cpis = cpis[order]
        total_records = s_slots.size
        uniq, starts = np.unique(s_slots, return_index=True)
        ends = np.append(starts[1:], total_records)
        group_count = uniq.size
        group_of = np.repeat(np.arange(group_count), ends - starts)
        prefix = np.cumsum(s_counts)
        base = np.where(starts > 0, prefix[np.maximum(starts - 1, 0)], 0)
        wcum = prefix - np.repeat(base, ends - starts)
        record_idx = np.arange(total_records, dtype=np.int64)

        cursor = starts.copy()
        consumed = np.zeros(group_count, dtype=np.int64)
        boundary_events: List[Tuple[int, int, TrackerReport]] = []
        active = cursor < ends
        classifier = self.classifiers

        while active.any():
            act = np.nonzero(active)[0]
            act_slots = uniq[act]
            needed = (
                self._interval_instructions[act_slots]
                - self._instructions[act_slots]
            )
            target = np.full(group_count, _BIG, dtype=np.int64)
            target[act] = consumed[act] + needed
            ok = wcum >= target[group_of]
            # Segments span from one active cursor to the next; records
            # outside a group's unconsumed tail can never be "ok":
            # consumed records have wcum <= consumed < target, and
            # inactive groups carry the _BIG target.
            mins = np.minimum.reduceat(
                np.where(ok, record_idx, _BIG), cursor[act]
            )
            has_boundary = mins < ends[act]
            take_end = np.where(has_boundary, mins, ends[act] - 1)

            # Consume [cursor, take_end] per active group via one mask.
            delta = np.zeros(total_records + 1, dtype=np.int64)
            np.add.at(delta, cursor[act], 1)
            np.add.at(delta, take_end + 1, -1)
            taken = np.cumsum(delta[:total_records]) > 0
            classifier.ingest(s_slots[taken], s_pcs[taken], s_counts[taken])

            segment_totals = wcum[take_end] - consumed[act]
            self._instructions[act_slots] += segment_totals
            self._branches[act_slots] += take_end - cursor[act] + 1
            # ClassifierPool.ingest already advanced the accumulator
            # totals for the taken records.

            crossing = np.nonzero(has_boundary)[0]
            if crossing.size:
                b_groups = act[crossing]
                b_slots = uniq[b_groups]
                self._boundary_pending[b_slots] = True
                reports = self._complete(
                    b_slots, s_cpis[take_end[crossing]]
                )
                crossing_records = order[take_end[crossing]]
                for position, slot, report in zip(
                    crossing_records, b_slots, reports
                ):
                    boundary_events.append(
                        (int(position), int(slot), report)
                    )
                consumed[b_groups] = wcum[take_end[crossing]]
                cursor[b_groups] = take_end[crossing] + 1
            finished = act[np.nonzero(~has_boundary)[0]]
            cursor[finished] = ends[finished]
            active = cursor < ends

        boundary_events.sort(key=lambda event: event[0])
        return boundary_events

    def complete_interval(self, slot: int, cpi: float) -> TrackerReport:
        """Close one slot's current interval (facade support)."""
        self._check_slot(slot)
        if (
            not self._boundary_pending[slot]
            and self._instructions[slot] == 0
        ):
            raise PredictionError("no interval content to complete")
        return self._complete(
            np.array([slot], dtype=np.int64),
            np.array([cpi], dtype=np.float64),
        )[0]

    def _complete(
        self, slots: np.ndarray, cpis: np.ndarray
    ) -> List[TrackerReport]:
        """Classify the slots' pending intervals in one batched pass and
        run the per-slot (boundary-rate) predictor updates."""
        if self._m_batch is not None:
            self._m_batch.observe(len(slots))
        verdict = self.classifiers.classify(slots, cpis)
        reports: List[TrackerReport] = []
        for row, slot in enumerate(int(s) for s in slots):
            phase_id = int(verdict["phase_id"][row])
            next_phase = self._next_phase[slot]
            length = self._length[slot]
            next_phase.step(phase_id)
            length.advance(phase_id)
            # As in the scalar tracker: ``step`` made the next prediction.
            prediction = next_phase.pending_prediction

            self._instructions[slot] = 0
            self._branches[slot] = 0
            self._boundary_pending[slot] = False

            previous = int(self._previous_phase[slot])
            phase_changed = previous >= 0 and phase_id != previous
            report = TrackerReport(
                interval_index=int(self._interval_index[slot]),
                phase_id=phase_id,
                is_transition=phase_id == TRANSITION_PHASE_ID,
                phase_changed=phase_changed,
                new_phase_allocated=bool(
                    verdict["new_phase_allocated"][row]
                ),
                predicted_next_phase=(
                    prediction.phase_id if prediction is not None else None
                ),
                prediction_confident=(
                    prediction.confident if prediction is not None else False
                ),
                predicted_length_class=length.outstanding_prediction,
            )
            self._interval_index[slot] += 1
            self._previous_phase[slot] = phase_id
            if phase_changed:
                self._notify(slot, report)
            reports.append(report)
        return reports

    def _notify(self, slot: int, report: TrackerReport) -> None:
        for listener in self._listeners[slot]:
            try:
                listener(report)
            except Exception:  # noqa: BLE001 - isolation boundary
                import logging

                logging.getLogger(__name__).exception(
                    "phase-change listener %r raised at interval %d; "
                    "continuing",
                    listener,
                    report.interval_index,
                )

    # -- per-slot lifecycle ---------------------------------------------------

    def reset_slot(self, slot: int) -> None:
        """Scalar ``PhaseTracker.reset`` semantics for one slot."""
        self._check_slot(slot)
        self.classifiers.reset_slots(np.array([slot]))
        self._next_phase[slot].reset()
        self._length[slot].reset()
        self._instructions[slot] = 0
        self._boundary_pending[slot] = False
        self._interval_index[slot] = 0
        self._previous_phase[slot] = -1
        self._branches[slot] = 0
        self._listeners[slot] = []

    # -- snapshot interop -----------------------------------------------------

    def export_slot(self, slot: int) -> dict:
        """The slot's full tracker state — byte-identical to the scalar
        :meth:`~repro.core.online.PhaseTracker.export_state`."""
        self._check_slot(slot)
        next_phase = self._next_phase[slot]
        change = next_phase.change_predictor
        previous = self._previous_phase[slot]
        return {
            "interval_instructions": int(self._interval_instructions[slot]),
            "instructions": int(self._instructions[slot]),
            "boundary_pending": bool(self._boundary_pending[slot]),
            "interval_index": int(self._interval_index[slot]),
            "previous_phase": int(previous) if previous >= 0 else None,
            "branches_in_interval": int(self._branches[slot]),
            "classifier": self.classifiers.export_slot(slot),
            "change_predictor": (
                {"kind": change.snapshot_kind,
                 "kwargs": change.snapshot_kwargs()}
                if change is not None else None
            ),
            "next_phase": next_phase.export_state(),
            "length_predictor": self._length[slot].export_state(),
        }

    def restore_slot(self, slot: int, state: dict) -> None:
        """Load scalar tracker state into an allocated slot.

        The slot's predictors are rebuilt from the snapshot's
        ``change_predictor`` spec, exactly as
        :func:`repro.service.snapshot.restore_tracker` does for scalar
        trackers.
        """
        self._check_slot(slot)
        self.classifiers.restore_slot(slot, state["classifier"])
        change = change_predictor_from_spec(state.get("change_predictor"))
        next_phase = CompositePhasePredictor(change)
        next_phase.restore_state(state["next_phase"])
        length = PhaseLengthPredictor()
        length.restore_state(state["length_predictor"])
        self._next_phase[slot] = next_phase
        self._length[slot] = length
        self._interval_instructions[slot] = int(
            state["interval_instructions"]
        )
        self._instructions[slot] = int(state["instructions"])
        self._boundary_pending[slot] = bool(state["boundary_pending"])
        self._interval_index[slot] = int(state["interval_index"])
        previous = state["previous_phase"]
        self._previous_phase[slot] = -1 if previous is None else int(previous)
        self._branches[slot] = int(state["branches_in_interval"])

    def try_adopt(self, state: dict) -> "Optional[PooledTracker]":
        """Restore exported tracker state into a fresh slot, if this
        pool can host it.

        Returns ``None`` — a soft signal to fall back to a scalar
        tracker — when the snapshot's configuration does not match the
        pool's. Genuinely malformed state raises, with the slot
        released first.
        """
        try:
            exported = ClassifierConfig(**state["classifier"]["config"])
        except (KeyError, TypeError, ConfigurationError):
            return None
        if exported != self.config:
            return None
        slot = self.allocate(
            interval_instructions=int(state["interval_instructions"]),
            change_predictor=None,
        )
        try:
            self.restore_slot(slot, state)
        except Exception:
            self.release(slot)
            raise
        if self._m_adoptions is not None:
            self._m_adoptions.inc()
        return PooledTracker(self, slot)

    # -- inspection -----------------------------------------------------------

    def add_phase_change_listener(
        self, slot: int, listener: PhaseChangeListener
    ) -> None:
        self._check_slot(slot)
        self._listeners[slot].append(listener)

    def intervals_observed(self, slot: int) -> int:
        self._check_slot(slot)
        return int(self._interval_index[slot])

    def current_phase(self, slot: int) -> Optional[int]:
        self._check_slot(slot)
        previous = self._previous_phase[slot]
        return int(previous) if previous >= 0 else None


class PooledTracker:
    """A pool slot wearing the scalar :class:`PhaseTracker` interface.

    Holds the pool and a slot handle; every method checks the handle is
    still current (a released slot's facade raises
    :class:`~repro.errors.PoolError` instead of silently reading
    recycled state). Code written against the scalar tracker —
    :func:`~repro.service.snapshot.snapshot_tracker` included — runs
    unchanged.
    """

    __slots__ = ("pool", "slot", "_generation", "_final")

    def __init__(self, pool: TrackerPool, slot: int) -> None:
        self.pool = pool
        self.slot = slot
        self._generation = int(pool._generation[slot])
        self._final: Optional[dict] = None

    def _check(self) -> None:
        if (
            not self.pool._allocated[self.slot]
            or int(self.pool._generation[self.slot]) != self._generation
        ):
            raise PoolError(
                f"slot {self.slot} was released; this handle is stale"
            )

    def release(self) -> None:
        """Return the slot to the pool; the facade becomes unusable.

        Read-only summary stats (``intervals_observed``,
        ``current_phase``) keep answering with their final values,
        as a scalar tracker object stays readable after its last use.
        """
        self._check()
        self._final = {
            "intervals_observed": self.pool.intervals_observed(self.slot),
            "current_phase": self.pool.current_phase(self.slot),
        }
        self.pool.release(self.slot)

    # -- the PhaseTracker interface -------------------------------------------

    def observe_branch(self, pc: int, instructions: int) -> bool:
        self._check()
        return self.pool.observe_branch(self.slot, pc, instructions)

    def observe_batch(
        self, pcs, counts, cpi: float = 1.0
    ) -> List[TrackerReport]:
        self._check()
        pcs = np.asarray(pcs, dtype=np.int64)
        slots = np.full(pcs.shape, self.slot, dtype=np.int64)
        return [
            report
            for _, report in self.pool.observe_batch(
                slots, pcs, counts, cpi=cpi
            )
        ]

    def complete_interval(self, cpi: float) -> TrackerReport:
        self._check()
        return self.pool.complete_interval(self.slot, cpi)

    def add_phase_change_listener(
        self, listener: PhaseChangeListener
    ) -> None:
        self._check()
        self.pool.add_phase_change_listener(self.slot, listener)

    def reset(self) -> None:
        self._check()
        self.pool.reset_slot(self.slot)

    def export_state(self) -> dict:
        self._check()
        return self.pool.export_slot(self.slot)

    def restore_state(self, state: dict) -> None:
        self._check()
        self.pool.restore_slot(self.slot, state)

    # -- properties mirroring PhaseTracker ------------------------------------

    @property
    def interval_instructions(self) -> int:
        self._check()
        return int(self.pool._interval_instructions[self.slot])

    @interval_instructions.setter
    def interval_instructions(self, value: int) -> None:
        self._check()
        if value <= 0:
            raise PredictionError(
                f"interval_instructions must be positive, got {value}"
            )
        self.pool._interval_instructions[self.slot] = value

    @property
    def intervals_observed(self) -> int:
        if self._final is not None:
            return self._final["intervals_observed"]
        self._check()
        return self.pool.intervals_observed(self.slot)

    @property
    def current_phase(self) -> Optional[int]:
        if self._final is not None:
            return self._final["current_phase"]
        self._check()
        return self.pool.current_phase(self.slot)

    @property
    def instructions_into_interval(self) -> int:
        self._check()
        return int(self.pool._instructions[self.slot])

    @property
    def next_phase(self) -> CompositePhasePredictor:
        self._check()
        return self.pool._next_phase[self.slot]

    @property
    def length_predictor(self) -> PhaseLengthPredictor:
        self._check()
        return self.pool._length[self.slot]

    @property
    def config(self) -> ClassifierConfig:
        return self.pool.config

    @property
    def telemetry(self):
        """Pooled trackers do not carry per-slot telemetry."""
        return None
