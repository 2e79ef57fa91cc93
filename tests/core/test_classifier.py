"""Unit tests for the online phase classifier.

Synthetic intervals are built from explicit PC populations so each
mechanism (matching, min counters, transition phase, eviction, adaptive
thresholds) can be exercised deterministically.
"""

import numpy as np
import pytest

from repro.core import (
    ClassifierConfig,
    PhaseClassifier,
    TRANSITION_PHASE_ID,
)
from repro.workloads.trace import Interval, IntervalTrace


def interval_for(pcs, weights, cpi=1.0, instructions=1_000_000):
    """Build an interval whose signature is determined by (pcs, weights)."""
    weights = np.asarray(weights, dtype=np.float64)
    counts = np.floor(
        weights / weights.sum() * instructions
    ).astype(np.int64)
    counts[0] += instructions - counts.sum()
    return Interval(
        branch_pcs=np.asarray(pcs, dtype=np.int64),
        instr_counts=counts,
        cpi=cpi,
    )


# Two disjoint code populations (distinct phases).
PCS_A = np.arange(0x1000, 0x1000 + 12 * 4, 4)
PCS_B = np.arange(0x9000, 0x9000 + 12 * 4, 4)
WEIGHTS = np.linspace(1.0, 3.0, 12)


def interval_a(cpi=1.0, jitter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    w = WEIGHTS * (1 + jitter * rng.standard_normal(12)).clip(0.2)
    return interval_for(PCS_A, w, cpi=cpi)


def interval_b(cpi=2.0):
    return interval_for(PCS_B, WEIGHTS, cpi=cpi)


def config(**kwargs):
    defaults = dict(
        num_counters=16,
        table_entries=32,
        similarity_threshold=0.25,
        min_count_threshold=0,
    )
    defaults.update(kwargs)
    return ClassifierConfig(**defaults)


class TestBasicClassification:
    def test_first_interval_gets_new_phase(self):
        classifier = PhaseClassifier(config())
        result = classifier.classify_interval(interval_a())
        assert result.phase_id == 1
        assert not result.matched
        assert result.new_phase_allocated

    def test_repeated_interval_same_phase(self):
        classifier = PhaseClassifier(config())
        first = classifier.classify_interval(interval_a(seed=1, jitter=0.05))
        second = classifier.classify_interval(interval_a(seed=2, jitter=0.05))
        assert second.matched
        assert second.phase_id == first.phase_id

    def test_different_code_different_phase(self):
        classifier = PhaseClassifier(config())
        a = classifier.classify_interval(interval_a())
        b = classifier.classify_interval(interval_b())
        assert b.phase_id != a.phase_id
        assert not b.matched

    def test_phase_ids_start_after_transition_id(self):
        classifier = PhaseClassifier(config())
        result = classifier.classify_interval(interval_a())
        assert result.phase_id > TRANSITION_PHASE_ID

    def test_num_phases_counts_allocations(self):
        classifier = PhaseClassifier(config())
        classifier.classify_interval(interval_a())
        classifier.classify_interval(interval_b())
        classifier.classify_interval(interval_a(seed=3, jitter=0.02))
        assert classifier.num_phases == 2


class TestTransitionPhase:
    def test_min_count_gates_phase_allocation(self):
        classifier = PhaseClassifier(config(min_count_threshold=3))
        results = [
            classifier.classify_interval(interval_a(seed=s, jitter=0.02))
            for s in range(5)
        ]
        # First 3 classifications go to the transition phase.
        assert [r.phase_id for r in results[:3]] == [0, 0, 0]
        # The 4th crosses the threshold (counter 4 > 3).
        assert results[3].phase_id == 1
        assert results[3].new_phase_allocated
        assert results[4].phase_id == 1

    def test_zero_min_count_allocates_immediately(self):
        classifier = PhaseClassifier(config(min_count_threshold=0))
        assert classifier.classify_interval(interval_a()).phase_id == 1

    def test_rare_behaviour_stays_in_transition(self):
        classifier = PhaseClassifier(config(min_count_threshold=8))
        result = classifier.classify_interval(interval_b())
        assert result.is_transition
        assert classifier.num_phases == 0

    def test_min_counter_survives_interleaving(self):
        classifier = PhaseClassifier(config(min_count_threshold=2))
        classifier.classify_interval(interval_a(seed=1, jitter=0.02))
        classifier.classify_interval(interval_b())
        classifier.classify_interval(interval_a(seed=2, jitter=0.02))
        result = classifier.classify_interval(
            interval_a(seed=3, jitter=0.02)
        )
        assert result.phase_id != TRANSITION_PHASE_ID


class TestEviction:
    def test_eviction_loses_phase_and_reallocates(self):
        classifier = PhaseClassifier(config(table_entries=1))
        first = classifier.classify_interval(interval_a())
        classifier.classify_interval(interval_b())      # evicts A
        again = classifier.classify_interval(interval_a())
        assert not again.matched                         # entry was lost
        assert again.phase_id != first.phase_id          # fresh phase ID
        assert classifier.table.evictions == 2

    def test_infinite_table_never_evicts(self):
        classifier = PhaseClassifier(config(table_entries=None))
        rng = np.random.default_rng(0)
        for shift in range(50):
            pcs = PCS_A + shift * 0x100000
            weights = rng.dirichlet(np.full(12, 0.4)) + 1e-9
            classifier.classify_interval(interval_for(pcs, weights))
        assert classifier.table.evictions == 0
        # Nearly every distinct code population gets its own entry (a
        # couple may alias through the 16-bucket hash).
        assert len(classifier.table) >= 45


class TestMatchPolicy:
    def test_most_similar_beats_first(self):
        """Two entries with disjoint code, a probe mixing both but
        leaning to the second: under our normalization the probe sits
        at distance 0.55 from entry one and 0.45 from entry two, so at
        threshold 0.6 both are eligible. 'first' picks table order
        (entry one); 'most_similar' picks entry two."""
        weights_one = np.where(np.arange(12) < 6, 1.0, 0.0) + 1e-9
        weights_two = np.where(np.arange(12) >= 6, 1.0, 0.0) + 1e-9
        probe_weights = 0.45 * weights_one + 0.55 * weights_two

        def run(policy):
            classifier = PhaseClassifier(
                config(similarity_threshold=0.6, match_policy=policy)
            )
            one = classifier.classify_interval(
                interval_for(PCS_A, weights_one)
            )
            two = classifier.classify_interval(
                interval_for(PCS_A, weights_two)
            )
            probe = classifier.classify_interval(
                interval_for(PCS_A, probe_weights)
            )
            return one.phase_id, two.phase_id, probe.phase_id

        one_id, two_id, probe_first = run("first")
        assert one_id != two_id  # mutual distance ~1.0 > 0.6
        assert probe_first == one_id
        _, two_id_ms, probe_similar = run("most_similar")
        assert probe_similar == two_id_ms


class TestSignatureReplacement:
    def test_matched_entry_tracks_drift(self):
        # Slow drift: each interval within threshold of the previous,
        # but far from the first. Replacement-on-match keeps matching.
        classifier = PhaseClassifier(config(similarity_threshold=0.25))
        ids = set()
        for step in range(10):
            drift = np.linspace(1.0, 1.0 + 0.15 * step, 12)
            result = classifier.classify_interval(
                interval_for(PCS_A, WEIGHTS * drift)
            )
            ids.add(result.phase_id)
        assert len(ids) == 1  # one phase despite large total drift


class TestAdaptiveThresholds:
    def test_large_cpi_deviation_halves_threshold(self):
        classifier = PhaseClassifier(
            config(perf_dev_threshold=0.25, min_count_threshold=0)
        )
        classifier.classify_interval(interval_a(cpi=1.0, seed=1,
                                                jitter=0.02))
        classifier.classify_interval(interval_a(cpi=1.0, seed=2,
                                                jitter=0.02))
        result = classifier.classify_interval(
            interval_a(cpi=2.0, seed=3, jitter=0.02)
        )
        assert result.threshold_tightened
        table = classifier.table
        assert table.thresholds[0] == pytest.approx(0.125)
        assert table.cpi_counts[0] == 0  # stats cleared

    def test_small_deviation_updates_average(self):
        classifier = PhaseClassifier(
            config(perf_dev_threshold=0.25, min_count_threshold=0)
        )
        classifier.classify_interval(interval_a(cpi=1.0, seed=1,
                                                jitter=0.02))
        result = classifier.classify_interval(
            interval_a(cpi=1.1, seed=2, jitter=0.02)
        )
        assert not result.threshold_tightened
        assert classifier.table.cpi_counts[0] == 2

    def test_transition_intervals_skip_feedback(self):
        classifier = PhaseClassifier(
            config(perf_dev_threshold=0.25, min_count_threshold=5)
        )
        for s, cpi in enumerate((1.0, 9.0, 1.0)):
            result = classifier.classify_interval(
                interval_a(cpi=cpi, seed=s, jitter=0.02)
            )
            assert result.is_transition
            assert not result.threshold_tightened

    def test_adaptive_disabled_never_tightens(self):
        classifier = PhaseClassifier(config(perf_dev_threshold=None))
        classifier.classify_interval(interval_a(cpi=1.0, seed=1))
        result = classifier.classify_interval(
            interval_a(cpi=50.0, seed=2, jitter=0.02)
        )
        assert not result.threshold_tightened

    def test_notify_reconfiguration_flushes_cpi(self):
        classifier = PhaseClassifier(config(perf_dev_threshold=0.25))
        classifier.classify_interval(interval_a(cpi=1.0))
        classifier.notify_reconfiguration()
        assert classifier.table.cpi_counts == [0] * len(classifier.table)

    def test_tightened_threshold_splits_phase(self):
        # After tightening, a moderately different signature no longer
        # matches and becomes a new phase: the splitting mechanism.
        classifier = PhaseClassifier(
            config(perf_dev_threshold=0.2, min_count_threshold=0,
                   similarity_threshold=0.25)
        )
        base = WEIGHTS
        variant = WEIGHTS * np.where(np.arange(12) % 2 == 0, 1.45, 0.6)
        classifier.classify_interval(interval_for(PCS_A, base, cpi=1.0))
        classifier.classify_interval(interval_for(PCS_A, base, cpi=1.0))
        # Same phase (base-variant distance ~0.22 < 25%), deviant CPI
        # -> tighten; the match also replaces the stored signature with
        # the variant's.
        mid = classifier.classify_interval(
            interval_for(PCS_A, variant, cpi=2.0)
        )
        assert mid.matched
        assert mid.threshold_tightened
        # Returning to the base behaviour no longer matches the entry
        # (distance ~0.22 > tightened 12.5%): the phase splits.
        after = classifier.classify_interval(
            interval_for(PCS_A, base, cpi=1.0)
        )
        assert not after.matched
        assert after.phase_id != mid.phase_id


class TestTraceDriver:
    def test_classify_trace_covers_all_intervals(self):
        intervals = [interval_a(seed=s, jitter=0.02) for s in range(5)]
        intervals.append(interval_b())
        trace = IntervalTrace("t", intervals)
        run = PhaseClassifier(config()).classify_trace(trace)
        assert len(run) == 6
        assert run.num_phases == 2

    def test_static_bit_selector_config_used(self):
        classifier = PhaseClassifier(
            config(bit_selector="static", bits_per_counter=8,
                   static_low_bit=14)
        )
        from repro.core.bitselect import StaticBitSelector

        assert isinstance(classifier.bit_selector, StaticBitSelector)
        assert classifier.bit_selector.low_bit == 14

    def test_signature_dimensions_match_config(self):
        classifier = PhaseClassifier(config(num_counters=32))
        signature = classifier.signature_for(interval_a())
        assert signature.dimensions == 32
