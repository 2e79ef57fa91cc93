"""Edge-case and interaction tests for the classifier.

Complements ``test_classifier.py`` with cross-mechanism interactions:
adaptive thresholds with the transition phase, repeated tightening,
eviction during warm-up, and reconfiguration notifications mid-run.
"""

import numpy as np
import pytest

from repro.core import ClassifierConfig, PhaseClassifier, TRANSITION_PHASE_ID
from repro.workloads.trace import Interval

PCS_A = np.arange(0x1000, 0x1000 + 12 * 4, 4)
PCS_B = np.arange(0x9000, 0x9000 + 12 * 4, 4)
PCS_C = np.arange(0x5000, 0x5000 + 12 * 4, 4)
WEIGHTS = np.linspace(1.0, 3.0, 12)


def interval_for(pcs, weights=WEIGHTS, cpi=1.0, seed=None, jitter=0.0):
    weights = np.asarray(weights, dtype=np.float64)
    if seed is not None and jitter:
        rng = np.random.default_rng(seed)
        weights = weights * (1 + jitter * rng.standard_normal(12)).clip(0.2)
    counts = np.floor(weights / weights.sum() * 1_000_000).astype(np.int64)
    counts[0] += 1_000_000 - counts.sum()
    return Interval(np.asarray(pcs, dtype=np.int64), counts, cpi=cpi)


def config(**kwargs):
    defaults = dict(num_counters=16, table_entries=32,
                    similarity_threshold=0.25, min_count_threshold=0)
    defaults.update(kwargs)
    return ClassifierConfig(**defaults)


class TestAdaptiveTransitionInteraction:
    def test_cpi_stats_not_collected_during_warmup(self):
        """Transition-phase intervals never feed the adaptive loop, so
        wild CPI during warm-up cannot poison the phase average."""
        classifier = PhaseClassifier(
            config(min_count_threshold=3, perf_dev_threshold=0.25)
        )
        for seed, cpi in enumerate((1.0, 99.0, 0.01)):
            classifier.classify_interval(
                interval_for(PCS_A, cpi=cpi, seed=seed, jitter=0.02)
            )
        table = classifier.table
        assert table.cpi_counts[0] == 0  # still in transition

        # First stable interval seeds the average cleanly.
        result = classifier.classify_interval(
            interval_for(PCS_A, cpi=2.0, seed=9, jitter=0.02)
        )
        assert not result.is_transition
        assert not result.threshold_tightened
        assert table.cpi_means[0] == pytest.approx(2.0)

    def test_repeated_tightening_halves_each_time(self):
        classifier = PhaseClassifier(
            config(perf_dev_threshold=0.1)
        )
        cpis = [1.0, 1.0, 2.0, 2.0, 4.0]
        for seed, cpi in enumerate(cpis):
            classifier.classify_interval(
                interval_for(PCS_A, cpi=cpi, seed=seed, jitter=0.01)
            )
        # Two tightenings: 0.25 -> 0.125 -> 0.0625.
        assert classifier.table.thresholds[0] == pytest.approx(0.0625)

    def test_notify_reconfiguration_prevents_false_tightening(self):
        classifier = PhaseClassifier(config(perf_dev_threshold=0.25))
        classifier.classify_interval(
            interval_for(PCS_A, cpi=1.0, seed=1, jitter=0.02)
        )
        classifier.classify_interval(
            interval_for(PCS_A, cpi=1.0, seed=2, jitter=0.02)
        )
        # A hardware reconfiguration changes CPI globally; without the
        # flush this would look like a 100% deviation.
        classifier.notify_reconfiguration()
        result = classifier.classify_interval(
            interval_for(PCS_A, cpi=2.0, seed=3, jitter=0.02)
        )
        assert not result.threshold_tightened


class TestEvictionInteractions:
    def test_warmup_progress_lost_on_eviction(self):
        classifier = PhaseClassifier(
            config(table_entries=1, min_count_threshold=2)
        )
        classifier.classify_interval(interval_for(PCS_A, seed=1,
                                                  jitter=0.02))
        classifier.classify_interval(interval_for(PCS_A, seed=2,
                                                  jitter=0.02))
        # One more A would become stable, but B evicts the entry first.
        classifier.classify_interval(interval_for(PCS_B))
        result = classifier.classify_interval(
            interval_for(PCS_A, seed=3, jitter=0.02)
        )
        assert result.is_transition  # min counter restarted

    def test_stable_phase_id_not_reused_after_eviction(self):
        classifier = PhaseClassifier(config(table_entries=1))
        first = classifier.classify_interval(interval_for(PCS_A))
        classifier.classify_interval(interval_for(PCS_B))
        second = classifier.classify_interval(interval_for(PCS_C))
        assert len({first.phase_id, second.phase_id}) == 2

    def test_lru_protects_recently_used_entries(self):
        classifier = PhaseClassifier(config(table_entries=2))
        a = classifier.classify_interval(interval_for(PCS_A))
        classifier.classify_interval(interval_for(PCS_B))
        # Touch A again, making B the LRU victim for C.
        classifier.classify_interval(interval_for(PCS_A))
        classifier.classify_interval(interval_for(PCS_C))
        again = classifier.classify_interval(interval_for(PCS_A))
        assert again.matched
        assert again.phase_id == a.phase_id


class TestSignatureEdgeCases:
    def test_single_record_interval(self):
        classifier = PhaseClassifier(config())
        interval = Interval(
            branch_pcs=np.array([0x1000]),
            instr_counts=np.array([1_000_000]),
            cpi=1.0,
        )
        result = classifier.classify_interval(interval)
        assert result.phase_id == 1

    def test_tiny_interval_classifies(self):
        classifier = PhaseClassifier(config())
        interval = Interval(
            branch_pcs=np.array([0x1000, 0x1004]),
            instr_counts=np.array([3, 5]),
            cpi=1.0,
        )
        result = classifier.classify_interval(interval)
        assert result.phase_id >= 0

    def test_zero_weight_records_allowed(self):
        classifier = PhaseClassifier(config())
        interval = Interval(
            branch_pcs=np.array([0x1000, 0x1004]),
            instr_counts=np.array([1_000_000, 0]),
            cpi=1.0,
        )
        assert classifier.classify_interval(interval).phase_id == 1

    def test_identical_signature_always_rematches(self):
        classifier = PhaseClassifier(
            config(similarity_threshold=0.01)  # extremely strict
        )
        first = classifier.classify_interval(interval_for(PCS_A))
        for _ in range(5):
            result = classifier.classify_interval(interval_for(PCS_A))
            assert result.matched
            assert result.phase_id == first.phase_id
            assert result.distance == 0.0
