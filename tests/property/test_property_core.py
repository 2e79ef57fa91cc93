"""Property-based tests for core data structures (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accumulator import AccumulatorTable, hash_pc
from repro.core.bitselect import DynamicBitSelector, StaticBitSelector
from repro.core.distance import (
    manhattan_distance,
    relative_distance,
    relative_distance_matrix,
)
from repro.core.signature import Signature
from repro.core.signature_table import SignatureTable

vectors = st.lists(st.integers(0, 63), min_size=1, max_size=32)
paired_vectors = st.integers(1, 32).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 63), min_size=n, max_size=n),
        st.lists(st.integers(0, 63), min_size=n, max_size=n),
    )
)


class TestDistanceProperties:
    @given(paired_vectors)
    def test_symmetry(self, pair):
        a, b = pair
        assert manhattan_distance(a, b) == manhattan_distance(b, a)
        assert relative_distance(a, b) == pytest.approx(
            relative_distance(b, a)
        )

    @given(vectors)
    def test_identity(self, vector):
        assert manhattan_distance(vector, vector) == 0
        assert relative_distance(vector, vector) == 0.0

    @given(paired_vectors)
    def test_relative_distance_in_unit_interval(self, pair):
        a, b = pair
        assert 0.0 <= relative_distance(a, b) <= 1.0

    @given(
        st.integers(1, 16).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(0, 63), min_size=n, max_size=n),
                    min_size=1, max_size=8,
                ),
                st.lists(st.integers(0, 63), min_size=n, max_size=n),
            )
        )
    )
    def test_matrix_form_agrees_with_scalar(self, data):
        rows, vector = data
        matrix = np.array(rows)
        batch = relative_distance_matrix(matrix, np.array(vector))
        for row, value in zip(rows, batch):
            assert value == pytest.approx(relative_distance(row, vector))


class TestAccumulatorProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 10_000)),
            min_size=1, max_size=200,
        ),
        st.sampled_from([8, 16, 32]),
    )
    def test_total_preserved_without_saturation(self, records, counters):
        table = AccumulatorTable(counters, counter_bits=62)
        pcs = np.array([pc for pc, _ in records], dtype=np.int64)
        counts = np.array([c for _, c in records], dtype=np.int64)
        table.update_batch(pcs, counts)
        assert table.counters.sum() == counts.sum()
        assert table.total_increment == counts.sum()

    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=100),
           st.sampled_from([8, 16, 64]))
    def test_hash_in_range_and_deterministic(self, pcs, counters):
        array = np.array(pcs, dtype=np.uint64)
        indices = hash_pc(array, counters)
        assert (indices >= 0).all()
        assert (indices < counters).all()
        assert np.array_equal(indices, hash_pc(array, counters))


class TestBitSelectorProperties:
    @given(
        st.lists(st.integers(0, (1 << 24) - 1), min_size=1, max_size=64),
        st.integers(0, (1 << 24) - 1),
        st.integers(4, 8),
    )
    def test_dynamic_output_in_range(self, counters, average, bits):
        selector = DynamicBitSelector(bits=bits)
        out = selector.compress(np.array(counters), average)
        assert (out >= 0).all()
        assert (out <= selector.max_value).all()

    @given(
        st.lists(st.integers(0, (1 << 24) - 1), min_size=2, max_size=64),
        st.integers(0, (1 << 24) - 1),
    )
    def test_dynamic_monotone_under_saturation(self, counters, average):
        """Compression never inverts the order of two counters."""
        selector = DynamicBitSelector(bits=6)
        ordered = np.sort(np.array(counters))
        out = selector.compress(ordered, average)
        assert (np.diff(out) >= 0).all()

    @given(
        st.lists(st.integers(0, (1 << 24) - 1), min_size=1, max_size=32),
        st.integers(0, 16),
    )
    def test_static_output_in_range(self, counters, low_bit):
        selector = StaticBitSelector(bits=8, low_bit=min(low_bit, 16))
        out = selector.compress(np.array(counters), 0)
        assert (out >= 0).all()
        assert (out <= 255).all()


class TestSignatureTableProperties:
    @given(
        st.lists(
            st.lists(st.integers(0, 63), min_size=8, max_size=8),
            min_size=1, max_size=60,
        ),
        st.integers(1, 16),
    )
    @settings(max_examples=30)
    def test_capacity_invariant(self, signature_values, capacity):
        table = SignatureTable(capacity=capacity, default_threshold=0.25)
        for values in signature_values:
            table.insert(Signature(values, bits=6))
        assert len(table) <= capacity
        assert table.evictions == max(len(signature_values) - capacity, 0)

    @given(
        st.lists(
            st.lists(st.integers(0, 63), min_size=8, max_size=8),
            min_size=2, max_size=30,
        )
    )
    @settings(max_examples=30)
    def test_best_match_respects_threshold(self, signature_values):
        table = SignatureTable(capacity=None, default_threshold=0.2)
        for values in signature_values[:-1]:
            table.insert(Signature(values, bits=6))
        probe = Signature(signature_values[-1], bits=6)
        match = table.best_match(probe)
        if match is not None:
            row, distance = match
            assert distance <= table.thresholds[row] + 1e-12
            assert distance == pytest.approx(
                relative_distance(table.rows[row], probe)
            )


class TestClassifierStreamProperties:
    """Whole-classifier invariants over arbitrary synthetic streams."""

    @staticmethod
    def _interval_from(seed_pcs, weights):
        from repro.workloads.trace import Interval

        weights = np.asarray(weights, dtype=np.float64) + 1e-9
        counts = np.maximum(
            (weights / weights.sum() * 100_000).astype(np.int64), 0
        )
        counts[0] += 100_000 - counts.sum()
        return Interval(
            branch_pcs=np.asarray(seed_pcs, dtype=np.int64),
            instr_counts=counts,
            cpi=1.0,
        )

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # which code population
                st.lists(st.floats(0.1, 10.0), min_size=6, max_size=6),
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([0, 2, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_stream_invariants(self, stream, min_count):
        from repro.core import ClassifierConfig, PhaseClassifier
        from repro.core.config import TRANSITION_PHASE_ID

        populations = {
            p: np.arange(0x1000 + p * 0x10000,
                         0x1000 + p * 0x10000 + 24, 4)
            for p in range(4)
        }
        classifier = PhaseClassifier(
            ClassifierConfig(
                num_counters=16, table_entries=8,
                similarity_threshold=0.25,
                min_count_threshold=min_count,
            )
        )
        allocated = set()
        for population, weights in stream:
            result = classifier.classify_interval(
                self._interval_from(populations[population], weights)
            )
            # Phase IDs are 0 (transition) or positive.
            assert result.phase_id >= TRANSITION_PHASE_ID
            if result.new_phase_allocated:
                # Allocation is monotone and unique.
                assert result.phase_id not in allocated
                allocated.add(result.phase_id)
            if min_count == 0:
                # No transition phase without a min counter.
                assert result.phase_id != TRANSITION_PHASE_ID
        # The table never exceeds its capacity.
        assert len(classifier.table) <= 8
        assert classifier.num_phases == len(allocated)
