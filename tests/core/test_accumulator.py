"""Unit tests for the accumulator table and PC hashing."""

import numpy as np
import pytest

from repro.core.accumulator import AccumulatorTable, hash_pc
from repro.errors import ConfigurationError


class TestHashPC:
    def test_indices_within_range(self):
        pcs = np.arange(0, 40000, 4)
        indices = hash_pc(pcs, 16)
        assert indices.min() >= 0
        assert indices.max() < 16

    def test_deterministic(self):
        pcs = np.array([0x400, 0x404, 0x1000])
        assert np.array_equal(hash_pc(pcs, 32), hash_pc(pcs, 32))

    def test_spreads_sequential_pcs(self):
        # Sequential word-aligned PCs should hit many buckets, not one.
        pcs = np.arange(0x400, 0x400 + 64 * 4, 4)
        assert len(np.unique(hash_pc(pcs, 16))) >= 8

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            hash_pc(np.array([0]), 12)


class TestAccumulatorTable:
    def test_initial_state(self):
        table = AccumulatorTable(16)
        assert table.counters.sum() == 0
        assert table.total_increment == 0
        assert table.average_counter_value == 0

    def test_single_update(self):
        table = AccumulatorTable(16)
        table.update(0x400, 100)
        assert table.counters.sum() == 100
        assert table.total_increment == 100

    def test_batch_equals_sequential(self):
        pcs = np.arange(0x400, 0x400 + 200 * 4, 4)
        counts = np.arange(1, 201, dtype=np.int64)
        sequential = AccumulatorTable(16)
        for pc, count in zip(pcs, counts):
            sequential.update(int(pc), int(count))
        batched = AccumulatorTable(16)
        batched.update_batch(pcs, counts)
        assert np.array_equal(sequential.counters, batched.counters)
        assert sequential.total_increment == batched.total_increment

    def test_average_counter_value(self):
        table = AccumulatorTable(16)
        table.update_batch(
            np.arange(0, 64 * 4, 4), np.full(64, 1000, dtype=np.int64)
        )
        assert table.average_counter_value == 64000 // 16

    def test_saturation_at_counter_width(self):
        table = AccumulatorTable(2, counter_bits=8)
        for _ in range(10):
            table.update(0x400, 100)
        assert table.counters.max() <= 255

    def test_24bit_never_overflows_10m_interval(self):
        table = AccumulatorTable(16)
        table.update_batch(
            np.arange(0, 1000 * 4, 4),
            np.full(1000, 10_000, dtype=np.int64),
        )
        assert table.counters.sum() == 10_000_000  # no saturation

    def test_clear(self):
        table = AccumulatorTable(8)
        table.update(0, 50)
        table.clear()
        assert table.counters.sum() == 0
        assert table.total_increment == 0

    def test_negative_instructions_rejected(self):
        # ``update`` is the only check on ``observe_branch``'s path.
        # ``update_batch`` trusts its callers, which check where the
        # records enter: ``PhaseTracker.observe_batch`` and ``Interval``.
        with pytest.raises(ValueError):
            AccumulatorTable(8).update(0, -1)

    @pytest.mark.parametrize("state", [
        {"counters": [0] * 7 + [-1], "total": 10},
        {"counters": [0] * 8, "total": -1},
    ])
    def test_restore_refuses_negative_counters(self, state):
        # The bit selector compresses restored counters unchecked.
        table = AccumulatorTable(8)
        with pytest.raises(ConfigurationError, match="non-negative"):
            table.restore_state(state)
        assert table.total_increment == 0

    def test_mismatched_batch_rejected(self):
        with pytest.raises(ValueError):
            AccumulatorTable(8).update_batch(
                np.array([0, 4]), np.array([1])
            )

    @pytest.mark.parametrize("n", [0, 3, 12])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(ConfigurationError):
            AccumulatorTable(n)

    def test_invalid_counter_bits(self):
        with pytest.raises(ConfigurationError):
            AccumulatorTable(8, counter_bits=0)

    def test_same_bucket_accumulates(self):
        table = AccumulatorTable(8)
        table.update(0x400, 10)
        table.update(0x400, 20)
        assert table.counters.max() == 30

    def test_batch_is_exact_above_float64_mantissa(self):
        # A float64 bincount would round 2^53 + 1 + 1 down to 2^53; the
        # batch path must match the hardware-faithful integer updates
        # exactly, bit for bit, even at these magnitudes.
        pcs = np.array([0x400, 0x400, 0x400], dtype=np.int64)
        counts = np.array([2**53, 1, 1], dtype=np.int64)

        batched = AccumulatorTable(8, counter_bits=62)
        batched.update_batch(pcs, counts)
        sequential = AccumulatorTable(8, counter_bits=62)
        for pc, count in zip(pcs, counts):
            sequential.update(int(pc), int(count))

        assert np.array_equal(batched.counters, sequential.counters)
        assert batched.counters.max() == 2**53 + 2
        assert batched.total_increment == sequential.total_increment

    def test_batch_exactness_boundary(self):
        # Just under the 2^53 fast-path cutoff the float64 bincount is
        # provably exact; verify both paths agree around the boundary.
        for total in (2**53 - 2, 2**53):
            counts = np.array([total - 1, 1], dtype=np.int64)
            pcs = np.array([0x400, 0x400], dtype=np.int64)
            batched = AccumulatorTable(8, counter_bits=62)
            batched.update_batch(pcs, counts)
            assert batched.counters.max() == total
