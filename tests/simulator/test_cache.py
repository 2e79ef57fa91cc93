"""Unit tests for the set-associative cache model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulator.cache import Cache, CacheConfig, CacheHierarchy, CacheStats


def make_cache(size=1024, assoc=2, block=32, name="t"):
    return Cache(CacheConfig(size, assoc, block, name=name))


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(16 * 1024, 4, 32)
        assert cfg.num_sets == 128

    def test_table1_l2_geometry(self):
        cfg = CacheConfig(128 * 1024, 8, 64)
        assert cfg.num_sets == 256
        assert cfg.block_shift == 6

    @pytest.mark.parametrize("size,assoc,block", [
        (1000, 2, 32),   # size not a power of two
        (1024, 3, 32),   # assoc not a power of two
        (1024, 2, 48),   # block not a power of two
        (0, 1, 32),      # zero size
    ])
    def test_invalid_geometry_rejected(self, size, assoc, block):
        with pytest.raises(ConfigurationError):
            CacheConfig(size, assoc, block)

    def test_set_larger_than_cache_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(64, 4, 32)


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True

    def test_same_block_different_bytes_hit(self):
        cache = make_cache(block=32)
        cache.access(0x100)
        assert cache.access(0x11F) is True  # last byte of the block
        assert cache.access(0x120) is False  # first byte of next block

    def test_negative_address_rejected(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.access(-1)

    def test_stats_accumulate(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        cache.access(4096)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.miss_rate == pytest.approx(2 / 3)

    def test_miss_rate_zero_when_untouched(self):
        assert make_cache().stats.miss_rate == 0.0

    def test_contains_does_not_touch_stats(self):
        cache = make_cache()
        cache.access(0x40)
        before = cache.stats.accesses
        assert cache.contains(0x40) is True
        assert cache.contains(0x4000) is False
        assert cache.stats.accesses == before


class TestLRUReplacement:
    def test_lru_victim_selected(self):
        # Direct a stream at one set: 2-way cache, 16 sets of 32B blocks.
        cache = make_cache(size=1024, assoc=2, block=32)
        sets = cache.config.num_sets
        stride = sets * 32  # same set index every access
        a, b, c = 0, stride, 2 * stride
        cache.access(a)
        cache.access(b)
        cache.access(a)      # a is now MRU
        cache.access(c)      # evicts b (LRU)
        assert cache.contains(a)
        assert not cache.contains(b)
        assert cache.contains(c)

    def test_fills_invalid_ways_before_evicting(self):
        cache = make_cache(size=1024, assoc=2, block=32)
        stride = cache.config.num_sets * 32
        cache.access(0)
        cache.access(stride)
        assert cache.resident_blocks == 2

    def test_working_set_within_capacity_all_hits_after_warmup(self):
        cache = make_cache(size=4096, assoc=4, block=32)
        addresses = np.arange(0, 4096, 32)
        cache.access_many(addresses)          # warm: all miss
        misses = cache.access_many(addresses)  # steady: all hit
        assert misses == 0

    def test_working_set_beyond_capacity_keeps_missing(self):
        cache = make_cache(size=1024, assoc=2, block=32)
        addresses = np.arange(0, 8 * 1024, 32)
        cache.access_many(addresses)
        misses = cache.access_many(addresses)
        # Sequential sweep over 8x capacity with LRU: every access misses.
        assert misses == len(addresses)


class TestFlushAndReset:
    def test_flush_invalidates_but_keeps_stats(self):
        cache = make_cache()
        cache.access(0x80)
        cache.flush()
        assert not cache.contains(0x80)
        assert cache.stats.accesses == 1

    def test_reset_stats_keeps_contents(self):
        cache = make_cache()
        cache.access(0x80)
        cache.reset_stats()
        assert cache.stats.accesses == 0
        assert cache.contains(0x80)

    def test_stats_merge(self):
        a = CacheStats(accesses=10, hits=6, misses=4)
        b = CacheStats(accesses=5, hits=5, misses=0)
        merged = a.merge(b)
        assert merged.accesses == 15
        assert merged.hits == 11
        assert merged.misses == 4


class TestCacheHierarchy:
    def test_l2_consulted_only_on_l1_miss(self):
        hierarchy = CacheHierarchy()
        l1_hit, l2_hit = hierarchy.access_data(0x1000)
        assert l1_hit is False and l2_hit is False
        l1_hit, l2_hit = hierarchy.access_data(0x1000)
        assert l1_hit is True and l2_hit is None
        assert hierarchy.l2.stats.accesses == 1

    def test_instruction_and_data_use_separate_l1(self):
        hierarchy = CacheHierarchy()
        hierarchy.access_instruction(0x2000)
        assert hierarchy.icache.stats.accesses == 1
        assert hierarchy.dcache.stats.accesses == 0

    def test_l1_miss_l2_hit_after_warm(self):
        hierarchy = CacheHierarchy()
        hierarchy.access_data(0x3000)
        hierarchy.dcache.flush()
        l1_hit, l2_hit = hierarchy.access_data(0x3000)
        assert l1_hit is False and l2_hit is True


class TestWritePolicy:
    def test_clean_evictions_no_writeback(self):
        cache = make_cache(size=1024, assoc=2, block=32)
        stride = cache.config.num_sets * 32
        for index in range(4):
            cache.access(index * stride)  # reads only
        assert cache.stats.writebacks == 0

    def test_dirty_eviction_counts_writeback(self):
        cache = make_cache(size=1024, assoc=2, block=32)
        stride = cache.config.num_sets * 32
        cache.access(0, write=True)          # dirty line
        cache.access(stride)                 # fills way 2
        cache.access(2 * stride)             # evicts dirty LRU
        assert cache.stats.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=1024, assoc=2, block=32)
        stride = cache.config.num_sets * 32
        cache.access(0)                      # clean fill
        cache.access(0, write=True)          # dirtied by write hit
        cache.access(stride)
        cache.access(2 * stride)             # evicts the dirty line
        assert cache.stats.writebacks == 1

    def test_writeback_cleared_after_eviction(self):
        cache = make_cache(size=1024, assoc=1, block=32)
        stride = cache.config.num_sets * 32
        cache.access(0, write=True)
        cache.access(stride)                 # writeback 1, fills clean
        cache.access(2 * stride)             # clean eviction
        assert cache.stats.writebacks == 1

    def test_flush_drops_dirty_without_writeback(self):
        cache = make_cache()
        cache.access(0, write=True)
        cache.flush()
        assert cache.stats.writebacks == 0

    def test_stats_merge_includes_writebacks(self):
        a = CacheStats(accesses=1, hits=0, misses=1, writebacks=1)
        b = CacheStats(accesses=1, hits=1, misses=0, writebacks=2)
        assert a.merge(b).writebacks == 3
