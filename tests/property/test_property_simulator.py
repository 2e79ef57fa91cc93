"""Property-based tests for the simulator substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.branch import BimodalPredictor, GSharePredictor
from repro.simulator.cache import Cache, CacheConfig
from repro.simulator.core_model import CoreModel, EventRates
from repro.simulator.tlb import TLB, TLBConfig

addresses = st.lists(st.integers(0, 2**30), min_size=1, max_size=300)


class TestCacheProperties:
    @given(addresses)
    @settings(max_examples=50)
    def test_hits_plus_misses_equals_accesses(self, stream):
        cache = Cache(CacheConfig(1024, 2, 32))
        for address in stream:
            cache.access(address)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses == len(stream)

    @given(addresses)
    @settings(max_examples=50)
    def test_immediate_repeat_always_hits(self, stream):
        cache = Cache(CacheConfig(1024, 2, 32))
        for address in stream:
            cache.access(address)
            assert cache.access(address) is True

    @given(addresses)
    @settings(max_examples=50)
    def test_resident_blocks_bounded_by_capacity(self, stream):
        config = CacheConfig(512, 2, 32)
        cache = Cache(config)
        for address in stream:
            cache.access(address)
        assert cache.resident_blocks <= (
            config.num_sets * config.assoc
        )

    @given(addresses)
    @settings(max_examples=30)
    def test_bigger_cache_never_misses_more(self, stream):
        small = Cache(CacheConfig(512, 2, 32))
        # Same sets*2 ways: strictly more capacity, LRU inclusion holds
        # per set for associativity increase.
        big = Cache(CacheConfig(1024, 4, 32))
        small_misses = small.access_many(stream)
        big_misses = big.access_many(stream)
        assert big_misses <= small_misses


class TestTLBProperties:
    @given(addresses)
    @settings(max_examples=50)
    def test_resident_bounded(self, stream):
        tlb = TLB(TLBConfig(entries=8))
        for address in stream:
            tlb.access(address)
        assert tlb.resident_pages <= 8
        assert tlb.misses <= tlb.accesses


class TestBranchProperties:
    @given(st.lists(st.tuples(st.integers(0, 2**20), st.booleans()),
                    min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_mispredictions_bounded(self, events):
        for predictor in (BimodalPredictor(64), GSharePredictor(4, 64)):
            for pc, taken in events:
                predictor.predict_and_update(pc, taken)
            assert 0 <= predictor.mispredictions <= predictor.predictions

    @given(st.booleans().flatmap(
        lambda bias: st.lists(st.just(bias), min_size=50, max_size=50)
    ))
    def test_constant_branch_learned_perfectly(self, outcomes):
        predictor = BimodalPredictor()
        for taken in outcomes:
            predictor.predict_and_update(0x40, taken)
        # After warmup (2 updates) everything is predicted correctly.
        assert predictor.mispredictions <= 2


class TestCoreModelProperties:
    rates_strategy = st.builds(
        EventRates,
        base_ipc=st.floats(0.5, 4.0),
        branch_rate=st.floats(0.0, 0.3),
        branch_mispredict_rate=st.just(0.0),
        il1_miss_rate=st.floats(0.0, 0.2),
        dl1_miss_rate=st.floats(0.0, 0.2),
        l2_miss_rate=st.floats(0.0, 0.2),
        tlb_miss_rate=st.floats(0.0, 0.1),
    )

    @given(rates_strategy)
    def test_cpi_positive_and_finite(self, rates):
        cpi = CoreModel().cpi(rates)
        assert np.isfinite(cpi)
        assert cpi >= 0.25  # cannot beat the 4-wide issue limit

    @given(rates_strategy, st.floats(0.0, 3.0))
    def test_scaling_misses_never_reduces_cpi(self, rates, factor):
        model = CoreModel()
        base = model.cpi(rates.scaled(1.0))
        scaled = model.cpi(rates.scaled(1.0 + factor))
        assert scaled >= base - 1e-9
