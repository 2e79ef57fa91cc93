"""Unit tests for the TLB model."""

import pytest

from repro.errors import ConfigurationError
from repro.simulator.tlb import TLB, TLBConfig


class TestTLBConfig:
    def test_table1_defaults(self):
        cfg = TLBConfig()
        assert cfg.page_bytes == 8 * 1024
        assert cfg.miss_latency_cycles == 30
        assert cfg.page_shift == 13

    @pytest.mark.parametrize("kwargs", [
        {"entries": 0},
        {"page_bytes": 3000},
        {"miss_latency_cycles": -1},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            TLBConfig(**kwargs)


class TestTLB:
    def test_cold_miss_then_hit(self):
        tlb = TLB()
        assert tlb.access(0x1000) is False
        assert tlb.access(0x1000) is True

    def test_same_page_hits(self):
        tlb = TLB(TLBConfig(page_bytes=8192))
        tlb.access(0)
        assert tlb.access(8191) is True
        assert tlb.access(8192) is False

    def test_lru_eviction(self):
        tlb = TLB(TLBConfig(entries=2, page_bytes=4096))
        tlb.access(0 * 4096)
        tlb.access(1 * 4096)
        tlb.access(0 * 4096)      # page 0 now MRU
        tlb.access(2 * 4096)      # evicts page 1
        assert tlb.access(0 * 4096) is True
        assert tlb.access(1 * 4096) is False

    def test_capacity_bound(self):
        tlb = TLB(TLBConfig(entries=4, page_bytes=4096))
        for page in range(10):
            tlb.access(page * 4096)
        assert tlb.resident_pages == 4

    def test_miss_rate(self):
        tlb = TLB()
        tlb.access(0)
        tlb.access(0)
        tlb.access(1 << 20)
        assert tlb.miss_rate == pytest.approx(2 / 3)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            TLB().access(-5)

    def test_reset_stats_keeps_translations(self):
        tlb = TLB()
        tlb.access(0)
        tlb.reset_stats()
        assert tlb.accesses == 0
        assert tlb.access(0) is True
