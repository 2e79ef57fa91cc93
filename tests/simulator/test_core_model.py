"""Unit tests for the analytic out-of-order core timing model."""

import pytest

from repro.errors import ConfigurationError
from repro.simulator.core_model import CoreModel, CoreTimings, EventRates


def rates(**kwargs):
    defaults = dict(base_ipc=2.0)
    defaults.update(kwargs)
    return EventRates(**defaults)


class TestEventRates:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            rates(dl1_miss_rate=-0.1)

    def test_zero_base_ipc_rejected(self):
        with pytest.raises(ConfigurationError):
            EventRates(base_ipc=0.0)

    def test_mispredict_cannot_exceed_branch_rate(self):
        with pytest.raises(ConfigurationError):
            rates(branch_rate=0.1, branch_mispredict_rate=0.2)

    def test_scaled_scales_misses_not_ipc(self):
        r = rates(dl1_miss_rate=0.02, branch_rate=0.2,
                  branch_mispredict_rate=0.02)
        s = r.scaled(2.0)
        assert s.dl1_miss_rate == pytest.approx(0.04)
        assert s.base_ipc == r.base_ipc

    def test_scaled_clamps_mispredicts_to_branch_rate(self):
        r = rates(branch_rate=0.1, branch_mispredict_rate=0.08)
        s = r.scaled(10.0)
        assert s.branch_mispredict_rate == pytest.approx(0.1)

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            rates().scaled(-1.0)


class TestCoreTimings:
    def test_table1_defaults(self):
        t = CoreTimings()
        assert t.issue_width == 4
        assert t.rob_entries == 64
        assert t.l2_hit_latency == 12
        assert t.memory_latency == 120
        assert t.tlb_miss_latency == 30

    @pytest.mark.parametrize("kwargs", [
        {"issue_width": 0},
        {"memory_latency": -1},
        {"memory_overlap": 1.5},
        {"l2_hit_overlap": -0.1},
    ])
    def test_invalid_timings(self, kwargs):
        with pytest.raises(ConfigurationError):
            CoreTimings(**kwargs)


class TestCoreModel:
    def test_event_free_cpi_is_base(self):
        model = CoreModel()
        assert model.cpi(rates(base_ipc=2.0)) == pytest.approx(0.5)

    def test_base_ipc_capped_at_issue_width(self):
        model = CoreModel()
        assert model.cpi(rates(base_ipc=100.0)) == pytest.approx(0.25)

    def test_misses_add_penalty_monotonically(self):
        model = CoreModel()
        clean = model.cpi(rates())
        dirty = model.cpi(rates(dl1_miss_rate=0.02))
        dirtier = model.cpi(rates(dl1_miss_rate=0.05))
        assert clean < dirty < dirtier

    def test_l2_misses_cost_more_than_l1(self):
        model = CoreModel()
        l1_only = model.cpi(rates(dl1_miss_rate=0.02))
        with_l2 = model.cpi(rates(dl1_miss_rate=0.02, l2_miss_rate=0.02))
        # Memory penalty per miss far exceeds the L2-hit penalty.
        assert with_l2 - l1_only > l1_only - model.cpi(rates())

    def test_branch_penalty_applied(self):
        model = CoreModel()
        clean = model.cpi(rates(branch_rate=0.2))
        dirty = model.cpi(
            rates(branch_rate=0.2, branch_mispredict_rate=0.02)
        )
        assert dirty - clean == pytest.approx(0.02 * 14, rel=1e-6)

    def test_tlb_penalty_fully_exposed_by_default(self):
        model = CoreModel()
        dirty = model.cpi(rates(tlb_miss_rate=0.01))
        assert dirty - model.cpi(rates()) == pytest.approx(0.01 * 30)

    def test_realistic_rates_land_in_spec_range(self):
        # mcf-like rates: heavy L2 missing.
        model = CoreModel()
        mcf = model.cpi(rates(
            base_ipc=1.4, branch_rate=0.17, branch_mispredict_rate=0.01,
            dl1_miss_rate=0.08, l2_miss_rate=0.06, tlb_miss_rate=0.03,
        ))
        assert 2.0 < mcf < 10.0
        # gzip-like rates: nearly clean.
        gzip = model.cpi(rates(
            base_ipc=2.5, branch_rate=0.17, branch_mispredict_rate=0.008,
            dl1_miss_rate=0.005, l2_miss_rate=0.0005,
        ))
        assert 0.3 < gzip < 1.0

    def test_full_overlap_hides_penalty(self):
        timings = CoreTimings(memory_overlap=1.0)
        model = CoreModel(timings)
        assert model.cpi(rates(l2_miss_rate=0.1)) == pytest.approx(
            model.cpi(rates())
        )
