"""Unit tests for interval traces."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.workloads.trace import (
    DEFAULT_INTERVAL_INSTRUCTIONS,
    Interval,
    IntervalTrace,
)


def make_interval(cpi=1.0, n=4, region=0, transition=False):
    return Interval(
        branch_pcs=np.arange(n, dtype=np.int64) * 4,
        instr_counts=np.full(n, 100, dtype=np.int64),
        cpi=cpi,
        region=region,
        is_transition=transition,
    )


class TestInterval:
    def test_instructions_total(self):
        assert make_interval(n=5).instructions == 500

    def test_num_records(self):
        assert make_interval(n=7).num_records == 7

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(TraceError):
            Interval(
                branch_pcs=np.array([1, 2]),
                instr_counts=np.array([1]),
                cpi=1.0,
            )

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            Interval(
                branch_pcs=np.array([], dtype=np.int64),
                instr_counts=np.array([], dtype=np.int64),
                cpi=1.0,
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(TraceError):
            Interval(
                branch_pcs=np.array([4]),
                instr_counts=np.array([-1]),
                cpi=1.0,
            )

    @pytest.mark.parametrize("cpi", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_cpi_rejected(self, cpi):
        with pytest.raises(TraceError):
            make_interval(cpi=cpi)

    def test_two_dimensional_rejected(self):
        with pytest.raises(TraceError):
            Interval(
                branch_pcs=np.zeros((2, 2), dtype=np.int64),
                instr_counts=np.zeros((2, 2), dtype=np.int64),
                cpi=1.0,
            )


class TestIntervalTrace:
    def make_trace(self, cpis=(1.0, 2.0, 3.0)):
        return IntervalTrace(
            name="t",
            intervals=[make_interval(cpi=c) for c in cpis],
        )

    def test_len_iter_getitem(self):
        trace = self.make_trace()
        assert len(trace) == 3
        assert trace[1].cpi == 2.0
        assert [iv.cpi for iv in trace] == [1.0, 2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            IntervalTrace(name="e", intervals=[])

    def test_default_granularity(self):
        assert self.make_trace().interval_instructions == (
            DEFAULT_INTERVAL_INSTRUCTIONS
        )

    def test_cpis_array(self):
        assert np.allclose(self.make_trace().cpis, [1.0, 2.0, 3.0])

    def test_regions_and_transition_mask(self):
        trace = IntervalTrace(
            name="t",
            intervals=[
                make_interval(region=0),
                make_interval(region=-1, transition=True),
            ],
        )
        assert trace.regions.tolist() == [0, -1]
        assert trace.transition_mask.tolist() == [False, True]

    def test_whole_program_cov(self):
        trace = self.make_trace(cpis=(1.0, 1.0, 1.0))
        assert trace.whole_program_cov() == 0.0
        varied = self.make_trace(cpis=(1.0, 3.0))
        assert varied.whole_program_cov() == pytest.approx(0.5)
