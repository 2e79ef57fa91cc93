"""Tests for classification comparison."""

import numpy as np
import pytest

from repro.analysis.compare import compare_runs
from repro.core import ClassifierConfig, PhaseClassifier
from repro.core.events import ClassificationResult, ClassificationRun
from repro.errors import TraceError
from repro.workloads.trace import Interval, IntervalTrace


def run_for(ids):
    return ClassificationRun(
        results=[
            ClassificationResult(phase_id=i, matched=True, distance=0.0)
            for i in ids
        ],
        num_phases=len({i for i in ids if i != 0}),
        evictions=0,
    )


def trace_for(cpis):
    return IntervalTrace(
        "t",
        [Interval(np.array([4]), np.array([100]), cpi=c) for c in cpis],
    )


class TestCompareRuns:
    def test_identical_runs_tie(self):
        trace = trace_for([1.0, 2.0, 1.0, 2.0])
        run = run_for([1, 2, 1, 2])
        comparison = compare_runs(run, run_for([1, 2, 1, 2]), trace)
        assert comparison.cov_winner is None
        assert comparison.more_frugal is None
        assert comparison.agreement_ari == pytest.approx(1.0)

    def test_better_split_wins_cov(self):
        trace = trace_for([1.0, 1.0, 5.0, 5.0])
        split = run_for([1, 1, 2, 2])
        merged = run_for([1, 1, 1, 1])
        comparison = compare_runs(split, merged, trace,
                                  name_a="split", name_b="merged")
        assert comparison.cov_winner == "split"
        assert comparison.more_frugal == "merged"

    def test_transition_occupancy_reported(self):
        trace = trace_for([1.0, 1.0, 1.0, 1.0])
        comparison = compare_runs(
            run_for([0, 1, 1, 1]), run_for([1, 1, 1, 1]), trace
        )
        assert comparison.transition_a == pytest.approx(0.25)
        assert comparison.transition_b == 0.0

    def test_mismatched_lengths_rejected(self):
        trace = trace_for([1.0, 1.0])
        with pytest.raises(TraceError):
            compare_runs(run_for([1]), run_for([1, 1]), trace)

    def test_summary_mentions_names(self):
        trace = trace_for([1.0, 2.0])
        comparison = compare_runs(
            run_for([1, 2]), run_for([1, 1]), trace,
            name_a="ours", name_b="baseline",
        )
        text = comparison.summary()
        assert "ours" in text and "baseline" in text
        assert "ARI" in text

    def test_real_configs_comparable(self, small_trace):
        ours = PhaseClassifier(
            ClassifierConfig.paper_default()
        ).classify_trace(small_trace)
        baseline = PhaseClassifier(
            ClassifierConfig.paper_baseline()
        ).classify_trace(small_trace)
        comparison = compare_runs(
            ours, baseline, small_trace, "paper", "prior work"
        )
        # Both classify the same program: labels must correlate.
        assert comparison.agreement_ari > 0.2
