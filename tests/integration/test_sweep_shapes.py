"""Shape checks of two classifier knobs, swept value by value.

Each fixture classifies the same four benchmarks at every value of one
:class:`~repro.core.config.ClassifierConfig` field, around the paper's
§5.1 configuration without adaptive thresholds (so single-field effects
are not confounded), and averages each metric across the benchmarks.
The orderings must agree with the hand-built figure experiments.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.cov import weighted_cov
from repro.core import ClassifierConfig
from repro.harness.cache import cached_classified, cached_trace
from repro.prediction import CompositePhasePredictor

SCALE = 0.25
BENCHES = ("bzip2/p", "gcc/s", "gzip/p", "mcf")
BASE = ClassifierConfig(
    num_counters=16, table_entries=32,
    similarity_threshold=0.25, min_count_threshold=8,
)


def sweep(field_name, values):
    """``averages[metric][value]``: the metric's mean over BENCHES with
    ``field_name`` set to ``value``."""
    averages = {
        metric: {}
        for metric in ("cov", "phases", "transition", "lv_mispredict")
    }
    for value in values:
        config = replace(BASE, **{field_name: value})
        rows = []
        for name in BENCHES:
            run = cached_classified(name, config, SCALE)
            stats = CompositePhasePredictor(None).run(run.phase_ids)
            rows.append((
                weighted_cov(run, cached_trace(name, SCALE)) * 100,
                run.num_phases,
                run.transition_fraction * 100,
                (1.0 - stats.accuracy) * 100,
            ))
        for metric, column in zip(averages, zip(*rows)):
            averages[metric][value] = float(np.mean(column))
    return averages


@pytest.fixture(scope="module")
def threshold_sweep():
    return sweep("similarity_threshold", [0.0625, 0.125, 0.25, 0.5])


@pytest.fixture(scope="module")
def min_count_sweep():
    return sweep("min_count_threshold", [0, 2, 4, 8, 16])


class TestThresholdSweep:
    def test_tighter_thresholds_lower_cov(self, threshold_sweep):
        averages = threshold_sweep["cov"]
        assert averages[0.0625] <= averages[0.5]

    def test_loose_threshold_merges_phases(self, threshold_sweep):
        averages = threshold_sweep["phases"]
        assert averages[0.5] <= min(
            averages[0.0625], averages[0.125], averages[0.25]
        )

    def test_min_count_inverts_naive_phase_ordering(self, threshold_sweep):
        """Under min-count 8, tighter thresholds do NOT inflate the
        phase count the way they do at min-count 0 (fig2/fig4): the
        extra entries churn out of the table before maturing into real
        phase IDs. The sweep exposes this interaction — tight and
        default thresholds allocate comparable numbers of phases."""
        averages = threshold_sweep["phases"]
        assert averages[0.0625] < 3 * averages[0.25]
        assert averages[0.25] < 3 * max(averages[0.0625], 1.0)


class TestMinCountSweep:
    def test_phase_counts_monotone_nonincreasing(self, min_count_sweep):
        averages = min_count_sweep["phases"]
        ordered = [averages[v] for v in (0, 2, 4, 8, 16)]
        assert all(a >= b - 1e-9 for a, b in zip(ordered, ordered[1:]))

    def test_transition_time_monotone_nondecreasing(self, min_count_sweep):
        averages = min_count_sweep["transition"]
        ordered = [averages[v] for v in (0, 2, 4, 8, 16)]
        assert all(a <= b + 1e-9 for a, b in zip(ordered, ordered[1:]))

    def test_mispredictions_improve_then_saturate(self, min_count_sweep):
        averages = min_count_sweep["lv_mispredict"]
        assert averages[8] < averages[0]
        # Doubling past the paper's choice buys little.
        assert abs(averages[16] - averages[8]) < 5.0
