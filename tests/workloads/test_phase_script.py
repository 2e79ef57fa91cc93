"""Unit tests for phase scripts and pattern builders."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.phase_script import (
    PhaseScript,
    Segment,
    alternating_pattern,
    hierarchical_pattern,
    irregular_pattern,
    stable_pattern,
)

PATTERNS = (
    lambda rng, n, total: stable_pattern(rng, n, total, 20, 60),
    lambda rng, n, total: hierarchical_pattern(rng, n, total, 4, 12),
    lambda rng, n, total: irregular_pattern(rng, n, total, 2, 8),
    lambda rng, n, total: alternating_pattern(rng, n, total, 5, 15),
)


class TestSegment:
    def test_negative_region_rejected(self):
        with pytest.raises(ConfigurationError):
            Segment(region=-1, length=5)

    def test_zero_length_rejected(self):
        with pytest.raises(ConfigurationError):
            Segment(region=0, length=0)


class TestPhaseScript:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            PhaseScript([])

    def test_totals(self):
        script = PhaseScript([Segment(0, 5), Segment(1, 3)])
        assert script.total_intervals == 8
        assert script.num_segments == 2
        assert script.regions_used() == [0, 1]

    def test_coalesced_merges_adjacent_same_region(self):
        script = PhaseScript(
            [Segment(0, 5), Segment(0, 3), Segment(1, 2), Segment(0, 1)]
        )
        merged = script.coalesced()
        assert [(s.region, s.length) for s in merged.segments] == [
            (0, 8), (1, 2), (0, 1),
        ]

    def test_coalesced_never_has_adjacent_duplicates(self, rng):
        for build in PATTERNS:
            script = build(rng, 4, 300)
            regions = [s.region for s in script.segments]
            assert all(a != b for a, b in zip(regions, regions[1:]))


class TestPatternBuilders:
    @pytest.mark.parametrize("build", PATTERNS)
    def test_total_intervals_exact(self, rng, build):
        script = build(rng, 4, 500)
        assert script.total_intervals == 500

    @pytest.mark.parametrize("build", PATTERNS)
    def test_regions_within_bounds(self, rng, build):
        script = build(rng, 3, 300)
        assert max(script.regions_used()) < 3

    @pytest.mark.parametrize("build", PATTERNS)
    def test_invalid_args(self, rng, build):
        with pytest.raises(ConfigurationError):
            build(rng, 0, 100)
        with pytest.raises(ConfigurationError):
            build(rng, 3, 0)

    def test_stable_has_few_long_segments(self, rng):
        script = stable_pattern(rng, 3, 1000, min_length=100,
                                max_length=300)
        assert script.num_segments <= 12

    def test_irregular_has_many_short_segments(self, rng):
        script = irregular_pattern(rng, 8, 1000, min_length=2, max_length=8)
        assert script.num_segments >= 100

    def test_alternating_constant_period(self, rng):
        script = alternating_pattern(rng, 4, 400, period_min=10,
                                     period_max=10)
        lengths = {s.length for s in script.segments[:-1]}
        assert lengths == {10}

    def test_hierarchical_lengths_are_characteristic(self, rng):
        script = hierarchical_pattern(
            rng, 4, 2000, inner_min=5, inner_max=30, length_jitter=0.0
        )
        by_region = {}
        for segment in script.segments[:-1]:
            by_region.setdefault(segment.region, set()).add(segment.length)
        # With zero jitter every visit reuses the characteristic length.
        assert all(len(lengths) == 1 for lengths in by_region.values())

    def test_irregular_revisit_bias_validation(self, rng):
        with pytest.raises(ConfigurationError):
            irregular_pattern(rng, 4, 100, revisit_bias=2.0)

    def test_length_jitter_validation(self, rng):
        with pytest.raises(ConfigurationError):
            stable_pattern(rng, 3, 100, length_jitter=-0.1)
        with pytest.raises(ConfigurationError):
            hierarchical_pattern(rng, 3, 100, length_jitter=1.1)

    def test_hierarchical_outer_cycle_validation(self, rng):
        with pytest.raises(ConfigurationError):
            hierarchical_pattern(rng, 3, 100, outer_cycle=0)

    def test_determinism(self):
        a = irregular_pattern(np.random.default_rng(9), 5, 400)
        b = irregular_pattern(np.random.default_rng(9), 5, 400)
        assert [(s.region, s.length) for s in a.segments] == [
            (s.region, s.length) for s in b.segments
        ]
