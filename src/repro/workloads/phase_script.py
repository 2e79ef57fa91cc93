"""Phase scripts: how regions are sequenced over a program's run.

A :class:`PhaseScript` is an ordered list of :class:`Segment` objects
(region index + length in intervals). The workload generator inserts
noisy *transition intervals* between consecutive segments of different
regions; the script itself describes only the stable structure.

Builders produce the phase-structure archetypes the paper's benchmarks
exhibit (§3, §4.5):

- :func:`stable_pattern` — few long segments (``ammp``, ``perl/d``).
- :func:`hierarchical_pattern` — nested loop over regions, inner
  alternation inside an outer cycle (``bzip2``, ``gzip``).
- :func:`irregular_pattern` — many short, randomly ordered segments
  (``gcc``, ``perl/s``).
- :func:`alternating_pattern` — regular flip-flop between regions
  (``galgel``-like periodic behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Segment:
    """A contiguous run of intervals executing one region."""

    region: int
    length: int

    def __post_init__(self) -> None:
        if self.region < 0:
            raise ConfigurationError(
                f"region index must be non-negative, got {self.region}"
            )
        if self.length <= 0:
            raise ConfigurationError(
                f"segment length must be positive, got {self.length}"
            )


@dataclass
class PhaseScript:
    """The stable-phase structure of a synthetic program run."""

    segments: List[Segment]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("a phase script needs >= 1 segment")

    @property
    def total_intervals(self) -> int:
        """Stable intervals only (transitions are added by the generator)."""
        return sum(s.length for s in self.segments)

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    def regions_used(self) -> List[int]:
        """Sorted list of distinct region indices referenced."""
        return sorted({s.region for s in self.segments})

    def coalesced(self) -> "PhaseScript":
        """Merge adjacent segments that reference the same region."""
        merged: List[Segment] = []
        for segment in self.segments:
            if merged and merged[-1].region == segment.region:
                merged[-1] = Segment(
                    segment.region, merged[-1].length + segment.length
                )
            else:
                merged.append(segment)
        return PhaseScript(merged)


def _draw_length(
    rng: np.random.Generator, low: int, high: int
) -> int:
    """Draw a segment length uniformly in [low, high]."""
    if low <= 0 or high < low:
        raise ConfigurationError(
            f"invalid length range [{low}, {high}]"
        )
    return int(rng.integers(low, high + 1))


def stable_pattern(
    rng: np.random.Generator,
    num_regions: int,
    total_intervals: int,
    min_length: int = 60,
    max_length: int = 400,
    length_jitter: float = 0.1,
) -> PhaseScript:
    """Few long segments cycling through the regions in order.

    Each region's segment length is characteristic (drawn once) with
    occasional ±10% perturbation — outer program loops repeat their
    per-iteration work, which keeps run lengths predictable.
    """
    _check_pattern_args(num_regions, total_intervals)
    if not 0.0 <= length_jitter <= 1.0:
        raise ConfigurationError(
            f"length_jitter must be in [0, 1], got {length_jitter}"
        )
    characteristic = [
        _draw_length(rng, min_length, max_length)
        for _ in range(num_regions)
    ]
    segments: List[Segment] = []
    produced = 0
    region = 0
    while produced < total_intervals:
        length = characteristic[region]
        if rng.random() < length_jitter:
            delta = max(int(round(length * 0.1)), 1)
            length = max(length + int(rng.integers(-delta, delta + 1)), 1)
        length = min(length, total_intervals - produced)
        segments.append(Segment(region, length))
        produced += length
        region = (region + 1) % num_regions
    return PhaseScript(segments).coalesced()


def hierarchical_pattern(
    rng: np.random.Generator,
    num_regions: int,
    total_intervals: int,
    inner_min: int = 8,
    inner_max: int = 50,
    outer_cycle: int = 3,
    length_jitter: float = 0.12,
) -> PhaseScript:
    """Nested-loop structure: an outer cycle over groups of regions.

    Regions are partitioned into ``outer_cycle`` groups; the script
    repeatedly visits each group and alternates between that group's
    regions with medium-length inner segments — the bzip2/gzip shape
    (compress / reorder / output stages, each with inner loops).

    Each region has a *characteristic* inner length drawn once; each
    visit reuses it exactly with probability ``1 - length_jitter`` and
    otherwise perturbs it by ±1-2 intervals. Real loop nests repeat
    their trip counts, which is what makes run-length-encoded phase
    history predictive (paper §5.2.3).
    """
    _check_pattern_args(num_regions, total_intervals)
    if outer_cycle <= 0:
        raise ConfigurationError(
            f"outer_cycle must be positive, got {outer_cycle}"
        )
    if not 0.0 <= length_jitter <= 1.0:
        raise ConfigurationError(
            f"length_jitter must be in [0, 1], got {length_jitter}"
        )
    groups: List[List[int]] = [[] for _ in range(min(outer_cycle, num_regions))]
    for region in range(num_regions):
        groups[region % len(groups)].append(region)
    characteristic = {
        region: _draw_length(rng, inner_min, inner_max)
        for region in range(num_regions)
    }

    segments: List[Segment] = []
    produced = 0
    group_index = 0
    while produced < total_intervals:
        group = groups[group_index % len(groups)]
        # Visit each region of the group once per outer iteration.
        for region in group:
            if produced >= total_intervals:
                break
            length = characteristic[region]
            if rng.random() < length_jitter:
                length = max(length + int(rng.integers(-2, 3)), 1)
            length = min(length, total_intervals - produced)
            segments.append(Segment(region, length))
            produced += length
        group_index += 1
    return PhaseScript(segments).coalesced()


def irregular_pattern(
    rng: np.random.Generator,
    num_regions: int,
    total_intervals: int,
    min_length: int = 2,
    max_length: int = 12,
    revisit_bias: float = 0.3,
    length_jitter: float = 0.5,
) -> PhaseScript:
    """Many short segments in near-random order (the gcc shape).

    ``revisit_bias`` is the probability that the next segment re-uses
    one of the two most recently seen regions (programs do loop), the
    rest of the mass is spread uniformly. Segment lengths are mostly a
    per-region characteristic (compiler passes take similar time per
    function) with ``length_jitter`` probability of a fresh draw.
    """
    _check_pattern_args(num_regions, total_intervals)
    if not 0.0 <= revisit_bias <= 1.0:
        raise ConfigurationError(
            f"revisit_bias must be in [0, 1], got {revisit_bias}"
        )
    if not 0.0 <= length_jitter <= 1.0:
        raise ConfigurationError(
            f"length_jitter must be in [0, 1], got {length_jitter}"
        )
    characteristic = [
        _draw_length(rng, min_length, max_length)
        for _ in range(num_regions)
    ]
    segments: List[Segment] = []
    produced = 0
    recent: List[int] = []
    current = int(rng.integers(num_regions))
    while produced < total_intervals:
        if rng.random() < length_jitter:
            length = _draw_length(rng, min_length, max_length)
        else:
            length = characteristic[current]
        length = min(length, total_intervals - produced)
        segments.append(Segment(current, length))
        produced += length
        if current in recent:
            recent.remove(current)
        recent.append(current)
        recent = recent[-2:]

        if recent and rng.random() < revisit_bias:
            nxt = int(rng.choice(recent))
        else:
            nxt = int(rng.integers(num_regions))
        if nxt == current and num_regions > 1:
            nxt = (nxt + 1) % num_regions
        current = nxt
    return PhaseScript(segments).coalesced()


def alternating_pattern(
    rng: np.random.Generator,
    num_regions: int,
    total_intervals: int,
    period_min: int = 10,
    period_max: int = 40,
) -> PhaseScript:
    """Strictly periodic rotation through the regions (galgel shape)."""
    _check_pattern_args(num_regions, total_intervals)
    segments: List[Segment] = []
    produced = 0
    region = 0
    period = _draw_length(rng, period_min, period_max)
    while produced < total_intervals:
        length = min(period, total_intervals - produced)
        segments.append(Segment(region, length))
        produced += length
        region = (region + 1) % num_regions
    return PhaseScript(segments).coalesced()


def _check_pattern_args(num_regions: int, total_intervals: int) -> None:
    if num_regions <= 0:
        raise ConfigurationError(
            f"num_regions must be positive, got {num_regions}"
        )
    if total_intervals <= 0:
        raise ConfigurationError(
            f"total_intervals must be positive, got {total_intervals}"
        )
