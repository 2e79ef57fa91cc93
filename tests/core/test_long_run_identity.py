"""Long-run byte identity: 400 fleet-shaped observes per configuration.

The oracle digests cover only the first few dozen boundaries of a
session, before its change table has evicted anything. These digests
cover a session long enough to fill and churn every table: signature
table, change table and length table. A table layout that moves a way
to another set, reorders the signature rows or loses an LRU stamp
changes some report or the final export, and with it the digest.

The stream is generated here, with its own integer generator, so
neither the library's workloads nor numpy's random streams can move
it: each session alternates between three PC regions (a loop over a
body of 6 to 16 branches, a tenth of the records off the loop) in runs
of several intervals, with a mixed stretch between runs. An observe is
40 records of 50 to 150 instructions against a 4,000-instruction
interval, about one boundary per observe, and its CPI follows the
region with occasional spikes, so the adaptive classifier halves
thresholds.

The digests were recorded before the tables moved to their array
layout and never change. ``long_run_snapshots.json`` holds snapshots
exported by that layout at observe 200 of seed 1's session; each must
restore and continue to the digest recorded with it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Tuple

import pytest

from repro.core import ClassifierConfig, PhaseTracker
from repro.prediction import MarkovChangePredictor, RLEChangePredictor
from repro.service.snapshot import (
    dumps,
    loads,
    restore_tracker,
    snapshot_tracker,
)

OBSERVES = 400
RECORDS = 40
INTERVAL = 4_000
REGIONS = 3
HOT_PCS = 24
MIN_COUNT, MAX_COUNT = 50, 150
#: Per-region CPI; a mixed stretch takes the mean of its two regions.
REGION_CPI = (1.0, 1.75, 0.625)
SEEDS = (1, 2)

_MASK = (1 << 64) - 1


class SplitMix64:
    """A 64-bit integer generator (splitmix64): the same stream on
    every Python and numpy version."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next() % bound

    def between(self, low: int, high: int) -> int:
        """An integer in ``[low, high]``."""
        return low + self.below(high - low + 1)


Observe = Tuple[List[int], List[int], float]


def fleet_observes(seed: int, count: int = OBSERVES) -> Iterator[Observe]:
    """``count`` observes of one session: (pcs, counts, cpi) each."""
    rng = SplitMix64(seed)
    base = 0x400000 + (seed % 64) * 0x100000
    region_pcs = [
        [base + region * 0x10000 + 4 * rng.below(4096)
         for _ in range(HOT_PCS)]
        for region in range(REGIONS)
    ]
    bodies = []
    for pcs in region_pcs:
        length = rng.between(6, 16)
        bodies.append([
            (pcs[rng.below(HOT_PCS)], rng.between(MIN_COUNT, MAX_COUNT))
            for _ in range(length)
        ])
    runs = [rng.between(3, 12) for _ in range(REGIONS)]
    positions = [0] * REGIONS

    def record(region: int) -> Tuple[int, int]:
        if rng.below(10) == 0:
            return (region_pcs[region][rng.below(HOT_PCS)],
                    rng.between(MIN_COUNT, MAX_COUNT))
        body = bodies[region]
        pc, instructions = body[positions[region] % len(body)]
        positions[region] += 1
        return pc, instructions

    def observe(regions: Tuple[int, ...]) -> Observe:
        pcs, counts = [], []
        for index in range(RECORDS):
            pc, instructions = record(regions[index % len(regions)])
            pcs.append(pc)
            counts.append(instructions)
        cpi = sum(REGION_CPI[region] for region in regions) / len(regions)
        if rng.below(16) == 0:
            cpi *= 1.5
        return pcs, counts, cpi

    region = rng.below(REGIONS)
    emitted = 0
    while True:
        # One in four runs leaves the cycle or its usual run length.
        length = runs[region] if rng.below(4) else rng.between(1, 12)
        following = (
            (region + 1) % REGIONS if rng.below(4)
            else rng.below(REGIONS)
        )
        stretch = [(region,)] * length
        if following != region:
            stretch += [(region, following)] * rng.between(1, 2)
        for regions in stretch:
            if emitted == count:
                return
            yield observe(regions)
            emitted += 1
        region = following


_PAPER = ClassifierConfig.paper_default()

#: name -> (classifier configuration, change-predictor factory).
CONFIGURATIONS: Dict[str, Tuple[ClassifierConfig, Callable]] = {
    "paper_default": (_PAPER, lambda: RLEChangePredictor(2)),
    "foreign": (
        ClassifierConfig(table_entries=16, min_count_threshold=4),
        lambda: RLEChangePredictor(2),
    ),
    "table_entries_4": (
        replace(_PAPER, table_entries=4), lambda: RLEChangePredictor(2)
    ),
    "table_entries_none": (
        replace(_PAPER, table_entries=None), lambda: RLEChangePredictor(2)
    ),
    "match_first": (
        replace(_PAPER, match_policy="first"), lambda: RLEChangePredictor(2)
    ),
    "static_bits": (
        replace(_PAPER, bit_selector="static", static_low_bit=4),
        lambda: RLEChangePredictor(2),
    ),
    "markov1_top4": (
        _PAPER, lambda: MarkovChangePredictor(1, entry_kind="top4")
    ),
    "rle2_last4": (
        _PAPER, lambda: RLEChangePredictor(2, entry_kind="last4")
    ),
}

DIGESTS = {
    "paper_default": (
        "dedbab2d0c292cb451f37e1707c0bb9d"
        "d12cc9431a91f44dfab66c74559cf46a"
    ),
    "foreign": (
        "237beaf32486d6c7ad41e272fc2460ad"
        "760daac84245710cffdc0fcac9ce325d"
    ),
    "table_entries_4": (
        "00b85a579bfaf0adc2f1317b67113261"
        "871500d268aa4a260dd0c6ae457497f9"
    ),
    "table_entries_none": (
        "97936ff115ae4410adfe48b7b9a4340f"
        "1e59dd45767ed0825f18b894e6ab7275"
    ),
    "match_first": (
        "953d96a3face251bc4760f7fbebf9ab6"
        "8152b03c62fedf30ffa4f1ad792cce54"
    ),
    "static_bits": (
        "b0d039b37b5bb3de041c9062cd49a776"
        "57795a81e636f842ab6209c25d8553c1"
    ),
    "markov1_top4": (
        "278c3eb3496b8e14ea45bb17a2019014"
        "d90ff0ae47bec4a1e6196b4ecc33f31e"
    ),
    "rle2_last4": (
        "7a0e6e83488e23dbd9a981ce63d6fd49"
        "0cd68f0c143da4f878526a0823d5720b"
    ),
}


#: Seed 1's session from observe 200 on, restored from the snapshot
#: that the object layout exported there.
CONTINUATION_DIGESTS = {
    "markov1_top4": (
        "eca481b0338faa45935ae722a6564201"
        "ab72285694b28e0328ee56ce34717abb"
    ),
    "paper_default": (
        "fe5a3cc48c972d9bc540ba7985e2479e"
        "08415adb53025f0e0da540c1e33aa9e9"
    ),
    "rle2_last4": (
        "c424535af919462c22f0bbd9eb10484a"
        "07784b33d9a2c5ba8e6dd5bfc38d5276"
    ),
}
SNAPSHOTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "long_run_snapshots.json"
)


def _canonical(payload: object) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def tracker_for(name: str) -> PhaseTracker:
    config, change_predictor = CONFIGURATIONS[name]
    return PhaseTracker(
        config, interval_instructions=INTERVAL,
        change_predictor=change_predictor(),
    )


def drive(
    tracker: PhaseTracker, seed: int, start: int = 0, restore_at: int = -1
) -> Tuple[str, PhaseTracker]:
    """Feed ``tracker`` observes ``start`` onwards of session ``seed``;
    returns the sha256 over the reports and the final export, and the
    tracker. At observe ``restore_at`` the session moves to a tracker
    restored from its snapshot's JSON text."""
    digest = hashlib.sha256()
    for index, (pcs, counts, cpi) in enumerate(fleet_observes(seed)):
        if index < start:
            continue
        if index == restore_at:
            tracker = restore_tracker(loads(dumps(snapshot_tracker(tracker))))
        for report in tracker.observe_batch(pcs, counts, cpi=cpi):
            digest.update(_canonical(report.to_dict()))
    digest.update(_canonical(tracker.export_state()))
    return digest.hexdigest(), tracker


def run(
    name: str, seed: int, restore_at: int = -1
) -> Tuple[str, PhaseTracker]:
    """One whole session of configuration ``name``."""
    return drive(tracker_for(name), seed, restore_at=restore_at)


def session_digest(name: str, restore_at: int = -1) -> str:
    """One digest over every seed's session."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        digest.update(run(name, seed, restore_at)[0].encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_long_run_digest(name):
    assert session_digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_restored_mid_run_reaches_the_same_digest(name):
    assert session_digest(name, restore_at=OBSERVES // 2) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONTINUATION_DIGESTS))
def test_an_older_snapshot_continues_to_its_digest(name):
    with open(SNAPSHOTS, encoding="utf-8") as handle:
        document = json.load(handle)[name]
    tracker = restore_tracker(document)
    assert drive(tracker, SEEDS[0], start=OBSERVES // 2)[0] == (
        CONTINUATION_DIGESTS[name]
    )


def test_the_stream_churns_every_table():
    """The digests pin eviction and adaptive paths only if the stream
    reaches them."""
    _, paper = run("paper_default", SEEDS[0])
    assert paper.next_phase.change_predictor.table.evictions > 0
    assert paper.length_predictor.table.evictions > 0
    entries = paper.export_state()["classifier"]["table"]["entries"]
    assert any(
        entry["threshold"] < _PAPER.similarity_threshold for entry in entries
    )
    _, small = run("table_entries_4", SEEDS[0])
    assert small.classifier.table.evictions > 0
