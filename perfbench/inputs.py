"""Deterministic request streams for the service benchmark.

Every request a run sends is generated here from ``--seed``. The
generator is the benchmark's own: the library's ``repro.workloads`` is
not used, so a library change cannot change the inputs.

Each session's branch stream has phase structure. A session owns a few
disjoint PC regions, each a noisy loop over a body of its branches, and
the stream alternates between them: a run of several intervals in one
region, then a short mixed stretch drawing from the outgoing and the
incoming region. Regions mostly follow a fixed cycle with run lengths
of their own, and sometimes break it. Boundaries therefore hit
existing table entries, allocate new phases, land in the transition
phase and train both predictors.

Streams and traffic are endless and made on demand. A stream is built
one segment (a run plus its mixed stretch) at a time, each segment from
a generator seeded by ``(seed, tag, session, segment)``, so the first
``n`` requests of a seed are the same however many a run goes on to
send. The benchmark prepares each timed phase's requests with
:meth:`Traffic.prepare` before that phase's clock starts.

A connection's requests form one ordered plan: the opens of all its
sessions, an untimed warm-up on sessions of its own, then the traffic
that the saturated phase sends a prefix of and the paced phase
continues.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")

#: Disjoint PC regions per session, hot PCs per region, the length of
#: a region's loop body, and the share of records off the loop.
REGIONS = 3
HOT_PCS = 24
BODY = (6, 16)
NOISE = 0.1
#: Instruction counts per branch record are uniform in [50, 150].
MIN_COUNT, MAX_COUNT = 50, 150
MEAN_COUNT = (MIN_COUNT + MAX_COUNT) // 2
#: Run length in intervals of one region, and of a mixed stretch; the
#: share of segments that leave the region cycle and its run lengths.
RUN_INTERVALS = (3, 12)
MIX_INTERVALS = (1, 2)
VARY = 0.25
CPI = 1.0

#: Request kinds in a plan.
OPEN, OBSERVE, PREDICT = 0, 1, 2


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Shape:
    """One workload's traffic shape (see ``spec.json``)."""

    name: str
    connections: int
    sessions: int
    records: int
    interval: int
    predict_every: int
    foreign_every: int
    warmup_sessions: int
    warmup_requests: int
    depth: int
    data_dir: bool
    workers: Optional[int]
    paced_rate: float

    @classmethod
    def from_spec(cls, name: str, spec: dict, **overrides) -> "Shape":
        entry = dict(spec["workloads"][name])
        entry.pop("why", None)
        entry.pop("oracle_digest", None)
        entry.update(overrides)
        return cls(name=name, **entry)


class SessionStream:
    """One session's endless phase-structured ``(pcs, counts)`` stream.

    Each region is a loop: a fixed body of branches, each with its own
    instruction count, repeated, with a share of records replaced by a
    random branch of the region. Intervals inside one region therefore
    give nearby signatures, and mixed stretches give signatures of
    their own.

    Deterministic in ``(seed, tag, index)`` alone, so a session's
    stream does not depend on how many sessions the run has or how far
    it reads.
    """

    def __init__(self, seed: int, tag: int, index: int, interval: int):
        rng = np.random.default_rng([seed, tag, index])
        self._key = (seed, tag, index)
        self._per_interval = max(1, interval // MEAN_COUNT)
        base = 0x400000 + (index % 64) * 0x100000
        self._region_pcs = [
            base + region * 0x10000
            + 4 * np.sort(rng.choice(4096, HOT_PCS, replace=False))
            for region in range(REGIONS)
        ]
        self._runs = rng.integers(RUN_INTERVALS[0], RUN_INTERVALS[1] + 1,
                                  size=REGIONS)
        self._bodies = []
        for pcs in self._region_pcs:
            length = int(rng.integers(BODY[0], BODY[1] + 1))
            weights = rng.dirichlet(np.full(HOT_PCS, 0.5))
            self._bodies.append((
                rng.choice(pcs, size=length, p=weights),
                rng.integers(MIN_COUNT, MAX_COUNT + 1, size=length),
            ))
        self._region = int(rng.integers(REGIONS))
        self._segment = 0
        self._pcs = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._position = 0

    def _loop(self, rng, region: int, size: int):
        """``size`` records of ``region``'s loop from a random point of
        its body, a ``NOISE`` share replaced by random branches."""
        body_pcs, body_counts = self._bodies[region]
        at = (int(rng.integers(len(body_pcs))) + np.arange(size)) % len(
            body_pcs)
        pcs, counts = body_pcs[at], body_counts[at]
        noisy = rng.random(size) < NOISE
        hits = int(noisy.sum())
        pcs[noisy] = rng.choice(self._region_pcs[region], size=hits)
        counts[noisy] = rng.integers(MIN_COUNT, MAX_COUNT + 1, size=hits)
        return pcs, counts

    def _next_segment(self) -> Tuple[np.ndarray, np.ndarray]:
        """A run of several intervals in the current region, then a
        mixed stretch into the following one. Regions usually follow
        in a fixed cycle with a run length of their own (a pattern the
        phase-change predictor can learn), and otherwise vary."""
        rng = np.random.default_rng([*self._key, self._segment])
        self._segment += 1
        region = self._region
        following = (region + 1) % REGIONS
        run = int(self._runs[region])
        if rng.random() < VARY:
            following = (region + int(rng.integers(1, REGIONS))) % REGIONS
            run = int(rng.integers(RUN_INTERVALS[0], RUN_INTERVALS[1] + 1))
        mix = int(rng.integers(MIX_INTERVALS[0], MIX_INTERVALS[1] + 1))
        n_mix = mix * self._per_interval
        run_pcs, run_counts = self._loop(rng, region, run * self._per_interval)
        out_pcs, out_counts = self._loop(rng, region, n_mix)
        in_pcs, in_counts = self._loop(rng, following, n_mix)
        incoming = rng.random(n_mix) < 0.5
        self._region = following
        return (
            np.concatenate([run_pcs, np.where(incoming, in_pcs, out_pcs)]),
            np.concatenate([run_counts,
                            np.where(incoming, in_counts, out_counts)]),
        )

    def take(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next ``n`` records (views into the stream's buffer)."""
        if len(self._pcs) - self._position < n:
            pcs = [self._pcs[self._position:]]
            counts = [self._counts[self._position:]]
            have = len(pcs[0])
            while have < n:
                more_pcs, more_counts = self._next_segment()
                pcs.append(more_pcs)
                counts.append(more_counts)
                have += len(more_pcs)
            self._pcs = np.concatenate(pcs)
            self._counts = np.concatenate(counts)
            self._position = 0
        start = self._position
        self._position += n
        return self._pcs[start:start + n], self._counts[start:start + n]


@dataclass
class Request:
    """One planned request: its wire line plus what the oracle needs."""

    kind: int
    session: str
    id: int
    line: bytes
    records: int = 0
    pcs: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None


class Traffic:
    """One connection's endless request sequence.

    :meth:`prepare` makes requests ahead into a ready queue (before a
    phase's clock starts); :meth:`next` hands them out in order and,
    should the queue run dry inside a phase, makes one on the spot and
    counts it in ``made_late``.
    """

    def __init__(self, requests: Iterator[Request]) -> None:
        self._requests = requests
        self._ready: Deque[Request] = deque()
        self.made_late = 0

    def prepare(self, count: int) -> None:
        """Make requests ahead until ``count`` are ready."""
        while len(self._ready) < count:
            self._ready.append(next(self._requests))

    def next(self) -> Request:
        if self._ready:
            return self._ready.popleft()
        self.made_late += 1
        return next(self._requests)

    def take(self, count: int) -> List[Request]:
        self.prepare(count)
        return [self._ready.popleft() for _ in range(count)]


@dataclass
class Plan:
    """One traffic connection's requests, in send order."""

    opens: List[Request]
    warmup: List[Request]
    traffic: Traffic
    sessions: Dict[str, dict]  # name -> open parameters (oracle)
    traffic_sessions: List[str]


def _ints(values: np.ndarray) -> str:
    return ",".join(map(str, values.tolist()))


def _observe_line(request_id: int, session: str, pcs, counts) -> bytes:
    return (
        f'{{"op":"observe","id":{request_id},"session":"{session}",'
        f'"pcs":[{_ints(pcs)}],"counts":[{_ints(counts)}],'
        f'"cpi":{CPI}}}\n'
    ).encode("ascii")


def _open_line(request_id: int, session: str, config, interval) -> bytes:
    payload = {"op": "open", "id": request_id, "session": session}
    if config is not None:
        payload["config"] = config
    payload["interval_instructions"] = interval
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


class _Ids:
    def __init__(self) -> None:
        self.next = 1

    def __call__(self) -> int:
        value, self.next = self.next, self.next + 1
        return value


def _requests(
    ids: _Ids, names: List[str], streams: Dict[str, SessionStream],
    shape: Shape,
) -> Iterator[Request]:
    """Endless observes round-robin over ``names``, with a predict on
    the same session after every ``predict_every``-th."""
    observes = 0
    while True:
        name = names[observes % len(names)]
        request_id = ids()
        pcs, counts = streams[name].take(shape.records)
        yield Request(
            OBSERVE, name, request_id,
            _observe_line(request_id, name, pcs, counts),
            records=len(pcs), pcs=pcs, counts=counts,
        )
        observes += 1
        if shape.predict_every and observes % shape.predict_every == 0:
            request_id = ids()
            line = (
                f'{{"op":"predict","id":{request_id},"session":"{name}"}}\n'
            ).encode("ascii")
            yield Request(PREDICT, name, request_id, line)


def build_plans(shape: Shape, seed: int, foreign_config: dict) -> List[Plan]:
    """Every traffic connection's plan. Traffic is made on demand."""
    plans = []
    sessions_each = shape.sessions // shape.connections
    for conn in range(shape.connections):
        ids = _Ids()
        sessions: Dict[str, dict] = {}
        streams: Dict[str, SessionStream] = {}
        groups: Dict[str, List[str]] = {}
        for prefix, count, tag in (("w", shape.warmup_sessions, 1),
                                   ("s", sessions_each, 0)):
            groups[prefix] = []
            for slot in range(count):
                index = conn * count + slot
                name = f"c{conn}{prefix}{slot}"
                foreign = (
                    shape.foreign_every and index % shape.foreign_every == 0
                )
                sessions[name] = {
                    "config": dict(foreign_config) if foreign else None,
                    "interval": shape.interval,
                }
                streams[name] = SessionStream(seed, tag, index,
                                              shape.interval)
                groups[prefix].append(name)
        opens = []
        for name, params in sessions.items():
            request_id = ids()
            opens.append(Request(OPEN, name, request_id, _open_line(
                request_id, name, params["config"], params["interval"]
            )))
        warmup = Traffic(_requests(ids, groups["w"], streams, shape)).take(
            shape.warmup_requests
        )
        traffic = Traffic(_requests(ids, groups["s"], streams, shape))
        plans.append(Plan(opens, warmup, traffic, sessions, groups["s"]))
    return plans


def plan_bytes(plans: List[Plan], traffic_requests: int) -> bytes:
    """Every line of the first ``traffic_requests`` traffic requests per
    connection, after the opens and the warm-up (determinism checks).
    Consumes that much of each plan's traffic."""
    return b"".join(
        request.line
        for plan in plans
        for section in (plan.opens, plan.warmup,
                        plan.traffic.take(traffic_requests))
        for request in section
    )
