"""Layer spans for the benchmark's traced run.

``sitecustomize.py`` in this directory calls :func:`install` at start-up
of every Python process whose environment names a trace directory in
``PERFBENCH_TRACE_DIR`` (the benchmark puts this directory first on the
traced server's ``PYTHONPATH``; a cluster worker inherits both). The
wrappers time calls into each layer's public synchronous functions.
None of them yields to the event loop, so a span's duration is time the
server thread spent inside that layer; its *self* time excludes nested
wrapped calls. Spans stay in memory and are written to
``spans-<pid>.bin`` when the process exits after its SIGTERM drain.

The benchmark reads the files back with :func:`load` and sums the
spans that started inside a phase window with :func:`summarize`. Phases
are separated by quiet gaps (every request of a phase is answered
before the next phase starts), so a window holds exactly one phase's
spans.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

ENV = "PERFBENCH_TRACE_DIR"

#: Span kinds, in file order. A kind's layer decides nesting: a span
#: inside another span of the same layer adds self time but is not a
#: separate call (``PooledTracker.observe_batch`` calling
#: ``TrackerPool.observe_batch`` is one observe).
KINDS: Tuple[Tuple[str, str], ...] = (
    ("decode", "protocol"),
    ("encode", "protocol.encode"),
    ("lookup", "session"),
    ("observe", "core.observe"),
    ("fanin", "core.observe"),
    ("accumulate", "core.accumulate"),
    ("signature", "core.signature"),
    ("match", "core.match"),
    ("predict", "prediction"),
    ("log", "persistence.log"),
    ("append", "persistence.append"),
    ("fsync", "persistence.fsync"),
    ("checkpoint", "persistence.checkpoint"),
    ("emit", "telemetry"),
    ("unix_write", "socket"),
)
KIND = {name: index for index, (name, _) in enumerate(KINDS)}
_LAYERS = sorted({layer for _, layer in KINDS})
_LAYER_OF = [_LAYERS.index(layer) for _, layer in KINDS]
#: Added to a recorded kind when the span is nested in its own layer.
NESTED = 64

clock = time.perf_counter


class Recorder:
    """In-memory span store: parallel arrays, one entry per span."""

    def __init__(self) -> None:
        self.kinds = array("B")
        self.starts = array("d")
        self.selfs = array("d")
        self.q1 = array("q")
        self.q2 = array("q")
        self.q3 = array("q")
        self.stack: List[float] = []
        self.depth = [0] * len(_LAYERS)

    def timed(self, kind: str, fn: Callable,
              measure: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span of ``kind``. ``measure(args, kwargs,
        result)`` returns up to three counts for an outermost span."""
        code = KIND[kind]
        layer = _LAYER_OF[code]
        depth, stack = self.depth, self.stack
        kinds, starts, selfs = self.kinds, self.starts, self.selfs
        q1, q2, q3 = self.q1, self.q2, self.q3

        def wrapper(*args, **kwargs):
            outer = not depth[layer]
            depth[layer] += 1
            stack.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                child = stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1] += duration
                counts = (
                    measure(args, kwargs, result)
                    if outer and measure is not None else (0, 0, 0)
                )
                kinds.append(code if outer else code + NESTED)
                starts.append(start)
                selfs.append(duration - child)
                q1.append(counts[0])
                q2.append(counts[1])
                q3.append(counts[2])

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", kind)
        return wrapper

    def counted(self, kind: str, fn: Callable,
                measure: Callable) -> Callable:
        """Count calls of ``fn`` without timing them: the call's time
        stays with its caller. ``measure`` returns a count, or ``None``
        to skip the call."""
        code = KIND[kind]
        kinds, starts, selfs = self.kinds, self.starts, self.selfs
        q1, q2, q3 = self.q1, self.q2, self.q3

        def wrapper(*args, **kwargs):
            count = measure(args, kwargs)
            if count is not None:
                kinds.append(code)
                starts.append(clock())
                selfs.append(0.0)
                q1.append(count)
                q2.append(0)
                q3.append(0)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, directory: str) -> str:
        path = os.path.join(directory, f"spans-{os.getpid()}.bin")
        header = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "kinds": [name for name, _ in KINDS],
            "count": len(self.kinds),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in self._columns():
                column.tofile(handle)
        return path

    def _columns(self):
        return (self.kinds, self.starts, self.selfs,
                self.q1, self.q2, self.q3)


def _length(position: int, keyword: str):
    def measure(args, kwargs, result):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        return len(value), 0, 0
    return measure


def _observe(position: int):
    def measure(args, kwargs, result):
        pcs = kwargs["pcs"] if "pcs" in kwargs else args[position]
        return len(pcs), len(result) if result is not None else 0, 0
    return measure


def _fanin(args, kwargs, result):
    segments = kwargs["segments"] if "segments" in kwargs else args[1]
    records = sum(len(segment[1]) for segment in segments)
    reports = sum(len(r) for r in result) if result is not None else 0
    return records, reports, len(segments)


def _result_length(args, kwargs, result):
    return (len(result) if result is not None else 0), 0, 0


def _one_slot(args, kwargs, result):
    return 1, 0, 0


def _unix_write(args, kwargs):
    import socket

    writer, data = args[0], args[1]
    sock = writer.get_extra_info("socket")
    if sock is None or sock.family != socket.AF_UNIX:
        return None
    return len(data)


def install(recorder: Recorder) -> None:
    """Wrap every layer's public synchronous entry points."""
    import asyncio.streams

    from repro.core.accumulator import AccumulatorTable
    from repro.core.bitselect import BitSelector
    from repro.core.classifier import PhaseClassifier
    from repro.core.online import PhaseTracker
    from repro.core.pool import ClassifierPool, PooledTracker, TrackerPool
    from repro.persistence.journal import Journal
    from repro.persistence.manager import PersistenceManager
    from repro.prediction.composite import CompositePhasePredictor
    from repro.prediction.length import PhaseLengthPredictor
    from repro.service import protocol
    from repro.service.session import SessionRegistry
    from repro.telemetry import Telemetry

    def wrap(owner, name: str, kind: str, measure=None) -> None:
        setattr(owner, name,
                recorder.timed(kind, getattr(owner, name), measure))

    wrap(protocol, "parse_request", "decode", _length(0, "line"))
    wrap(protocol, "encode", "encode", _result_length)
    for name in ("get", "open", "close"):
        wrap(SessionRegistry, name, "lookup")
    wrap(PhaseTracker, "observe_batch", "observe", _observe(1))
    wrap(PooledTracker, "observe_batch", "observe", _observe(1))
    wrap(TrackerPool, "observe_batch", "observe", _observe(2))
    wrap(TrackerPool, "observe_fanin", "fanin", _fanin)
    wrap(AccumulatorTable, "update_batch", "accumulate")
    wrap(ClassifierPool, "ingest", "accumulate")
    wrap(BitSelector, "compress", "signature")
    wrap(ClassifierPool, "form_signatures", "signature")
    wrap(PhaseClassifier, "classify_signature", "match", _one_slot)
    wrap(ClassifierPool, "classify", "match", _length(1, "slots"))
    wrap(CompositePhasePredictor, "step", "predict")
    wrap(CompositePhasePredictor, "predict", "predict")
    wrap(PhaseLengthPredictor, "advance", "predict")
    wrap(PersistenceManager, "log_open", "log")
    wrap(PersistenceManager, "log_observe", "log", _length(2, "pcs"))
    wrap(PersistenceManager, "log_close", "log")
    wrap(Journal, "append", "append")
    wrap(os, "fsync", "fsync")
    wrap(PersistenceManager, "checkpoint_all", "checkpoint")
    wrap(Telemetry, "emit", "emit")
    asyncio.streams.StreamWriter.write = recorder.counted(
        "unix_write", asyncio.streams.StreamWriter.write, _unix_write
    )


def install_from_env() -> Optional[Recorder]:
    directory = os.environ.get(ENV)
    if not directory:
        return None
    recorder = Recorder()
    install(recorder)
    atexit.register(recorder.dump, directory)
    return recorder


# -- reading spans back (benchmark side) --------------------------------------


def load(path: str) -> Tuple[dict, Dict[str, array]]:
    """One ``spans-<pid>.bin`` file: its header and its columns."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        columns = {}
        for name, code in (("kinds", "B"), ("starts", "d"), ("selfs", "d"),
                           ("q1", "q"), ("q2", "q"), ("q3", "q")):
            column = array(code)
            column.fromfile(handle, count)
            columns[name] = column
    return header, columns


def summarize(columns: Dict[str, array], start: float, end: float
              ) -> Dict[str, Dict[str, float]]:
    """Per-kind totals over spans that started in ``[start, end]``:
    ``self_s`` (all spans), and ``calls``/``q1``/``q2``/``q3`` (outermost
    spans of their layer only)."""
    totals = {
        name: {"self_s": 0.0, "calls": 0, "q1": 0, "q2": 0, "q3": 0}
        for name, _ in KINDS
    }
    kinds, starts, selfs = columns["kinds"], columns["starts"], columns["selfs"]
    q1, q2, q3 = columns["q1"], columns["q2"], columns["q3"]
    for index in range(len(kinds)):
        if not start <= starts[index] <= end:
            continue
        code = kinds[index]
        entry = totals[KINDS[code % NESTED][0]]
        entry["self_s"] += selfs[index]
        if code < NESTED:
            entry["calls"] += 1
            entry["q1"] += q1[index]
            entry["q2"] += q2[index]
            entry["q3"] += q3[index]
    return totals
