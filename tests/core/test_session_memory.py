"""A session holds the size of its state, not of its age.

The paper's tracker is a fixed store: 7,520 bits for the paper-default
classifier, change and length tables. A session here keeps the same
tables as arrays and flat columns (DESIGN §15), so its memory is close
to full once its tables fill, however long it then runs. The bounds
sit between that layout and the object-per-entry layout it replaced,
which measured 22.6 and 44.2 KiB per session on these streams (Python
3.11); they leave room for the object sizes of Python 3.9 to 3.12.
"""

import gc
import tracemalloc

import pytest

from tests.core.test_long_run_identity import fleet_observes, tracker_for

SESSIONS = 64

#: Observes per session -> bound on traced KiB per session.
BOUNDS_KIB = {80: 18.0, 400: 30.0}


@pytest.fixture(scope="module")
def per_session_kib():
    """Traced memory that ``SESSIONS`` paper-default sessions keep,
    per session, after each count of fleet-shaped observes in
    :data:`BOUNDS_KIB`. One pass drives every session to each count
    in turn."""
    counts = sorted(BOUNDS_KIB)
    streams = [
        list(fleet_observes(seed, counts[-1])) for seed in range(SESSIONS)
    ]
    # First-use allocations (numpy's, the interpreter's) stay outside
    # the count.
    warm = tracker_for("paper_default")
    for pcs, instructions, cpi in streams[0][:8]:
        warm.observe_batch(pcs, instructions, cpi=cpi)
    measured = {}
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trackers = [tracker_for("paper_default") for _ in streams]
        done = 0
        for count in counts:
            for tracker, stream in zip(trackers, streams):
                for pcs, instructions, cpi in stream[done:count]:
                    tracker.observe_batch(pcs, instructions, cpi=cpi)
            done = count
            gc.collect()
            used = tracemalloc.get_traced_memory()[0] - base
            measured[count] = used / SESSIONS / 1024
    finally:
        tracemalloc.stop()
    return measured


@pytest.mark.parametrize("observes", sorted(BOUNDS_KIB))
def test_session_memory_is_bounded(per_session_kib, observes):
    assert per_session_kib[observes] <= BOUNDS_KIB[observes]
