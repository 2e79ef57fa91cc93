"""The benchmark's own tests.

Run from the repository root::

    python3 perfbench/selftest.py

(``python3 -m pytest perfbench/selftest.py`` collects the same tests.)
They start real ``serve`` processes on tiny instances of each workload
and take about a minute.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), os.path.join(HERE, "tracehook"),
             HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from inputs import Shape, build_plans, load_spec, plan_bytes  # noqa: E402
from oracle import Oracle  # noqa: E402
from percentiles import InsufficientSamples, percentile  # noqa: E402

SPEC = load_spec()

#: Tiny instances: a handful of sessions, small observes, and a paced
#: rate that still yields enough samples for a p99 in one second.
TINY = {
    "fleet": dict(sessions=8, warmup_sessions=2, warmup_requests=20,
                  paced_rate=1100),
    "stream": dict(records=200, interval=10_000, warmup_requests=4,
                   paced_rate=1100),
    "cluster": dict(sessions=8, warmup_sessions=2, warmup_requests=20,
                    paced_rate=1100),
}


def test_same_seed_yields_identical_requests():
    for name, overrides in TINY.items():
        shape = Shape.from_spec(name, SPEC, **overrides)
        foreign = SPEC["foreign_config"]
        first = plan_bytes(build_plans(shape, 7, foreign), 60)
        again = plan_bytes(build_plans(shape, 7, foreign), 60)
        other = plan_bytes(build_plans(shape, 8, foreign), 60)
        assert first == again, name
        assert first != other, name
        # A longer run starts with the same requests.
        shorter = plan_bytes(build_plans(shape, 7, foreign)[:1], 60)
        longer = plan_bytes(build_plans(shape, 7, foreign)[:1], 90)
        assert longer.startswith(shorter) and longer != shorter, name


def test_streams_exercise_the_classifier():
    """Boundaries must hit the table, allocate phases, land in the
    transition phase and change phase — not one constant signature."""
    shape = Shape.from_spec("fleet", SPEC, sessions=8)
    plan = build_plans(shape, 1, SPEC["foreign_config"])[0]
    oracle = Oracle(plan)
    answers = b"".join(oracle.answers(
        plan.opens + plan.warmup + plan.traffic.take(1000)
    ))
    assert sum(oracle.pushes) > 200
    assert b'"is_transition":true' in answers
    assert b'"new_phase_allocated":true' in answers
    assert b'"phase_changed":true' in answers
    assert b'"prediction_source":"table"' in answers


def test_metric_names_match_benchmark_json():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in declared[section]} == units
    assert {w["name"] for w in declared["workloads"]} <= set(
        SPEC["workloads"])


def test_percentile_refuses_thin_tails():
    values = list(range(1000))
    assert percentile(values, 99) == 989
    assert percentile(values, 50) == 499
    try:
        percentile(values[:999], 99)
    except InsufficientSamples:
        pass
    else:
        raise AssertionError("p99 of 999 samples must be refused")


def test_oracle_matches_service_on_tiny_workloads():
    for name, overrides in TINY.items():
        result, record = run.run_workload(
            SPEC, name, seed=3, seconds=2.0, trace=0,
            shape_overrides=overrides,
        )
        assert result["correct"], (name, record["problems"])
        assert result["failed"] == 0 and result["attempted"] > 1000, name
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS), name


def test_tiny_traced_run_budget_closes():
    for name, overrides in TINY.items():
        result, record = run.run_workload(
            SPEC, name, seed=4, seconds=1.0, trace=1,
            shape_overrides=overrides,
        )
        assert result["correct"], (name, record["problems"])
        assert set(result["metrics"]) == set(run.PER_LAYER_UNITS), name
        budget = dict(record["budget_s"])
        layers = record["layers"]
        wall = layers["server.wall_s"]
        loop = budget.pop("server.loop_s")
        assert loop == layers["server.loop_s"], name
        assert all(seconds >= 0 for seconds in budget.values()), budget
        assert sum(budget.values()) <= wall, (name, budget, wall)
        assert loop >= 0, (name, loop)
        counts = record["traced_counts"]
        assert layers["core.records"] == counts["records"], name
        assert layers["core.boundaries"] == counts["boundaries"], name
        assert layers["core.observe_calls"] == counts["observes"], name
        assert layers["protocol.decode_calls"] == counts["requests"], name
        assert layers["session.lookups"] == (
            counts["observes"] + counts["predicts"]), name
        assert layers["prediction.calls"] >= counts["boundaries"], name
        if name != "cluster":  # cluster workers run without telemetry
            assert layers["telemetry.emit_calls"] == counts["boundaries"]
        assert not [flag for flag in record["flags"]
                    if flag.startswith("trace budget")], record["flags"]


def main() -> int:
    tests = [value for key, value in sorted(globals().items())
             if key.startswith("test_") and callable(value)]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception as error:  # report every test, then fail
            failed += 1
            print(f"FAIL {test.__name__}: {error!r}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
