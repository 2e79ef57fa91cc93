"""The correctness oracle: the scalar ``PhaseTracker`` fed the same
requests, its answers encoded per the wire protocol.

For every request a connection sent, the oracle produces the exact
bytes the service must answer with: one interval push per boundary,
then the response. A connection's received bytes are compared with
that stream request by request; a missing, refused or different answer
counts against the request.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence

from repro.api import ClassifierConfig, PhaseTracker

from inputs import CPI, OBSERVE, OPEN, PREDICT, Plan, Request


def _line(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


class Oracle:
    """Expected answers for one connection's requests, computed lazily
    in request order and cached: several runs of one plan send
    prefixes of the same request sequence."""

    def __init__(self, plan: Plan) -> None:
        self._sessions = plan.sessions
        self._trackers: Dict[str, PhaseTracker] = {}
        self._answers: List[bytes] = []
        self.pushes: List[int] = []

    def answers(self, requests: Sequence[Request]) -> List[bytes]:
        """The expected answer to each of ``requests``, which must be
        the plan's sequence from its first request on."""
        while len(self._answers) < len(requests):
            request = requests[len(self._answers)]
            pushes, answer = self._answer(request)
            self._answers.append(answer)
            self.pushes.append(pushes)
        return self._answers[:len(requests)]

    def _answer(self, request: Request):
        request_id = request.id
        name = request.session
        if request.kind == OPEN:
            params = self._sessions[name]
            config = (
                ClassifierConfig(**params["config"])
                if params["config"] else ClassifierConfig.paper_default()
            )
            self._trackers[name] = PhaseTracker(
                config, interval_instructions=params["interval"]
            )
            return 0, _line({"id": request_id, "ok": True, "result": {
                "session": name,
                "restored": False,
                "interval_instructions": params["interval"],
            }})
        tracker = self._trackers[name]
        if request.kind == OBSERVE:
            reports = tracker.observe_batch(
                request.pcs, request.counts, cpi=CPI
            )
            lines = [
                _line({"push": "interval", "session": name,
                       "report": report.to_dict()})
                for report in reports
            ]
            lines.append(_line({"id": request_id, "ok": True, "result": {
                "intervals": len(reports), "branches": request.records,
            }}))
            return len(reports), b"".join(lines)
        assert request.kind == PREDICT
        pending = tracker.next_phase.pending_prediction
        return 0, _line({"id": request_id, "ok": True, "result": {
            "session": name,
            "intervals": tracker.intervals_observed,
            "current_phase": tracker.current_phase,
            "predicted_next_phase":
                pending.phase_id if pending is not None else None,
            "prediction_confident":
                pending.confident if pending is not None else False,
            "prediction_source":
                pending.source if pending is not None else None,
            "predicted_length_class":
                tracker.length_predictor.outstanding_prediction,
        }})


def split_answers(data: bytes) -> List[bytes]:
    """A connection's received bytes cut into per-request groups: the
    pushes before a response, plus that response."""
    groups: List[bytes] = []
    start = 0
    position = 0
    length = len(data)
    while position < length:
        end = data.find(b"\n", position)
        if end < 0:
            break
        if data.startswith(b'{"id":', position):
            groups.append(data[start:end + 1])
            start = end + 1
        position = end + 1
    return groups


def check(oracle: Oracle, requests: Sequence[Request],
          received: bytes) -> dict:
    """Compare one connection's answers with the oracle's."""
    sent = len(requests)
    expected = oracle.answers(requests)
    if received == b"".join(expected):
        return {"sent": sent, "failed": 0, "errors": 0, "missing": 0}
    groups = split_answers(received)
    errors = sum(1 for group in groups if b'"ok":false' in group)
    differ = sum(
        1 for got, want in zip(groups, expected) if got != want
    )
    missing = max(0, sent - len(groups))
    return {
        "sent": sent,
        "failed": differ + missing,
        "errors": errors,
        "missing": missing,
    }


def digest(plans: Sequence[Plan], traffic_requests: int) -> str:
    """SHA-256 of the oracle streams (connection order) over each
    plan's opens, warm-up and first ``traffic_requests`` traffic
    requests. Consumes that much of each plan's traffic."""
    hasher = hashlib.sha256()
    for plan in plans:
        requests = (plan.opens + plan.warmup
                    + plan.traffic.take(traffic_requests))
        for answer in Oracle(plan).answers(requests):
            hasher.update(answer)
    return hasher.hexdigest()
