"""The service wire protocol: newline-delimited JSON messages.

Every message is one JSON object on one ``\\n``-terminated line, UTF-8
encoded. Clients send *requests*; the server answers each request with
exactly one *response* carrying the request's ``id``, and may interleave
*pushes* (server-initiated records with no ``id``) before the response.

Requests::

    {"op":"ping","id":1}
    {"op":"stats","id":2}
    {"op":"open","id":3,"session":"s1","config":{...},
     "interval_instructions":100000,"snapshot":{...}}
    {"op":"observe","id":4,"session":"s1","pcs":[...],"counts":[...],
     "cpi":1.0}
    {"op":"predict","id":5,"session":"s1"}
    {"op":"snapshot","id":6,"session":"s1"}
    {"op":"close","id":7,"session":"s1"}
    {"op":"cluster","id":8,"action":"status","params":{}}

An observe's ``pcs`` and ``counts`` are equal-length lists of JSON
integers in ``[0, 2**63)`` and its ``cpi`` a finite positive number;
:func:`observe_request` decodes them once into int64 arrays, for both
this protocol and the HTTP gateway's observe-batch body. An observe
line in the canonical layout — compact, keys in the order above, as
:func:`encode` writes a :func:`request_payload` — skips ``json.loads``:
:func:`parse_request` parses its columns' text straight into int64
arrays. Any other valid line decodes to the same request, only slower.
:func:`open_request` is likewise the one check of an ``open``'s fields,
for this protocol and the gateway's ``POST /v1/sessions``.

Responses::

    {"id":4,"ok":true,"result":{"intervals":2,"branches":1000}}
    {"id":4,"ok":false,"error":{"code":"session_not_found",
                                "message":"..."}}

Pushes (one per interval boundary classified during an ``observe``,
written *before* that observe's response)::

    {"push":"interval","session":"s1","report":{...}}

The ``report`` payload is exactly
:meth:`repro.core.online.TrackerReport.to_dict`. Error codes map 1:1
to the exception classes in :mod:`repro.errors`
(:data:`ERROR_CODE_EXCEPTIONS`), so a client can rethrow the server's
refusal as a typed exception distinct from any transport failure.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from dataclasses import dataclass, field
from typing import Dict, Optional, Type, Union

import numpy as np

from repro.errors import (
    ClusterError,
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    SessionExistsError,
    SessionNotFoundError,
    SnapshotError,
)

#: Protocol revision, reported by ``ping``; bumped on breaking changes.
PROTOCOL_VERSION = 1

#: Upper bound on one encoded line. Snapshots dominate (a full tracker
#: state is tens of KiB); observe batches of 100k pairs stay under 2 MiB.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Wire error code -> exception raised client-side. ``internal`` is the
#: catch-all for unexpected server-side failures.
ERROR_CODE_EXCEPTIONS: Dict[str, Type[ServiceError]] = {
    "protocol": ProtocolError,
    "session_not_found": SessionNotFoundError,
    "session_exists": SessionExistsError,
    "overloaded": ServiceOverloadedError,
    "shutting_down": ServiceUnavailableError,
    "snapshot": SnapshotError,
    "cluster": ClusterError,
    "internal": ServiceError,
}

_EXCEPTION_ERROR_CODES: Dict[Type[ServiceError], str] = {
    exception: code
    for code, exception in ERROR_CODE_EXCEPTIONS.items()
    if exception is not ServiceError
}


def error_code_for(error: Exception) -> str:
    """The wire code a server reports for ``error``.

    Subclasses inherit their nearest ancestor's code (for example
    :class:`~repro.errors.SnapshotSchemaError` reports ``snapshot``),
    so new refinements of an existing refusal never leak ``internal``.
    """
    for klass in type(error).__mro__:
        code = _EXCEPTION_ERROR_CODES.get(klass)
        if code is not None:
            return code
    return "internal"


def exception_for(code: str, message: str) -> ServiceError:
    """Rebuild the typed exception a wire error code denotes."""
    return ERROR_CODE_EXCEPTIONS.get(code, ServiceError)(message)


# -- request messages ---------------------------------------------------------


@dataclass(frozen=True)
class PingRequest:
    """Liveness probe; answers with the protocol version."""

    id: int
    op = "ping"


@dataclass(frozen=True)
class StatsRequest:
    """Service-level statistics (sessions, totals)."""

    id: int
    op = "stats"


@dataclass(frozen=True)
class OpenRequest:
    """Create a session, optionally restoring a tracker snapshot.

    ``session`` may be omitted to let the server assign a name.
    ``config`` holds :class:`~repro.core.config.ClassifierConfig`
    field overrides; ``interval_instructions`` the interval length.
    When ``snapshot`` is given it must be a document produced by the
    ``snapshot`` op (configuration travels inside it, so ``config`` and
    ``interval_instructions`` must then be omitted).
    """

    id: int
    session: Optional[str] = None
    config: Optional[dict] = None
    interval_instructions: Optional[int] = None
    snapshot: Optional[dict] = None
    op = "open"


@dataclass(frozen=True)
class CloseRequest:
    """Tear down a session, discarding its tracker."""

    id: int
    session: str
    op = "close"


@dataclass(frozen=True)
class ObserveRequest:
    """Ingest a batch of committed branches into a session.

    ``pcs`` and ``counts`` are parallel arrays of branch PCs and
    instruction counts. A parsed request (:func:`parse_request`,
    :func:`observe_request`) holds them as validated, non-negative,
    equal-length 1-D ``int64`` numpy arrays, and they stay arrays
    through the tracker and the journal; test them with ``len()``,
    never for truth. A request built for sending may hold any integer
    sequence, since :func:`request_payload` turns it into plain ints.
    ``cpi`` is attributed to any interval boundary the batch completes
    (the client-side measured CPI, a finite positive number; defaults
    to 1.0 for callers without a cycle counter).
    """

    id: int
    session: str
    pcs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    counts: np.ndarray = field(
        default_factory=lambda: np.zeros(0, np.int64)
    )
    cpi: float = 1.0
    op = "observe"


@dataclass(frozen=True)
class PredictRequest:
    """Current phase plus next-phase / length-class predictions."""

    id: int
    session: str
    op = "predict"


@dataclass(frozen=True)
class SnapshotRequest:
    """Export the session's full tracker state as a snapshot document."""

    id: int
    session: str
    op = "snapshot"


@dataclass(frozen=True)
class ClusterRequest:
    """A cluster control-plane operation.

    Understood fully only by a cluster dispatcher (``status``,
    ``drain-worker``, ``migrate``, ``rebalance``, ``grow``); a plain
    :class:`~repro.service.server.PhaseService` answers only the
    ``diagnostics`` action (the dispatcher uses it to assemble the
    cluster-wide view) and refuses everything else with error code
    ``cluster``.
    """

    id: int
    action: str
    params: dict = field(default_factory=dict)
    op = "cluster"


Request = Union[
    PingRequest,
    StatsRequest,
    OpenRequest,
    CloseRequest,
    ObserveRequest,
    PredictRequest,
    SnapshotRequest,
    ClusterRequest,
]

_REQUEST_OPS = ("ping", "stats", "open", "close", "observe", "predict",
                "snapshot", "cluster")


# -- server-to-client messages ------------------------------------------------


@dataclass(frozen=True)
class Response:
    """One reply per request, matched to it by ``id``."""

    id: int
    ok: bool
    result: dict = field(default_factory=dict)
    error_code: Optional[str] = None
    error_message: Optional[str] = None

    def raise_for_error(self) -> "Response":
        """Rethrow a refusal as its typed exception; no-op when ok."""
        if not self.ok:
            raise exception_for(
                self.error_code or "internal", self.error_message or ""
            )
        return self


@dataclass(frozen=True)
class IntervalPush:
    """A server-initiated interval report for one classified boundary."""

    session: str
    report: dict


ServerMessage = Union[Response, IntervalPush]


# -- encoding -----------------------------------------------------------------


def encode(payload: dict) -> bytes:
    """One wire line: compact JSON + newline, UTF-8."""
    line = json.dumps(payload, separators=(",", ":"))
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line limit"
        )
    return data


def ok_response(request_id: int, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: int, code: str, message: str) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def interval_push(session: str, report: dict) -> dict:
    return {"push": "interval", "session": session, "report": report}


def request_payload(request: Request) -> dict:
    """The wire form of a request object (omitting default fields)."""
    payload: dict = {"op": request.op, "id": request.id}
    if isinstance(request, OpenRequest):
        if request.session is not None:
            payload["session"] = request.session
        if request.config is not None:
            payload["config"] = request.config
        if request.interval_instructions is not None:
            payload["interval_instructions"] = request.interval_instructions
        if request.snapshot is not None:
            payload["snapshot"] = request.snapshot
    elif isinstance(request, ObserveRequest):
        payload["session"] = request.session
        payload["pcs"] = _json_ints(request.pcs)
        payload["counts"] = _json_ints(request.counts)
        payload["cpi"] = request.cpi
    elif isinstance(
        request, (CloseRequest, PredictRequest, SnapshotRequest)
    ):
        payload["session"] = request.session
    elif isinstance(request, ClusterRequest):
        payload["action"] = request.action
        if request.params:
            payload["params"] = request.params
    return payload


def _json_ints(values) -> list:
    """An integer sequence as a list ``json.dumps`` accepts: numpy
    integers become plain ints; anything else is passed through as
    given, for the server to validate."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    return [int(value) if isinstance(value, np.integer) else value
            for value in values]


# -- decoding -----------------------------------------------------------------


def _decode_object(line: Union[str, bytes]) -> dict:
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"line is not UTF-8: {error}") from None
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as error:
        # Beside malformed JSON (``JSONDecodeError`` is a ValueError),
        # ``json.loads`` refuses an integer literal past the
        # interpreter's digit limit with a plain ValueError, and nesting
        # too deep for its recursive scanner with a RecursionError.
        raise ProtocolError(f"line is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    return payload


def _require_id(payload: dict) -> int:
    request_id = payload.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ProtocolError("request 'id' must be an integer")
    return request_id


def _require_session(payload: dict) -> str:
    session = payload.get("session")
    if not isinstance(session, str) or not session:
        raise ProtocolError("request 'session' must be a non-empty string")
    return session


def _int64_array(payload: dict, name: str) -> np.ndarray:
    """Decode one observe column into a non-negative ``int64`` array.

    The contract is the per-element one (JSON integers only: no bools,
    floats or strings; every value >= 0; and each must fit int64),
    checked in whole-list passes in C. ``array("q", ...)`` refuses
    every non-integer and every value outside int64, but takes a bool
    as 0 or 1, so an exact type pass runs only when the minimum is
    <= 1 — the only case in which a bool could be hiding.
    """
    values = payload.get(name)
    if not isinstance(values, list):
        raise ProtocolError(f"observe '{name}' must be a list of integers")
    try:
        column = np.frombuffer(array("q", values), dtype=np.int64)
    except TypeError:
        raise ProtocolError(
            f"observe '{name}' must be a list of integers"
        ) from None
    except OverflowError:
        raise ProtocolError(
            f"observe '{name}' values must be in [0, 2**63)"
        ) from None
    if column.size:
        low = column.min()
        if low < 0:
            raise ProtocolError(
                f"observe '{name}' values must be in [0, 2**63)"
            )
        if low <= 1 and bool in set(map(type, values)):
            raise ProtocolError(
                f"observe '{name}' must be a list of integers"
            )
    return column


def observe_request(
    request_id: int, session: str, payload: dict
) -> ObserveRequest:
    """Validate an observe's ``pcs``/``counts``/``cpi`` fields, taken
    from a decoded JSON object, into an :class:`ObserveRequest`.

    The one observe validator behind both wire surfaces: NDJSON lines
    (:func:`parse_request`) and the HTTP gateway's observe-batch body.
    Raises :class:`~repro.errors.ProtocolError` on any refusal.
    """
    pcs = _int64_array(payload, "pcs")
    counts = _int64_array(payload, "counts")
    if len(pcs) != len(counts):
        raise ProtocolError(
            f"observe 'pcs' and 'counts' must be parallel arrays: "
            f"{len(pcs)} vs {len(counts)}"
        )
    cpi = payload.get("cpi", 1.0)
    # json.loads also yields NaN, Infinity and integers past the float
    # range; none of them is a measured CPI (a NaN would poison an
    # adaptive session's CPI mean).
    if (
        not isinstance(cpi, (int, float)) or isinstance(cpi, bool)
        or not 0 < cpi <= sys.float_info.max
    ):
        raise ProtocolError(
            "observe 'cpi' must be a finite positive number"
        )
    return ObserveRequest(
        id=request_id, session=session, pcs=pcs, counts=counts,
        cpi=float(cpi),
    )


def open_request(request_id: int, payload: dict) -> OpenRequest:
    """Validate an open's ``session``/``config``/
    ``interval_instructions``/``snapshot`` fields, taken from a decoded
    JSON object, into an :class:`OpenRequest`.

    The one open validator behind both wire surfaces: NDJSON lines
    (:func:`parse_request`) and the HTTP gateway's open body. Raises
    :class:`~repro.errors.ProtocolError` on any refusal.
    """
    session = payload.get("session")
    if session is not None and (not isinstance(session, str) or not session):
        raise ProtocolError(
            "open 'session' must be a non-empty string when given"
        )
    config = payload.get("config")
    if config is not None and not isinstance(config, dict):
        raise ProtocolError("open 'config' must be an object")
    interval = payload.get("interval_instructions")
    if interval is not None and (
        not isinstance(interval, int) or isinstance(interval, bool)
        or interval <= 0
    ):
        raise ProtocolError(
            "open 'interval_instructions' must be a positive integer"
        )
    snapshot = payload.get("snapshot")
    if snapshot is not None:
        if not isinstance(snapshot, dict):
            raise ProtocolError("open 'snapshot' must be an object")
        if config is not None or interval is not None:
            raise ProtocolError(
                "open with 'snapshot' must not also carry 'config' "
                "or 'interval_instructions' (they travel inside the "
                "snapshot)"
            )
    return OpenRequest(
        id=request_id,
        session=session,
        config=config,
        interval_instructions=interval,
        snapshot=snapshot,
    )


def cluster_request(request_id: int, payload: dict) -> ClusterRequest:
    """Validate a cluster request's ``action``/``params`` fields, taken
    from a decoded JSON object, into a :class:`ClusterRequest`.

    The one cluster validator behind both wire surfaces: NDJSON lines
    (:func:`parse_request`) and the cluster gateway's
    ``POST /v1/cluster`` body. Raises
    :class:`~repro.errors.ProtocolError` on any refusal.
    """
    action = payload.get("action")
    if not isinstance(action, str) or not action:
        raise ProtocolError("cluster 'action' must be a non-empty string")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("cluster 'params' must be an object")
    return ClusterRequest(id=request_id, action=action, params=params)


#: The head of a request line in the canonical layout: compact JSON
#: with ``op``, ``id`` and ``session`` first, as :func:`encode` writes
#: a :func:`request_payload` and the bundled client sends. ``%s``
#: takes an alternation of ops. The groups are the op, the id (a JSON
#: integer of at most 19 digits) and a session name that needs no
#: JSON escaping. A line that does not start this way is just as
#: valid; it only misses the fast paths built on this pattern.
REQUEST_HEAD = (
    rb'\{"op":"(%s)","id":(-?(?:0|[1-9][0-9]{0,18})),'
    rb'"session":"([A-Za-z0-9._:\-]{1,200})"'
)

_CANONICAL_OBSERVE = re.compile(REQUEST_HEAD % b"observe" + rb',"pcs":\[')
_COUNTS_KEY = b'],"counts":['
_CPI_KEY = b'],"cpi":'
#: An unsigned JSON number, then the end of the object and at most a
#: newline. Its integer part is held to 16 digits, far inside the
#: float range: an integer past ``sys.float_info.max``, which the
#: reference refuses, could otherwise round down into range.
_CANONICAL_CPI = re.compile(
    rb'((?:0|[1-9][0-9]{0,15})(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)\}\n?'
)
_DIGITS_AND_COMMAS = b"0123456789,"
_COMMA, _ZERO = ord(","), ord("0")
_EMPTY_FIELD = re.compile(rb",,")
_LEADING_ZERO = re.compile(rb",0[0-9]")
#: A value below this fits int64, however it is written. Past int64
#: ``np.fromstring`` clamps to ``2**63 - 1`` rather than refusing, so
#: a column whose maximum reaches this is left to ``json.loads``.
_INT64_SAFE = 10 ** 18


def _canonical_column(
    line: bytes, start: int, end: int
) -> Optional[np.ndarray]:
    """The int64 column whose text is ``line[start:end]``, or ``None``
    unless that text is canonical: unsigned decimal integers without
    leading zeros, each below 10**18, separated by single commas.

    Every check runs before the one C-level parse, which therefore
    never meets text it would stop at.
    """
    text = line[start:end]
    if not text:
        return np.zeros(0, np.int64)
    if (
        text.translate(None, _DIGITS_AND_COMMAS)
        or text[0] == _COMMA or text[-1] == _COMMA
        or _EMPTY_FIELD.search(text)
        or (text[0] == _ZERO and len(text) > 1 and text[1] != _COMMA)
        or _LEADING_ZERO.search(text)
    ):
        return None
    column = np.fromstring(text, dtype=np.int64, sep=",")
    if column.max() >= _INT64_SAFE:
        return None
    return column


def _canonical_observe(line: bytes) -> Optional[ObserveRequest]:
    """Decode an observe line in the canonical layout,
    ``{"op":"observe","id":N,"session":"S","pcs":[…],"counts":[…],
    "cpi":X}``, without ``json.loads``; ``None`` for any other line.

    This decoder only accepts: it returns ``None`` for every line it
    is not sure of — another layout, or a value it might decode
    differently — and never raises, so refusals and their messages
    come from the reference path alone.
    """
    head = _CANONICAL_OBSERVE.match(line)
    if head is None:
        return None
    start = head.end()
    middle = line.find(_COUNTS_KEY, start)
    if middle < 0:
        return None
    tail = line.find(_CPI_KEY, middle + len(_COUNTS_KEY))
    if tail < 0:
        return None
    cpi_text = _CANONICAL_CPI.fullmatch(line, tail + len(_CPI_KEY))
    if cpi_text is None:
        return None
    cpi = float(cpi_text.group(1))
    if not 0 < cpi <= sys.float_info.max:
        return None
    pcs = _canonical_column(line, start, middle)
    if pcs is None:
        return None
    counts = _canonical_column(line, middle + len(_COUNTS_KEY), tail)
    if counts is None or len(counts) != len(pcs):
        return None
    return ObserveRequest(
        id=int(head.group(2)), session=head.group(3).decode("ascii"),
        pcs=pcs, counts=counts, cpi=cpi,
    )


def parse_request(line: Union[str, bytes]) -> Request:
    """Decode and validate one request line.

    Raises :class:`~repro.errors.ProtocolError` on any malformed input;
    the server maps that to an ``error`` response with code
    ``protocol``. A ``bytes`` observe line in the canonical layout
    decodes without ``json.loads`` (:func:`_canonical_observe`); every
    other line, and every line that decoder is not sure of, takes
    ``json.loads`` (:func:`_parse_json_request`). Both give the same
    request for the same line.
    """
    if isinstance(line, bytes):
        request = _canonical_observe(line)
        if request is not None:
            return request
    return _parse_json_request(line)


def _parse_json_request(line: Union[str, bytes]) -> Request:
    """:func:`parse_request` through ``json.loads``: the reference
    decoder, and the only one that refuses."""
    payload = _decode_object(line)
    op = payload.get("op")
    if op not in _REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {_REQUEST_OPS}"
        )
    request_id = _require_id(payload)

    if op == "ping":
        return PingRequest(id=request_id)
    if op == "stats":
        return StatsRequest(id=request_id)
    if op == "open":
        return open_request(request_id, payload)
    if op == "observe":
        return observe_request(
            request_id, _require_session(payload), payload
        )
    if op == "cluster":
        return cluster_request(request_id, payload)
    session = _require_session(payload)
    if op == "close":
        return CloseRequest(id=request_id, session=session)
    if op == "predict":
        return PredictRequest(id=request_id, session=session)
    return SnapshotRequest(id=request_id, session=session)


def parse_server_message(line: Union[str, bytes]) -> ServerMessage:
    """Decode one server line into a :class:`Response` or a push."""
    payload = _decode_object(line)
    if "push" in payload:
        if payload["push"] != "interval":
            raise ProtocolError(f"unknown push type {payload['push']!r}")
        report = payload.get("report")
        session = payload.get("session")
        if not isinstance(report, dict) or not isinstance(session, str):
            raise ProtocolError("interval push lacks 'session'/'report'")
        return IntervalPush(session=session, report=report)
    request_id = _require_id(payload)
    ok = payload.get("ok")
    if not isinstance(ok, bool):
        raise ProtocolError("response 'ok' must be a boolean")
    if ok:
        result = payload.get("result", {})
        if not isinstance(result, dict):
            raise ProtocolError("response 'result' must be an object")
        return Response(id=request_id, ok=True, result=result)
    error = payload.get("error")
    if not isinstance(error, dict) or "code" not in error:
        raise ProtocolError("error response lacks an 'error' object")
    return Response(
        id=request_id,
        ok=False,
        error_code=str(error["code"]),
        error_message=str(error.get("message", "")),
    )
