"""A minimal asyncio HTTP/1.1 server for the operations gateway.

The same dependency posture as the NDJSON service: stdlib only, one
``asyncio.start_server`` per listener, strict input caps so a confused
or hostile client cannot balloon memory. Only what the gateway needs is
implemented — ``GET``/``POST``/``DELETE``, ``Content-Length`` bodies,
keep-alive with an idle timeout, and chunkless streaming responses
(``Connection: close``) for Server-Sent Events.

Deliberately *not* implemented: chunked request bodies, pipelining
beyond sequential keep-alive, TLS, compression. A real deployment puts
this behind a reverse proxy; the gateway's job is to be a correct,
boring origin.
"""

from __future__ import annotations

import asyncio
import json
from typing import (
    AsyncIterator, Awaitable, Callable, Dict, List, Optional, Tuple,
)
from urllib.parse import parse_qs, unquote, urlsplit

#: Input caps. The request line and each header line share the line
#: cap; bodies are bounded separately (observe batches dominate).
MAX_REQUEST_LINE_BYTES = 8 * 1024
MAX_HEADER_LINES = 64
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Seconds a kept-alive connection may sit idle between requests.
KEEPALIVE_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

_ALLOWED_METHODS = ("GET", "POST", "DELETE", "HEAD")


class HttpError(Exception):
    """A request that must be answered with an HTTP error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, List[str]],
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def query_first(self, name: str) -> Optional[str]:
        values = self.query.get(name)
        return values[0] if values else None

    def json(self) -> object:
        """The body decoded as JSON; raises :class:`HttpError` (400)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (ValueError, RecursionError) as error:
            # A body that is not UTF-8 or not JSON, an integer past the
            # interpreter's digit limit, or nesting too deep to decode.
            raise HttpError(400, f"invalid JSON body: {error}") from None


class HttpResponse:
    """A buffered response. Use the classmethods for common shapes."""

    __slots__ = ("status", "headers", "body")

    def __init__(
        self,
        status: int = 200,
        body: bytes = b"",
        content_type: str = "text/plain; charset=utf-8",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.headers = dict(headers or {})
        self.headers.setdefault("Content-Type", content_type)
        self.body = body

    @classmethod
    def json(cls, payload: object, status: int = 200) -> "HttpResponse":
        body = (json.dumps(payload, default=float) + "\n").encode("utf-8")
        return cls(status, body, "application/json; charset=utf-8")

    @classmethod
    def text(cls, content: str, status: int = 200,
             content_type: str = "text/plain; charset=utf-8") -> "HttpResponse":
        return cls(status, content.encode("utf-8"), content_type)

    @classmethod
    def html(cls, content: str, status: int = 200) -> "HttpResponse":
        return cls(status, content.encode("utf-8"),
                   "text/html; charset=utf-8")

    @classmethod
    def error(cls, status: int, message: str,
              code: Optional[str] = None) -> "HttpResponse":
        payload: Dict[str, object] = {"error": {"message": message}}
        if code is not None:
            payload["error"]["code"] = code  # type: ignore[index]
        return cls.json(payload, status=status)


class StreamingResponse:
    """A response whose body is produced incrementally (SSE).

    The connection is always closed afterwards (``Connection: close``) —
    an event stream has no defined end for keep-alive to resume from.
    """

    __slots__ = ("status", "headers", "chunks")

    def __init__(
        self,
        chunks: AsyncIterator[bytes],
        status: int = 200,
        content_type: str = "text/event-stream",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.headers = dict(headers or {})
        self.headers.setdefault("Content-Type", content_type)
        self.headers.setdefault("Cache-Control", "no-cache")
        self.chunks = chunks


Handler = Callable[[HttpRequest], "Awaitable[object]"]


def _status_line(status: int) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    return f"HTTP/1.1 {status} {reason}\r\n".encode("ascii")


def _render_head(
    status: int, headers: Dict[str, str], close: bool,
    content_length: Optional[int],
) -> bytes:
    lines = [_status_line(status)]
    for name, value in headers.items():
        lines.append(f"{name}: {value}\r\n".encode("latin-1"))
    if content_length is not None:
        lines.append(f"Content-Length: {content_length}\r\n".encode("ascii"))
    lines.append(
        b"Connection: close\r\n" if close else b"Connection: keep-alive\r\n"
    )
    lines.append(b"\r\n")
    return b"".join(lines)


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` on a clean EOF before
    any bytes. Raises :class:`HttpError` on malformed or oversized
    input and ``asyncio.TimeoutError`` on keep-alive idle expiry."""
    try:
        line = await asyncio.wait_for(
            reader.readline(), KEEPALIVE_TIMEOUT
        )
    except (asyncio.LimitOverrunError, ValueError):
        raise HttpError(400, "request line too long") from None
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE_BYTES:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {line[:80]!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol version {version!r}")
    if method not in _ALLOWED_METHODS:
        raise HttpError(501, f"method {method} not implemented")

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        try:
            raw = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise HttpError(400, "header line too long") from None
        if raw in (b"\r\n", b"\n", b""):
            break
        if len(raw) > MAX_REQUEST_LINE_BYTES:
            raise HttpError(400, "header line too long")
        if len(headers) >= MAX_HEADER_LINES:
            raise HttpError(400, "too many header lines")
        try:
            name, _, value = raw.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise HttpError(400, "undecodable header") from None
        if not _:
            raise HttpError(400, f"malformed header line: {raw[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(
                413, f"body exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        body = await reader.readexactly(length)
    elif headers.get("transfer-encoding"):
        raise HttpError(501, "chunked request bodies are not supported")

    split = urlsplit(target)
    return HttpRequest(
        method=method,
        path=unquote(split.path) or "/",
        query=parse_qs(split.query),
        headers=headers,
        body=body,
    )


class HttpServer:
    """Serve ``handler`` over HTTP/1.1 on one asyncio listener.

    ``handler`` receives an :class:`HttpRequest` and returns either an
    :class:`HttpResponse` or a :class:`StreamingResponse`; exceptions
    other than :class:`HttpError` become opaque 500s.
    """

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, asyncio.StreamWriter] = {}
        self._tasks: "set" = set()

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("HTTP server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_BODY_BYTES,
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Stop listening and close every open connection (SSE streams
        end mid-flight — subscribers reconnect, they do not drain)."""
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        for writer in list(self._connections.values()):
            try:
                writer.close()
            except Exception:
                pass
        self._connections.clear()
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks.clear()

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._connections[id(writer)] = writer
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        try:
            while True:
                close = True
                try:
                    request = await _read_request(reader)
                except asyncio.TimeoutError:
                    break
                except asyncio.IncompleteReadError:
                    break
                except HttpError as error:
                    response = HttpResponse.error(
                        error.status, error.message
                    )
                    writer.write(_render_head(
                        response.status, response.headers, True,
                        len(response.body),
                    ))
                    writer.write(response.body)
                    await writer.drain()
                    break
                if request is None:
                    break  # clean EOF between requests

                keep_alive = (
                    request.headers.get("connection", "").lower()
                    != "close"
                )
                try:
                    result = await self.handler(request)
                except HttpError as error:
                    result = HttpResponse.error(error.status, error.message)
                except Exception as error:  # noqa: BLE001 - boundary
                    result = HttpResponse.error(
                        500, f"{type(error).__name__}: {error}"
                    )

                try:
                    if isinstance(result, StreamingResponse):
                        await self._write_stream(
                            reader, writer, request, result
                        )
                        break  # streams always close the connection
                    assert isinstance(result, HttpResponse), result
                    close = not keep_alive
                    writer.write(_render_head(
                        result.status, result.headers, close,
                        len(result.body),
                    ))
                    if request.method != "HEAD":
                        writer.write(result.body)
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    break
                if close:
                    break
        except asyncio.CancelledError:  # pragma: no cover - teardown
            pass
        finally:
            self._connections.pop(id(writer), None)
            if task is not None:
                self._tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _write_stream(
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: HttpRequest,
        response: StreamingResponse,
    ) -> None:
        writer.write(_render_head(
            response.status, response.headers, True, None,
        ))
        await writer.drain()
        try:
            if request.method == "HEAD":
                return

            async def pump() -> None:
                async for chunk in response.chunks:
                    writer.write(chunk)
                    await writer.drain()

            # A quiet stream only touches the socket at the next event
            # or heartbeat, which can be seconds away — too late to
            # notice the client hung up. Watching the read side for EOF
            # in parallel ends the stream (and runs its cleanup: the
            # unsubscribe, the gauges) the moment the peer disconnects.
            pump_task = asyncio.ensure_future(pump())
            eof_task = asyncio.ensure_future(reader.read())
            try:
                await asyncio.wait(
                    {pump_task, eof_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                pump_task.cancel()
                eof_task.cancel()
                await asyncio.gather(
                    pump_task, eof_task, return_exceptions=True
                )
        finally:
            # Finalize generator-backed streams deterministically so
            # their cleanup (unsubscribing, gauges) runs now, not at GC.
            aclose = getattr(response.chunks, "aclose", None)
            if aclose is not None:
                try:
                    await aclose()
                except Exception:
                    pass


def route_pattern_match(
    pattern: str, path: str
) -> Optional[Tuple[str, ...]]:
    """Match ``path`` against ``pattern`` where ``{...}`` segments are
    wildcards; returns the captured segments or ``None``.

    ``route_pattern_match("/v1/sessions/{id}", "/v1/sessions/s1")``
    captures ``("s1",)``. Captures never span a ``/``.
    """
    pattern_parts = pattern.strip("/").split("/")
    path_parts = path.strip("/").split("/")
    if len(pattern_parts) != len(path_parts):
        return None
    captured: List[str] = []
    for expected, actual in zip(pattern_parts, path_parts):
        if expected.startswith("{") and expected.endswith("}"):
            if not actual:
                return None
            captured.append(actual)
        elif expected != actual:
            return None
    return tuple(captured)
