"""Minimal asyncio HTTP/1.1 server framework (stdlib only).

The project ships with ``dependencies = []`` and keeps it that way: this
module hand-rolls exactly the slice of HTTP/1.1 the simulation service
needs on top of ``asyncio`` streams -- request parsing with bounded
header/body sizes, a segment-pattern router, JSON responses with
``Content-Length`` keep-alive, and chunked transfer encoding for
streaming endpoints.  It knows nothing about simulations; the service
application in :mod:`repro.service.app` registers handlers on a
:class:`Router` and hands it to :func:`start_http_server`.

Handlers are ``async def handler(request, **path_params) -> Response``
and signal client errors by raising :class:`HttpError` (which carries an
optional ``Retry-After`` for 429/503 backpressure responses).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
import json
import re
from typing import Any, AsyncIterator, Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.telemetry.tracing import valid_trace_id

#: Protocol limits: nothing the service serves needs more than this, and
#: bounding them keeps a malicious client from ballooning server memory.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Reason phrases for the status codes the service actually emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A handler-raised error rendered as a JSON error response.

    ``retry_after`` (seconds) becomes a ``Retry-After`` header -- the
    rate limiter and the queue-depth backpressure check use it to tell
    clients when to come back.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None,
                 **extra: Any):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after
        self.extra = extra

    def to_response(self) -> "Response":
        payload = {"error": self.message, "status": self.status}
        payload.update(self.extra)
        response = Response.json(payload, status=self.status)
        if self.retry_after is not None:
            response.headers["Retry-After"] = (
                f"{max(0.0, self.retry_after):.3f}")
        return response


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    #: Best-effort client identity: ``X-Client-Id`` header when present,
    #: else the peer address -- the rate limiter's bucket key.
    client: str = ""
    #: Trace context from the ``X-Trace-Id`` header (empty when absent
    #: or malformed); see :mod:`repro.telemetry.tracing`.
    trace_id: str = ""

    def json(self) -> Any:
        """The body decoded as JSON (400 on malformed input)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"malformed JSON body: {exc}")

    def query_int(self, name: str, default: int = 0) -> int:
        """An integer query parameter (400 on a non-integer value)."""
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name!r} must be an "
                                 f"integer, got {raw!r}")

    def query_float(self, name: str, default: float = 0.0) -> float:
        """A float query parameter (400 on a non-numeric value)."""
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name!r} must be a "
                                 f"number, got {raw!r}")


@dataclass
class Response:
    """One HTTP response: a byte body or a chunked async stream."""

    status: int = 200
    body: bytes = b""
    headers: Dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json"
    #: When set, the body is ignored and the response is sent with
    #: chunked transfer encoding, one chunk per yielded bytes object.
    stream: Optional[AsyncIterator[bytes]] = None

    @classmethod
    def json(cls, payload: Any, status: int = 200) -> "Response":
        """A canonical JSON response (sorted keys, trailing newline)."""
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return cls(status=status, body=text.encode("utf-8"))

    @classmethod
    def text(cls, text: str, status: int = 200) -> "Response":
        return cls(status=status, body=text.encode("utf-8"),
                   content_type="text/plain; charset=utf-8")


Handler = Callable[..., Awaitable[Response]]

#: A path pattern segment like ``<sweep_id>``.
_PARAM_SEGMENT = re.compile(r"^<([a-zA-Z_][a-zA-Z0-9_]*)>$")


class Router:
    """Method + segment-pattern dispatch table.

    Patterns are literal paths whose ``<name>`` segments capture one path
    segment each and are passed to the handler as keyword arguments::

        router.add("GET", "/api/sweeps/<sweep_id>", handler)
    """

    def __init__(self) -> None:
        self._routes: List[Tuple[str, Tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(pattern.strip("/").split("/")) \
            if pattern.strip("/") else ()
        self._routes.append((method.upper(), segments, handler))

    def resolve(self, method: str, path: str
                ) -> Tuple[Handler, Dict[str, str], str]:
        """Match a request; returns (handler, params, route pattern).

        Raises :class:`HttpError` 404 when no pattern matches the path
        and 405 when a pattern matches under a different method.
        """
        parts = tuple(unquote(p) for p in path.strip("/").split("/")) \
            if path.strip("/") else ()
        path_matched = False
        for method_, segments, handler in self._routes:
            params = _match(segments, parts)
            if params is None:
                continue
            path_matched = True
            if method_ != method.upper():
                continue
            return handler, params, "/" + "/".join(segments)
        if path_matched:
            raise HttpError(405, f"method {method} not allowed for {path}")
        raise HttpError(404, f"no route for {path}")


def _match(segments: Tuple[str, ...],
           parts: Tuple[str, ...]) -> Optional[Dict[str, str]]:
    if len(segments) != len(parts):
        return None
    params: Dict[str, str] = {}
    for segment, part in zip(segments, parts):
        capture = _PARAM_SEGMENT.match(segment)
        if capture:
            if not part:
                return None
            params[capture.group(1)] = part
        elif segment != part:
            return None
    return params


async def read_request_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Wait for the next request line; None on clean EOF."""
    try:
        return await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # connection closed between requests
        raise HttpError(400, "truncated request line")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long")


async def read_request(reader: asyncio.StreamReader,
                       client: str = "") -> Optional[Request]:
    """Parse one request off a connection; None on clean EOF."""
    request_line = await read_request_line(reader)
    if request_line is None:
        return None
    return await read_request_rest(reader, request_line, client)


async def read_request_rest(reader: asyncio.StreamReader, request_line: bytes,
                            client: str = "") -> Request:
    """Parse the request whose line :func:`read_request_line` returned."""
    if len(request_line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    try:
        method, target, version = \
            request_line.decode("ascii").strip().split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise HttpError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, "truncated headers")
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(400, "headers too large")
        if line == b"\r\n":
            break
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, "malformed header")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body larger than {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated body")
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    trace_id = headers.get("x-trace-id", "")
    if trace_id and not valid_trace_id(trace_id):
        trace_id = ""  # malformed context is dropped, not fatal
    return Request(method=method.upper(), path=split.path or "/",
                   query=query, headers=headers, body=body,
                   client=headers.get("x-client-id", client),
                   trace_id=trace_id)


def _head(response: Response, keep_alive: bool) -> bytes:
    reason = REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    headers = dict(response.headers)
    headers.setdefault("Content-Type", response.content_type)
    if response.stream is None:
        headers["Content-Length"] = str(len(response.body))
    else:
        headers["Transfer-Encoding"] = "chunked"
        keep_alive = False
    headers["Connection"] = "keep-alive" if keep_alive else "close"
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(writer: asyncio.StreamWriter, response: Response,
                         keep_alive: bool) -> bool:
    """Send one response; returns whether the connection stays open."""
    if response.stream is None:
        writer.write(_head(response, keep_alive) + response.body)
        await writer.drain()
        return keep_alive
    writer.write(_head(response, keep_alive))
    await writer.drain()
    try:
        async for chunk in response.stream:
            if not chunk:
                continue
            writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
            await writer.drain()
    finally:
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    return False


class HttpServer:
    """Connection loop binding a :class:`Router` to an asyncio server.

    ``observer(route, status, seconds, request)`` is called once per
    handled request -- the service plugs its telemetry registry (and its
    span recorder) in there.  ``request`` is ``None`` when parsing
    failed before a request object existed.
    """

    def __init__(self, router: Router,
                 observer: Optional[
                     Callable[[str, int, float, Optional[Request]],
                              None]] = None):
        self.router = router
        self.observer = observer
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port,
            limit=MAX_HEADER_BYTES)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else str(peer)
        clock = asyncio.get_event_loop().time
        try:
            keep_alive = True
            while keep_alive:
                route = "?"
                request: Optional[Request] = None
                start: Optional[float] = None
                try:
                    # a keep-alive connection idles here between requests;
                    # that wait is not handling time, so the clock starts
                    # once the request line has arrived
                    request_line = await read_request_line(reader)
                    start = clock()
                    if request_line is None:
                        break
                    request = await read_request_rest(reader, request_line,
                                                      client)
                    keep_alive = request.headers.get(
                        "connection", "keep-alive").lower() != "close"
                    handler, params, route = self.router.resolve(
                        request.method, request.path)
                    response = await handler(request, **params)
                except HttpError as exc:
                    response = exc.to_response()
                    if exc.status in (400, 413):
                        keep_alive = False  # the stream may be desynced
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except Exception as exc:  # handler bug: report, keep serving
                    response = HttpError(
                        500, f"internal error: {exc}").to_response()
                if self.observer is not None:
                    # a request line too malformed to read is answered on
                    # arrival
                    seconds = 0.0 if start is None else clock() - start
                    self.observer(route, response.status, seconds, request)
                keep_alive = await write_response(writer, response,
                                                  keep_alive)
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
