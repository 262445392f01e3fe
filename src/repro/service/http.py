"""The one HTTP/1.1 codec: the only module that knows the wire format.

The worker server and the fleet router are each an :class:`HttpServer`
with a :class:`RouteTable`; in-package clients use :class:`HttpClient`
(async, pooled) or :func:`fetch` (blocking).  Keep-alive, JSON,
``Content-Length`` bodies only.  Framing that breaks the limits below —
a malformed request or header line, a ``Content-Length`` that is not a
non-negative integer, a body cut short, too many or too long lines —
raises :class:`HttpError`: a taxonomy 400 (413 for an oversized body),
then a lingering close: the server half-closes and discards what the
client is still sending, so the client reads the error instead of a
reset.  ``GET`` routes answer ``HEAD`` with headers only; unknown paths
are 404, known paths with a missing method 405 with a derived
``Allow``.  :class:`BackgroundServer` runs any :class:`HttpServer` on
its own event loop in a daemon thread, for blocking callers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import re
import signal
import threading
from typing import (Any, Awaitable, Callable, Dict, List, NamedTuple,
                    Optional, Tuple, Union)

from repro.service.errors import HTTP_REASONS, error_doc, pop_headers

__all__ = ["BackgroundServer", "HttpClient", "HttpError", "HttpServer",
           "RouteTable", "fetch", "read_request", "write_response"]

MAX_BODY_BYTES = 32 * 1024 * 1024
MAX_HEADER_LINES = 100
MAX_LINE_BYTES = 64 * 1024  # the stream limit of every reader made here
POOL_SIZE = 64  # idle connections an HttpClient keeps for reuse
CLIENT_TIMEOUT_S = 300.0  # HttpClient.request's default per-call timeout
LINGER_S = 5.0  # how long a refused request's unread input is discarded
THREAD_TIMEOUT_S = 120.0  # bound on a BackgroundServer's start and stop
JSON_CONTENT_TYPE = "application/json"

Payload = Union[Dict[str, Any], str, bytes]
Reply = Tuple[int, Payload, str]

log = logging.getLogger(__name__)


class HttpError(Exception):
    """A request the codec refuses; carries the taxonomy status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Call(NamedTuple):
    """What a route handler gets (captured path segments come as extra
    positional arguments)."""

    path: str
    query: str
    body: bytes


# --------------------------------------------------------------------- #
# the codec
# --------------------------------------------------------------------- #

async def _read_fields(reader: Any) -> Dict[str, str]:
    """The header block up to its blank line, names lower-cased."""
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            return headers
        if not line.endswith(b"\n"):
            raise HttpError(400, "connection closed inside the headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line[:40]!r}")
        headers[name.strip().lower()] = value.strip()
    raise HttpError(400, f"more than {MAX_HEADER_LINES} header lines")


def _content_length(headers: Dict[str, str]) -> int:
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise HttpError(400, f"bad Content-Length {length[:40]!r}")
    # Past 12 digits the value is over the limit; int() never sees it.
    size = int(length) if len(length) <= 12 else MAX_BODY_BYTES + 1
    if size > MAX_BODY_BYTES:
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    return size


async def read_request(
    reader: Any,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Read one request as ``(method, target, headers, body)``; ``None``
    on a clean EOF between requests.

    ``reader`` needs only ``readline()`` and ``readexactly()``.  Raises
    :class:`HttpError` for anything that breaks the framing.
    """
    try:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if (len(parts) != 3 or not parts[2].startswith("HTTP/1.")
                or not line.endswith(b"\n")):
            raise HttpError(400, "malformed request line")
        headers = await _read_fields(reader)
        if "transfer-encoding" in headers:
            raise HttpError(400, "Transfer-Encoding is not supported; "
                                 "send a Content-Length body")
        size = _content_length(headers)
        body = await reader.readexactly(size) if size else b""
    except asyncio.IncompleteReadError:
        raise HttpError(400, "body shorter than its Content-Length") from None
    except ValueError:  # a line overran the stream limit
        raise HttpError(
            400, f"line longer than {MAX_LINE_BYTES} bytes") from None
    return parts[0].upper(), parts[1], headers, body


async def write_response(writer: asyncio.StreamWriter, status: int,
                         payload: Payload,
                         content_type: str = JSON_CONTENT_TYPE, *,
                         close: bool = False,
                         head_only: bool = False) -> None:
    """Send one response: ``payload`` is a JSON document (its private
    ``_headers`` entry, e.g. ``Allow``, becomes headers), text, or raw
    bytes.  A ``head_only`` reply advertises the body but omits it."""
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in pop_headers(payload).items())
    if isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode()
    head = (
        f"HTTP/1.1 {status} {HTTP_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
    ).encode("latin-1")
    writer.write(head if head_only else head + body)
    await writer.drain()


async def _read_response(reader: asyncio.StreamReader,
                         head_only: bool) -> Tuple[int, Dict[str, str], bytes]:
    line = await reader.readline()
    parts = line.split()  # b"" when the server closed the connection
    if (len(parts) < 2 or not parts[0].startswith(b"HTTP/1.")
            or not parts[1].isdigit()):
        raise ConnectionError(f"malformed status line {line[:80]!r}")
    headers = await _read_fields(reader)
    body = b"" if head_only else await reader.readexactly(
        _content_length(headers))
    return int(parts[1]), headers, body


# --------------------------------------------------------------------- #
# routing
# --------------------------------------------------------------------- #

Handler = Callable[..., Awaitable[Tuple[Any, ...]]]


class RouteTable:
    """Path patterns mapped to ``{method: handler}``; ``GET`` implies
    ``HEAD``.  A ``{}`` in a pattern captures one path segment, passed
    to the handler after the :class:`Call`.  Handlers return ``(status,
    payload)`` for JSON or ``(status, payload, content_type)``."""

    def __init__(self, routes: Dict[str, Dict[str, Handler]]) -> None:
        self._exact: Dict[str, Tuple[Dict[str, Handler], str]] = {}
        self._patterns: List[Tuple["re.Pattern[str]", Dict[str, Handler],
                                   str]] = []
        for pattern, handlers in routes.items():
            allow = ", ".join(m for method in handlers
                              for m in ((method, "HEAD") if method == "GET"
                                        else (method,)))
            methods = dict(handlers)
            if "GET" in methods:
                methods["HEAD"] = methods["GET"]
            if "{}" in pattern:
                regex = re.escape(pattern).replace(re.escape("{}"), "([^/]+)")
                self._patterns.append((re.compile(regex + "$"), methods,
                                       allow))
            else:
                self._exact[pattern] = (methods, allow)

    async def dispatch(self, method: str, target: str, body: bytes) -> Reply:
        path, _, query = target.partition("?")
        captured: Tuple[str, ...] = ()
        route = self._exact.get(path)
        if route is None:
            for regex, methods, allow in self._patterns:
                match = regex.match(path)
                if match:
                    route, captured = (methods, allow), match.groups()
                    break
            else:
                return (*error_doc(404, f"no route {path!r}"),
                        JSON_CONTENT_TYPE)
        methods, allow = route
        handler = methods.get(method)
        if handler is None:
            return (*error_doc(405, f"use {allow} for {path}", allow=allow),
                    JSON_CONTENT_TYPE)
        reply = await handler(Call(path, query, body), *captured)
        return reply if len(reply) == 3 else (*reply, JSON_CONTENT_TYPE)


# --------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------- #

async def _linger(reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    """Half-close, then discard input until EOF or :data:`LINGER_S`:
    closing with unread bytes queued would reset the connection before
    a client that is still sending reads the reply."""
    try:
        if writer.can_write_eof():
            writer.write_eof()

        async def discard() -> None:
            while await reader.read(MAX_LINE_BYTES):
                pass

        await asyncio.wait_for(discard(), LINGER_S)
    except (OSError, asyncio.TimeoutError):
        pass


class HttpServer:
    """One listening socket answering requests through ``self.routes``;
    subclasses set ``routes`` and define ``shutdown()``.

    The connection loop calls ``_read_request``, ``_route`` and
    ``_write_response`` once per request, on the connection's own task,
    so instrumentation can wrap each step.
    """

    routes: RouteTable

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port          # 0 = ephemeral; .port is updated on start
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        # Connections between reading a request and writing its reply,
        # each with a future set once the reply is written.
        self._busy: Dict[asyncio.Task, asyncio.Future] = {}

    async def start(self) -> int:
        """Bind and listen; returns the actual port (resolves port 0)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def _stop_listening(self) -> None:
        if self._server is not None:
            self._server.close()

    async def _close_connections(self, grace_s: float = 2.0) -> None:
        """Stop listening, give connections with a request in hand
        ``grace_s`` to write its reply, then close every connection.
        Idle keep-alive connections are not waited for."""
        self._stop_listening()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace_s
        while self._busy and loop.time() < deadline:
            await asyncio.wait(list(self._busy.values()),
                               timeout=deadline - loop.time())
        # Closing the transport ends a pending read with EOF and the task
        # returns; cancelling it instead makes asyncio's stream callback
        # log an error on Python 3.11.
        for writer in list(self._conns.values()):
            writer.close()
        if self._conns:
            _done, stuck = await asyncio.wait(list(self._conns),
                                              timeout=grace_s)
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns[task] = writer
            task.add_done_callback(lambda done: self._conns.pop(done, None))
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except HttpError as exc:
                    self._busy[task] = loop.create_future()
                    _status, doc = error_doc(exc.status, str(exc))
                    await self._write_response(writer, exc.status, doc,
                                               JSON_CONTENT_TYPE, close=True)
                    self._replied(task)
                    await _linger(reader, writer)
                    return
                if request is None:  # clean EOF between requests
                    return
                self._busy[task] = loop.create_future()
                method, target, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    status, payload, ctype = await self._route(
                        method, target, body)
                except Exception:  # noqa: BLE001 — answered, not dropped
                    log.exception("unhandled error serving %s %s",
                                  method, target)
                    status, payload = error_doc(500, "internal error")
                    ctype, keep_alive = JSON_CONTENT_TYPE, False
                await self._write_response(writer, status, payload, ctype,
                                           close=not keep_alive,
                                           head_only=method == "HEAD")
                self._replied(task)
                if not keep_alive:
                    return
        except ConnectionError:
            pass
        finally:
            self._replied(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _replied(self, task: Optional[asyncio.Task]) -> None:
        done = self._busy.pop(task, None)
        if done is not None:
            done.set_result(None)

    async def _read_request(self, reader: Any) -> Any:
        return await read_request(reader)

    async def _route(self, method: str, path: str, body: bytes) -> Reply:
        return await self.routes.dispatch(method, path, body)

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, payload: Payload,
                              content_type: str, *, close: bool,
                              head_only: bool = False) -> None:
        await write_response(writer, status, payload, content_type,
                             close=close, head_only=head_only)

    async def run_until_signal(self, *, name: str, detail: str,
                               draining: str, banner: bool = True) -> None:
        """Serve until SIGTERM/SIGINT, then ``self.shutdown()``; with
        ``banner``, print the listening line supervisors and smoke
        scripts parse for the port, and the drain lines."""
        def say(text: str) -> None:
            if banner:
                print(f"{name} {text}", flush=True)

        port = await self.start()
        say(f"listening on http://{self.host}:{port} ({detail})")
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # non-Unix loops
                pass
        try:
            await stop.wait()
            say(f"{draining}...")
            await self.shutdown()
            say("drained; bye")
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)


class BackgroundServer:
    """Serve an :class:`HttpServer` on a fresh event loop in a daemon
    thread, for blocking callers (tests, the in-process fleet).

    The constructor returns once the server listens, or raises its
    start-up error; :meth:`close` runs ``shutdown()`` on that loop and
    joins the thread.
    """

    def __init__(self, server: HttpServer, *,
                 name: str = "http-server") -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        listening = threading.Event()

        async def serve() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await server.start()
            except BaseException as exc:  # noqa: BLE001 — raised below
                self._error = exc
                return
            finally:
                listening.set()
            await self._stop.wait()
            await server.shutdown()

        self._thread = threading.Thread(target=lambda: asyncio.run(serve()),
                                        daemon=True, name=name)
        self._thread.start()
        if not listening.wait(THREAD_TIMEOUT_S):
            raise RuntimeError(f"{name} did not start in {THREAD_TIMEOUT_S}s")
        if self._error is not None:
            self._thread.join(THREAD_TIMEOUT_S)
            raise self._error

    @property
    def port(self) -> int:
        return self.server.port

    def running(self) -> bool:
        return self._thread.is_alive()

    def stop(self) -> None:
        """Ask the loop to run ``shutdown()``; returns at once."""
        with contextlib.suppress(RuntimeError):  # the loop already closed
            self._loop.call_soon_threadsafe(self._stop.set)

    def join(self, timeout_s: float = THREAD_TIMEOUT_S) -> bool:
        """Wait for the thread to end; whether it did."""
        self._thread.join(timeout_s)
        return not self._thread.is_alive()

    def close(self) -> None:
        """Shut the server down and join its thread; raises if the
        thread is still running after :data:`THREAD_TIMEOUT_S`."""
        self.stop()
        if not self.join():
            raise RuntimeError(f"{self._thread.name} did not stop in "
                               f"{THREAD_TIMEOUT_S}s")

    kill = close  # a thread cannot be killed; the pool's hard stop waits


# --------------------------------------------------------------------- #
# clients
# --------------------------------------------------------------------- #

class HttpClient:
    """Keep-alive client for one ``host:port``.

    Idle connections are pooled (up to :data:`POOL_SIZE`); a failed
    exchange is retried once on a fresh dial, since a pooled connection
    may have been closed by the server.  Transport failures raise
    :class:`ConnectionError`, the per-call timeout
    :class:`asyncio.TimeoutError`.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._idle: List[Tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []

    async def request(self, method: str, path: str, body: bytes = b"", *,
                      timeout_s: float = CLIENT_TIMEOUT_S,
                      ) -> Tuple[int, bytes]:
        """Send one request; returns ``(status, body)``."""
        return await asyncio.wait_for(self._exchange(method, path, body),
                                      timeout_s)

    async def _exchange(self, method: str, path: str,
                        body: bytes) -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: {JSON_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        for attempt in (1, 2):
            conn = self._idle.pop() if attempt == 1 and self._idle else None
            try:
                if conn is None:
                    conn = await asyncio.open_connection(
                        self.host, self.port, limit=MAX_LINE_BYTES)
                reader, writer = conn
                writer.write(head + body)
                await writer.drain()
                status, headers, payload = await _read_response(
                    reader, head_only=method == "HEAD")
            except (OSError, ValueError, asyncio.IncompleteReadError,
                    HttpError) as exc:
                if conn is not None:
                    conn[1].close()
                if attempt == 2:
                    raise ConnectionError(
                        f"{self.host}:{self.port}: {exc}") from exc
                continue
            except BaseException:  # cancelled mid-exchange: it is torn
                if conn is not None:
                    conn[1].close()
                raise
            if (headers.get("connection", "").lower() != "close"
                    and len(self._idle) < POOL_SIZE):
                self._idle.append(conn)
            else:
                writer.close()
            return status, payload
        raise AssertionError("unreachable")

    async def close(self) -> None:
        """Close every parked connection."""
        idle, self._idle = self._idle, []
        for _, writer in idle:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


def fetch(host: str, port: int, method: str, path: str, body: bytes = b"",
          *, timeout_s: float = 120.0) -> Tuple[int, Any]:
    """One blocking request on a fresh connection.

    Returns ``(status, doc)``: the decoded JSON body, or ``None`` when
    the body is empty.  Transport failures raise :class:`ConnectionError`
    (or ``OSError``).
    """
    import http.client  # not on the servers' import path

    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": JSON_CONTENT_TYPE})
        reply = conn.getresponse()
        payload = reply.read()
    except http.client.HTTPException as exc:
        raise ConnectionError(f"{host}:{port}: {exc!r}") from exc
    finally:
        conn.close()
    return reply.status, json.loads(payload) if payload else None
