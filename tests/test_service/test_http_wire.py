"""Hostile bytes against both front doors: the worker server and the router.

Every case runs over a raw socket against the single server
(``ServerThread``) and against the sharded router over in-process
workers (``start_fleet(threaded=True)``), each exchange under a socket
timeout.  Both doors must answer every input with a well-formed reply
that is either the route's normal answer or a taxonomy error, close the
connection after a 400 or 413 (without a reset that would cut the reply
off a client still sending), send no body on ``HEAD``, never log at
ERROR on the ``asyncio`` logger, and agree with each other on status,
``error.code`` and ``Allow``.

Nothing here imports the HTTP codec itself: the wire is the contract.
"""

from __future__ import annotations

import json
import logging
import socket
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.errors import ERROR_CODES
from repro.service.fleet import start_fleet

from .test_server import ServerThread

TIMEOUT_S = 10.0
MAX_BODY_BYTES = 32 * 1024 * 1024
GRAPH_DOC = b'{"spec": "cycle:6", "weights": "uniform:1,5", "seed": 3}'
GET_ROUTES = ("/v1/health", "/v1/ready", "/v1/metrics",
              "/v1/metrics?format=prometheus", "/v1/algorithms",
              "/v1/graphs/{ref}")


class Reply(NamedTuple):
    status: int
    headers: Dict[str, str]
    body: bytes

    def signature(self) -> Tuple[int, Optional[str], Optional[str]]:
        """What both doors must agree on: status, error code, Allow."""
        code = None
        if self.status != 200 and self.body:
            code = json.loads(self.body)["error"]["code"]
        return self.status, code, self.headers.get("allow")


class _Errors(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records: List[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(scope="module")
def asyncio_errors():
    handler = _Errors()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield handler.records
    finally:
        logger.removeHandler(handler)


@pytest.fixture(scope="module")
def doors(tmp_path_factory, asyncio_errors):
    """``{"server": port, "router": port}`` plus a registered graph ref."""
    fleet = start_fleet(workers=2, threaded=True,
                        graph_store=str(tmp_path_factory.mktemp("fleet")))
    try:
        with ServerThread(
                graph_store=str(tmp_path_factory.mktemp("serve"))) as server:
            ports = {"server": server.port, "router": fleet.port}
            refs = set()
            for port in ports.values():
                (reply,), _ = exchange(port, http_request(
                    "POST", "/v1/graphs", GRAPH_DOC))
                assert reply.status == 200, reply
                refs.add(json.loads(reply.body)["graph_ref"])
            assert len(refs) == 1
            yield ports, refs.pop(), fleet
    finally:
        fleet.close()


@pytest.fixture(autouse=True)
def no_asyncio_errors(asyncio_errors):
    yield
    time.sleep(0.05)  # let a connection task that is closing log first
    logged = [r.getMessage() for r in asyncio_errors]
    asyncio_errors.clear()
    assert logged == []


# --------------------------------------------------------------------- #
# the raw client
# --------------------------------------------------------------------- #

def http_request(method: str, target: str, body: bytes = b"",
            headers: Tuple[str, ...] = ()) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: test",
             f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _read_reply(stream, head_only: bool) -> Reply:
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 ") and status_line.endswith(
        b"\r\n"), f"malformed status line {status_line!r}"
    status = int(status_line.split()[1])
    headers: Dict[str, str] = {}
    while True:
        line = stream.readline()
        assert line.endswith(b"\r\n"), f"malformed header line {line!r}"
        if line == b"\r\n":
            break
        name, sep, value = line.decode("latin-1").partition(":")
        assert sep, f"malformed header line {line!r}"
        headers[name.strip().lower()] = value.strip()
    assert headers["connection"] in ("keep-alive", "close")
    length = int(headers["content-length"])
    body = b"" if head_only else stream.read(length)
    assert len(body) == (0 if head_only else length)
    if status != 200 and body:
        doc = json.loads(body)
        assert doc["error"]["code"] == ERROR_CODES[status], doc
        assert {"message", "detail"} <= set(doc["error"])
    return Reply(status, headers, body)


def _closed(stream) -> bool:
    """Whether the server closes the connection (EOF or reset) within
    the timeout; bytes still in flight before the close are skipped."""
    try:
        while stream.read1(65536):
            pass
        return True
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


def exchange(port: int, data: bytes, *, head: Tuple[bool, ...] = (False,),
             half_close: bool = False,
             probe_close: bool = False) -> Tuple[List[Reply], Optional[bool]]:
    """Send ``data`` on a fresh connection and read one reply per entry
    of ``head`` (``True`` = the reply answers a HEAD, so has no body);
    with ``probe_close``, also report whether the server then closed."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=TIMEOUT_S) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # rejected (and closed) before everything was read
        stream = sock.makefile("rb")
        replies = [_read_reply(stream, head_only) for head_only in head]
        return replies, _closed(stream) if probe_close else None


@pytest.fixture(params=["server", "router"])
def door(request, doors) -> int:
    """The port of one front door; every fixed case runs on both and
    pins the exact answer, so the two doors agree by construction."""
    ports, _ref, _fleet = doors
    return ports[request.param]


def assert_rejected(port: int, data: bytes, status: int, **kwargs) -> None:
    (reply,), closed = exchange(port, data, probe_close=True, **kwargs)
    assert reply.signature() == (status, ERROR_CODES[status], None), reply
    assert reply.headers["connection"] == "close"
    assert closed, f"connection left open after {status}"


# --------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("line", [
    b"NONSENSE\r\n\r\n",
    b"GET /v1/health\r\n\r\n",
    b"GET /v1/health HTTP/1.1 extra\r\n\r\n",
])
def test_malformed_request_line_400(door, line):
    assert_rejected(door, line, 400)


@pytest.mark.parametrize("length, status", [
    ("abc", 400),
    ("-5", 400),
    (str(MAX_BODY_BYTES + 1), 413),
])
def test_bad_content_length(door, length, status):
    data = (f"POST /v1/solve HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n").encode()
    assert_rejected(door, data, status)


def test_client_still_sending_reads_its_413(door):
    """An over-limit body is refused after the headers; the door drains
    the rest instead of resetting the connection, so a client that
    sends its whole body before reading still gets the 413."""
    data = http_request("POST", "/v1/solve", b"x" * (MAX_BODY_BYTES + 1))
    with socket.create_connection(("127.0.0.1", door),
                                  timeout=TIMEOUT_S) as sock:
        sock.sendall(data)
        reply = _read_reply(sock.makefile("rb"), head_only=False)
    assert reply.signature() == (413, "payload_too_large", None), reply


def test_header_flood_400(door):
    # 101 header lines: Host and Content-Length plus 99 more.
    flood = tuple(f"X-Flood-{i}: {i}" for i in range(99))
    assert_rejected(door, http_request("GET", "/v1/health", headers=flood),
                    400)


def test_header_line_of_70kb_400(door):
    long_line = ("X-Long: " + "a" * 70_000,)
    assert_rejected(door,
                    http_request("GET", "/v1/health", headers=long_line), 400)


def test_body_cut_short_then_half_close_400(door):
    data = (b"POST /v1/solve HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 100\r\n\r\n{\"schema\"")
    assert_rejected(door, data, 400, half_close=True)


def test_pipelined_requests_in_one_write(door):
    data = (http_request("GET", "/v1/health")
            + http_request("GET", "/v1/algorithms",
                           headers=("Connection: close",)))
    replies, closed = exchange(door, data, head=(False, False),
                               probe_close=True)
    assert [r.status for r in replies] == [200, 200]
    assert json.loads(replies[1].body)["algorithms"]
    assert replies[0].headers["connection"] == "keep-alive"
    assert closed


# --------------------------------------------------------------------- #
# hostile graph bodies
# --------------------------------------------------------------------- #

_HOSTILE_GRAPHS = {
    "spec-negative-size": {"spec": "cycle:-5"},
    "spec-p-above-1": {"spec": "gnp:10,2.5"},
    "negative-weight": {"nodes": [[0, -1.0], [1, 1.0]], "edges": [[0, 1]]},
    "nan-weight": {"nodes": [[0, float("nan")], [1, 1.0]], "edges": [[0, 1]]},
    "self-loop": {"nodes": [[0, 1.0], [1, 1.0]], "edges": [[0, 0]]},
    "unknown-node": {"nodes": [[0, 1.0], [1, 1.0]], "edges": [[0, 7]]},
}


def _hostile_bodies():
    for name, graph in _HOSTILE_GRAPHS.items():
        solve = {"schema": "v2", "algorithm": "mis-luby", "seed": 1,
                 "graph": {"inline": graph}}
        yield pytest.param("/v1/solve", json.dumps(solve).encode(),
                           id=f"solve-{name}")
        yield pytest.param("/v1/graphs", json.dumps(graph).encode(),
                           id=f"graphs-{name}")
    deep = b"[" * 10**5 + b"]" * 10**5
    for route in ("/v1/solve", "/v1/graphs"):
        yield pytest.param(route, deep, id=f"{route[4:]}-nested-1e5")


@pytest.mark.parametrize("route, body", _hostile_bodies())
def test_hostile_graph_body_is_400(door, route, body):
    """A body that is valid JSON (Python's reading of it, NaN included)
    but describes no graph, or nests past the decoder's recursion limit,
    is the client's error on both doors: 400, never a 500."""
    (reply,), _ = exchange(door, http_request("POST", route, body))
    assert reply.signature() == (400, "bad_request", None), reply


def test_file_spec_reads_nothing_on_the_host(door):
    """A ``file:`` spec names a file on the serving host; it is refused
    before anything is read, so no line of the file reaches the reply."""
    solve = {"schema": "v2", "algorithm": "mis-luby", "seed": 1,
             "graph": {"inline": {"spec": f"file:{__file__}"}}}
    (reply,), _ = exchange(door, http_request(
        "POST", "/v1/solve", json.dumps(solve).encode()))
    assert reply.signature() == (400, "bad_request", None), reply
    assert b"Hostile bytes" not in reply.body, reply.body


def test_negative_seed_is_400(door):
    """A seed is a non-negative integer: a negative one is the client's
    error on both doors, not a solver failure reported with 200."""
    solve = {"schema": "v2", "algorithm": "mis-luby", "seed": -1,
             "graph": {"inline": {"spec": "cycle:5"}}}
    (reply,), _ = exchange(door, http_request(
        "POST", "/v1/solve", json.dumps(solve).encode()))
    assert reply.signature() == (400, "bad_request", None), reply


def test_unknown_path_is_404_for_every_method(door):
    for method in ("GET", "HEAD", "POST", "DELETE", "PUT"):
        (reply,), _ = exchange(door, http_request(method, "/v1/nowhere"),
                               head=(method == "HEAD",))
        assert reply.status == 404, method


@pytest.mark.parametrize("method, target, allow", [
    ("GET", "/v1/solve", "POST"),
    ("DELETE", "/v1/graphs", "POST"),
    ("PUT", "/v1/graphs/" + "a" * 64, "GET, HEAD, DELETE"),
    ("GET", "/v1/graphs/" + "a" * 64 + "/deltas", "POST"),
    ("POST", "/v1/health", "GET, HEAD"),
])
def test_405_allow(door, method, target, allow):
    (reply,), _ = exchange(door, http_request(method, target))
    assert reply.signature() == (405, "method_not_allowed", allow)


# --------------------------------------------------------------------- #
# HEAD
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("route", GET_ROUTES)
def test_head_sends_headers_only(doors, door, route):
    """A HEAD answer is the GET answer's head: the very next bytes on
    the connection are the pipelined request's status line."""
    _ports, ref, fleet = doors
    data = (http_request("HEAD", route.format(ref=ref))
            + http_request("GET", "/v1/health",
                           headers=("Connection: close",)))
    started = time.monotonic()
    (head, follow), _ = exchange(door, data, head=(True, False))
    assert time.monotonic() - started < 1.0, "HEAD took too long"
    assert head.status == 200, head
    assert int(head.headers["content-length"]) > 0
    assert follow.status == 200 and json.loads(follow.body)
    assert all(e.alive for e in fleet.server.supervisor.endpoints()), (
        "a HEAD through the router must not mark a worker dead")


# --------------------------------------------------------------------- #
# anything at all
# --------------------------------------------------------------------- #

_TOKEN = st.text(st.characters(min_codepoint=0x21, max_codepoint=0xFF),
                 min_size=1, max_size=12)
_METHODS = st.sampled_from(["GET", "HEAD", "POST", "DELETE", "PUT",
                            "get"]) | _TOKEN
_PATHS = st.sampled_from([
    "/v1/health", "/v1/ready", "/v1/metrics", "/v1/metrics?format=xml",
    "/v1/algorithms", "/v1/solve", "/v1/graphs", "/v1/graphs/" + "0" * 64,
    "/v1/graphs/" + "0" * 64 + "/deltas", "/v1/graphs/x/y", "/v1/nowhere",
    "/",
]) | _TOKEN.map(lambda t: "/" + t)
_VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", "FTP"])
_FIELD_VALUES = st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF,
                                      blacklist_characters="\x7f"),
                        max_size=20)
_HEADERS = st.lists(st.tuples(
    st.sampled_from(["Host", "Connection", "Content-Type", "Expect",
                     "Transfer-Encoding", "Content-Length"]) | _TOKEN,
    _FIELD_VALUES), max_size=4)
_BODIES = st.sampled_from([
    b"",
    b"{nope",
    b"[]",
    b"0",
    b'{"schema": "v2"}',
    b'{"ops": []}',
    GRAPH_DOC,
    json.dumps({"schema": "v2", "algorithm": "thm2", "seed": 1,
                "params": {"eps": 0.5},
                "graph": {"inline": {"spec": "cycle:8",
                                     "weights": "uniform:1,5"}}}).encode(),
]) | st.binary(max_size=64)


@st.composite
def _requests(draw) -> bytes:
    line = draw(st.one_of(
        st.builds(lambda m, p, v: f"{m} {p} {v}".encode("latin-1"),
                  _METHODS, _PATHS, _VERSIONS),
        st.binary(min_size=1, max_size=40)))
    body = draw(_BODIES)
    fields = [f"{k}: {v}".encode("latin-1") for k, v in draw(_HEADERS)]
    length = draw(st.sampled_from(["exact", "none", "short", "long"]))
    if length != "none":
        declared = {"exact": len(body), "short": max(0, len(body) - 1),
                    "long": len(body) + 5}[length]
        fields.append(f"Content-Length: {declared}".encode())
    return b"\r\n".join([line, *fields]) + b"\r\n\r\n" + body


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_requests())
def test_any_bytes_get_the_same_well_formed_answer(doors, data):
    """Whatever arrives, both doors answer it with a well-formed reply —
    the route's answer or a taxonomy error, never a 500 — agree on it,
    and close once the client is done (it half-closes after sending)."""
    ports, _ref, _fleet = doors
    tokens = data.split(b"\n", 1)[0].decode("latin-1").split()
    head = bool(tokens) and tokens[0].upper() == "HEAD"
    signatures = {}
    for name, port in ports.items():
        (reply,), closed = exchange(port, data, head=(head,),
                                    half_close=True, probe_close=True)
        assert reply.status == 200 or reply.status in ERROR_CODES, name
        assert reply.status != 500, (name, reply)
        assert closed, name
        signatures[name] = reply.signature()
    assert signatures["server"] == signatures["router"], signatures
