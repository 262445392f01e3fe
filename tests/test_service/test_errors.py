"""The unified error taxonomy: one envelope, stable codes, real headers.

Worker and router errors are deliberately indistinguishable on the
wire: ``{"error": {"code", "message", "detail"}}`` with one stable
string code per status, and 405 responses carrying a real ``Allow``
header.  These tests pin the envelope at the unit level and then over
live sockets against both the single server and the sharded router.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import SCHEMA_VERSION, SolveRequest
from repro.graphs import gnp, uniform_weights
from repro.service.errors import (
    ERROR_CODES,
    HEADERS_KEY,
    HTTP_REASONS,
    error_doc,
    pop_headers,
)
from repro.service.fleet import start_fleet

from .test_server import ServerThread, http


@pytest.fixture
def instance():
    return uniform_weights(gnp(16, 0.2, seed=1), 1, 8, seed=2)


def raw_request(port, request_bytes):
    """One raw HTTP exchange; returns (status, headers_dict, body)."""

    async def go():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(request_bytes)
        await writer.drain()
        status_line = await reader.readline()
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0))
        if length:
            body = await reader.readexactly(length)
        writer.close()
        await writer.wait_closed()
        return int(status_line.split()[1]), headers, body

    return asyncio.run(go())


class TestTaxonomyUnit:
    def test_every_code_is_a_stable_string(self):
        assert set(ERROR_CODES) == {400, 404, 405, 409, 413, 429,
                                    500, 502, 503, 504}
        assert all(code.isidentifier() for code in ERROR_CODES.values())
        assert set(ERROR_CODES) <= set(HTTP_REASONS)

    def test_error_doc_envelope(self):
        status, doc = error_doc(404, "no such thing", detail="abc123")
        assert status == 404
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["error"] == {"code": "not_found",
                                "message": "no such thing",
                                "detail": "abc123"}

    def test_allow_travels_in_private_key_and_pops_clean(self):
        _, doc = error_doc(405, "use POST", allow="POST")
        assert doc[HEADERS_KEY] == {"Allow": "POST"}
        headers = pop_headers(doc)
        assert headers == {"Allow": "POST"}
        assert HEADERS_KEY not in doc, "popped before serialization"
        assert pop_headers(doc) == {}
        assert pop_headers("not a dict") == {}

    def test_unknown_status_falls_back_to_numeric_code(self):
        _, doc = error_doc(418, "teapot")
        assert doc["error"]["code"] == "418"


class TestServerTaxonomy:
    @pytest.mark.parametrize("method,path,body,status,code", [
        ("POST", "/v1/solve", b"{nope", 400, "bad_request"),
        ("GET", "/v1/nowhere", b"", 404, "not_found"),
        ("GET", "/v1/solve", b"", 405, "method_not_allowed"),
        ("DELETE", "/v1/health", b"", 405, "method_not_allowed"),
    ])
    def test_status_to_code_mapping(self, method, path, body, status, code):
        with ServerThread() as srv:
            got_status, doc = http(srv.port, method, path, body)
        assert got_status == status
        assert doc["error"]["code"] == code
        assert doc["schema"] == SCHEMA_VERSION
        assert "message" in doc["error"] and "detail" in doc["error"]

    def test_404_detail_carries_the_offending_ref(self, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            _, doc = http(srv.port, "GET", "/v1/graphs/" + "e" * 64)
        assert doc["error"]["code"] == "not_found"
        assert doc["error"]["detail"] == "e" * 64

    def test_405_sends_allow_header(self):
        with ServerThread() as srv:
            status, headers, body = raw_request(
                srv.port,
                b"GET /v1/solve HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n")
        assert status == 405
        assert headers["allow"] == "POST"
        assert json.loads(body)["error"]["code"] == "method_not_allowed"

    def test_graphs_405_allows_get_head_delete(self, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            status, headers, _ = raw_request(
                srv.port,
                b"PUT /v1/graphs/" + b"a" * 64 + b" HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 0\r\n"
                b"Connection: close\r\n\r\n")
        assert status == 405
        assert headers["allow"] == "GET, HEAD, DELETE"

    def test_queue_full_is_429(self, instance):
        # Covered behaviorally in test_engine; here we only pin the
        # wire code for the taxonomy.
        assert ERROR_CODES[429] == "queue_full"

    def test_deadline_is_504(self):
        assert ERROR_CODES[504] == "deadline_exceeded"


class TestRouterTaxonomy:
    def test_router_errors_match_worker_envelope(self):
        fleet = start_fleet(workers=2, threaded=True)
        try:
            status, doc = http(fleet.port, "GET", "/v1/nowhere")
            assert status == 404
            assert doc["error"]["code"] == "not_found"
            status, doc = http(fleet.port, "GET", "/v1/solve")
            assert status == 405
            assert doc["error"]["code"] == "method_not_allowed"
        finally:
            fleet.close()

    def test_router_405_sends_allow_header(self):
        fleet = start_fleet(workers=1, threaded=True)
        try:
            status, headers, body = raw_request(
                fleet.port,
                b"GET /v1/solve HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n")
            assert status == 405
            assert headers["allow"] == "POST"
            assert json.loads(body)["error"]["code"] == "method_not_allowed"
        finally:
            fleet.close()

    def test_worker_error_passes_through_unchanged(self, instance):
        """A 404 originating on a worker reaches the client in the same
        envelope the router itself emits — indistinguishable origins."""
        fleet = start_fleet(workers=2, threaded=True)
        try:
            req = SolveRequest(graph=instance, algorithm="thm2", seed=1,
                               params={"eps": 0.5})
            doc = req.to_doc()
            doc["graph"] = {"ref": "f" * 64}
            status, err = http(fleet.port, "POST", "/v1/solve",
                               json.dumps(doc).encode())
            assert status == 404
            assert err["error"]["code"] == "not_found"
            assert err["schema"] == SCHEMA_VERSION
        finally:
            fleet.close()
