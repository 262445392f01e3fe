"""repro.service.http beyond the wire suite: the keep-alive client, the
blocking helper, and the server loop's last-resort 500."""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import time

import pytest

from repro.service.http import HttpClient, HttpServer, RouteTable, fetch

from .test_server import ServerThread


async def _scripted(replies):
    """A server answering each request with the next scripted bytes;
    ``None`` answers nothing (the client must time out), and a reply
    ending in ``b"!"`` closes the connection after it is sent."""
    script = list(replies)
    dials = []

    async def handle(reader, writer):
        dials.append(1)
        try:
            while script:
                await reader.readuntil(b"\r\n\r\n")
                reply = script.pop(0)
                if reply is None:
                    await asyncio.sleep(3600)
                writer.write(reply.rstrip(b"!"))
                await writer.drain()
                if reply.endswith(b"!"):
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], dials


OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"


def test_stale_pooled_connection_is_retried_on_a_fresh_dial():
    async def go():
        # The first reply claims keep-alive but the server then closes.
        server, port, dials = await _scripted([OK + b"!", OK])
        client = HttpClient("127.0.0.1", port)
        try:
            first = await client.request("GET", "/a", timeout_s=5)
            second = await client.request("GET", "/b", timeout_s=5)
        finally:
            await client.close()
            server.close()
        return first, second, len(dials)

    first, second, dials = asyncio.run(go())
    assert first == second == (200, b"{}")
    assert dials == 2


def test_head_reply_has_no_body_and_keeps_the_connection():
    head = (b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n"
            b"Connection: keep-alive\r\n\r\n")

    async def go():
        server, port, dials = await _scripted([head, OK])
        client = HttpClient("127.0.0.1", port)
        try:
            replies = [await client.request("HEAD", "/a", timeout_s=5),
                       await client.request("GET", "/a", timeout_s=5)]
        finally:
            await client.close()
            server.close()
        return replies, len(dials)

    replies, dials = asyncio.run(go())
    assert replies == [(200, b""), (200, b"{}")]
    assert dials == 1


def test_timeout_raises_and_drops_the_connection():
    async def go():
        server, port, _ = await _scripted([None])
        client = HttpClient("127.0.0.1", port)
        try:
            with pytest.raises(asyncio.TimeoutError):
                await client.request("GET", "/slow", timeout_s=0.2)
            return len(client._idle)
        finally:
            await client.close()
            server.close()

    assert asyncio.run(go()) == 0


def test_fetch_decodes_json_answers_and_errors():
    with ServerThread() as server:
        status, doc = fetch("127.0.0.1", server.port, "GET", "/v1/health")
        assert status == 200 and doc["status"] == "ok"
        status, doc = fetch("127.0.0.1", server.port, "POST", "/v1/solve",
                            b"{nope")
        assert status == 400 and doc["error"]["code"] == "bad_request"


def test_handler_crash_is_answered_500_and_logged(caplog):
    class Crashing(HttpServer):
        def __init__(self):
            super().__init__("127.0.0.1", 0)
            self.routes = RouteTable({"/boom": {"GET": self._boom}})

        async def _boom(self, call):
            raise RuntimeError("boom")

    async def go():
        server = Crashing()
        port = await server.start()
        client = HttpClient("127.0.0.1", port)
        try:
            return await client.request("GET", "/boom", timeout_s=5)
        finally:
            await client.close()
            await server._close_connections()

    with caplog.at_level(logging.ERROR, logger="repro.service.http"):
        status, body = asyncio.run(go())
    assert status == 500
    assert json.loads(body)["error"]["code"] == "internal"
    assert "RuntimeError: boom" in caplog.text


def test_shutdown_does_not_wait_out_an_idle_keep_alive_connection():
    with ServerThread() as server:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            # The connection is now idle, parked on its next request.
            t0 = time.perf_counter()
            server._runner.close()
            assert time.perf_counter() - t0 < 0.5
            assert sock.recv(65536) == b""  # closed by the server


def test_shutdown_still_answers_the_request_in_flight():
    class Slow(HttpServer):
        def __init__(self):
            super().__init__("127.0.0.1", 0)
            self.started = asyncio.Event()
            self.routes = RouteTable({"/slow": {"GET": self._slow}})

        async def _slow(self, call):
            self.started.set()
            await asyncio.sleep(0.3)
            return 200, {"ok": True}

    async def go():
        server = Slow()
        port = await server.start()
        client = HttpClient("127.0.0.1", port)
        try:
            reply = asyncio.create_task(
                client.request("GET", "/slow", timeout_s=5))
            await server.started.wait()
            await server._close_connections()
            return await reply
        finally:
            await client.close()

    status, body = asyncio.run(go())
    assert status == 200 and json.loads(body) == {"ok": True}
