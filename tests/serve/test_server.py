"""The asyncio server: framing, dispatch, self-protection, drain."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.client import ServeClient, request_mix, request_once
from repro.serve.guard import BLOCK_AFTER, AdmissionGuard
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
)
from repro.serve.ratelimit import SlidingWindowLimiter
from repro.serve.server import ServeDispatcher, ThreadedServer


@pytest.fixture()
def dispatcher(served_stack):
    _, swapper = served_stack
    return ServeDispatcher(swapper.current_index)


@pytest.fixture()
def server(dispatcher):
    threaded = ThreadedServer(dispatcher)
    host, port = threaded.start()
    yield host, port
    threaded.stop()


class TestRoundTrips:
    def test_health(self, server, served_stack):
        host, port = server
        _, swapper = served_stack
        response = request_once(host, port, "health")
        assert response["ok"] is True
        assert response["v"] == PROTOCOL_VERSION
        result = response["result"]
        assert result["status"] == "ok"
        assert result["version"] == swapper.current_index().version
        assert sorted(result["days"]) == (
            swapper.current_index().scope_names
        )

    def test_lookup_and_id_echo(
        self, server, served_stack, protected_domain
    ):
        host, port = server
        domain, _ = protected_domain

        async def run():
            client = await ServeClient.connect(host, port)
            try:
                return await client.call(
                    "lookup", {"domain": domain}, request_id="req-7"
                )
            finally:
                await client.close()

        response = asyncio.run(run())
        assert response["id"] == "req-7"
        assert response["ok"] is True
        assert response["result"]["domain"] == domain

    def test_history_and_aggregate(
        self, server, served_stack, protected_domain
    ):
        host, port = server
        domain, provider = protected_domain
        _, swapper = served_stack
        index = swapper.current_index()

        history = request_once(host, port, "history", {"domain": domain})
        assert history["ok"] is True
        assert provider in history["result"]["scopes"]["gtld"]

        aggregate = request_once(
            host, port, "aggregate", {"scope": "gtld"}
        )
        assert aggregate["result"] == index.aggregate("gtld")

        single = request_once(
            host,
            port,
            "aggregate",
            {"scope": "gtld", "provider": provider},
        )
        assert single["result"]["adoption"] == index.adoption(provider)

    def test_snapshot_forms(self, server, served_stack):
        host, port = server
        _, swapper = served_stack
        index = swapper.current_index()
        full = request_once(host, port, "snapshot")
        assert full["result"] == json.loads(
            json.dumps(index.snapshot_payload())
        )
        scoped = request_once(
            host, port, "snapshot", {"scope": "gtld"}
        )
        assert scoped["result"]["version"] == index.version
        assert scoped["result"]["day"] == index.scope("gtld").day

    def test_many_requests_one_connection(self, server):
        host, port = server

        async def run():
            client = await ServeClient.connect(host, port)
            try:
                return [
                    await client.call("aggregate", {"scope": "gtld"})
                    for _ in range(20)
                ]
            finally:
                await client.close()

        responses = asyncio.run(run())
        assert all(r["ok"] for r in responses)
        assert len({json.dumps(r["result"]) for r in responses}) == 1

    def test_concurrent_mix_in_request_order(self, server):
        host, port = server
        requests = [
            ("aggregate", {"scope": scope})
            for scope in ("gtld", "nl", "alexa")
        ] * 10 + [("health", {}), ("snapshot", {})]
        responses = request_mix(host, port, requests, connections=6)
        assert len(responses) == len(requests)
        assert all(r["ok"] for r in responses)
        for (op, params), response in zip(requests, responses):
            if op == "aggregate":
                assert response["result"]["scope"] == params["scope"]


class TestErrorPaths:
    def test_bad_version_frame(self, server):
        host, port = server

        async def run():
            client = await ServeClient.connect(host, port)
            try:
                return await client.call_frame(
                    encode_frame({"v": 99, "op": "health"})
                )
            finally:
                await client.close()

        response = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"

    def test_unknown_scope_is_bad_params(self, server):
        host, port = server
        response = request_once(
            host, port, "aggregate", {"scope": "klingon"}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-params"

    def test_not_yet_ingested_day_is_bad_params(
        self, server, served_stack
    ):
        host, port = server
        _, swapper = served_stack
        horizon = swapper.current_index().horizon
        response = request_once(
            host, port, "aggregate", {"scope": "gtld", "day": horizon}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-params"

    def test_oversized_frame_answered_then_closed(self, server):
        host, port = server

        async def run():
            client = await ServeClient.connect(host, port)
            big = b'{"pad": "' + b"x" * (80 * 1024) + b'"}\n'
            response = await client.call_frame(big)
            # The server hung up after answering; the next read fails.
            with pytest.raises(ConnectionError):
                await client.call("health")
            await client.close()
            return response

        response = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"]["code"] == "too-large"


class TestSelfProtection:
    def test_burst_is_limited_but_compliant_clients_are_not(
        self, served_stack
    ):
        _, swapper = served_stack
        guard = AdmissionGuard(SlidingWindowLimiter(limit=5, window=1000))
        # One denial short of an auto-block keeps this test on pure
        # rate limiting.
        denials = BLOCK_AFTER - 1
        dispatcher = ServeDispatcher(swapper.current_index, guard=guard)
        threaded = ThreadedServer(dispatcher)
        host, port = threaded.start()
        try:
            # All local connections share the 127.0.0.1 peer key, so
            # one hammering burst exhausts the budget...
            burst = request_mix(
                host,
                port,
                [("aggregate", {"scope": "gtld"})] * (5 + denials),
                connections=2,
            )
            admitted = [r for r in burst if r["ok"]]
            denied = [r for r in burst if not r["ok"]]
            assert len(admitted) == 5
            assert len(denied) == denials
            assert {r["error"]["code"] for r in denied} == {
                "rate-limited"
            }
            assert all(
                r["error"]["retry_after"] > 0 for r in denied
            )
            # ...but health stays answerable for monitoring.
            health = request_once(host, port, "health")
            assert health["ok"] is True
            stats = health["result"]["guard"]
            assert stats["ok"] == 5
            assert stats["rate-limited"] == denials
        finally:
            threaded.stop()

    def test_requests_handled_counts_only_admitted(self, served_stack):
        _, swapper = served_stack
        guard = AdmissionGuard(SlidingWindowLimiter(limit=2, window=100))
        dispatcher = ServeDispatcher(swapper.current_index, guard=guard)
        for _ in range(5):
            dispatcher.handle_line(
                encode_frame(
                    {
                        "v": PROTOCOL_VERSION,
                        "op": "aggregate",
                        "params": {"scope": "gtld"},
                    }
                ),
                "client",
            )
        assert dispatcher.requests_handled == 2


class TestGracefulDrain:
    def test_stop_refuses_new_connections(self, dispatcher):
        threaded = ThreadedServer(dispatcher)
        host, port = threaded.start()
        assert request_once(host, port, "health")["ok"] is True
        threaded.stop()
        with pytest.raises(OSError):
            request_once(host, port, "health")

    def test_idle_connections_closed_on_drain(self, dispatcher):
        threaded = ThreadedServer(dispatcher)
        host, port = threaded.start()

        async def open_idle():
            reader, writer = await asyncio.open_connection(host, port)
            return reader, writer

        loop = asyncio.new_event_loop()
        try:
            reader, writer = loop.run_until_complete(open_idle())
            threaded.stop()
            line = loop.run_until_complete(reader.readline())
            assert line == b""  # server closed the idle connection
            writer.close()
        finally:
            loop.close()

    def test_context_manager_round_trip(self, dispatcher):
        with ThreadedServer(dispatcher) as (host, port):
            assert request_once(host, port, "health")["ok"] is True
