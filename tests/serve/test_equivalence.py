"""Served answers are byte-identical to batch answers and live engine reads.

The proof the tentpole hangs on: a server answering over atomic
snapshot indexes **while ingest runs concurrently** produces, at three
checkpoint days and at the final day, exactly the frames a from-scratch
batch replay of the same feed prefix produces — compared as raw wire
bytes, not parsed values, so the canonical encoding is part of the
contract.

Concurrency shape: the ingest thread replays the feed and pauses only
momentarily at each checkpoint (a bounded handshake) so the captured
frames land on a known day; a separate churn thread hammers the server
with queries for the whole run, asserting every response is well-formed
and the observed days never go backwards across atomic index swaps.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve.client import request_once
from repro.serve.index import ServeIndex, SnapshotSwapper
from repro.serve.protocol import Request, encode_frame, ok_response
from repro.serve.server import ServeDispatcher, ThreadedServer
from repro.stream.engine import StreamEngine


def raw_request(host: str, port: int, request: Request) -> bytes:
    """One request, returning the raw response line off the wire."""

    async def run() -> bytes:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(request.to_frame())
            await writer.drain()
            return await reader.readline()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return asyncio.run(run())


def reference_index(world, feed, day: int) -> ServeIndex:
    """A from-scratch replay of the exact partition prefix the live
    ingest had applied when its checkpoint handshake fired: everything
    up to and including the partition that completed gTLD *day*."""
    engine = StreamEngine(world.horizon, windows=feed.windows())
    for partition in feed.days():
        engine.ingest(partition)
        latest = engine.latest_day("gtld")
        if latest is not None and latest >= day:
            break
    return ServeIndex.build(engine)


def full_reference_index(world, feed) -> ServeIndex:
    """A from-scratch replay of the whole feed."""
    engine = StreamEngine(world.horizon, windows=feed.windows())
    engine.ingest_feed(feed.days())
    return ServeIndex.build(engine)


def checkpoint_requests(day: int, domain: str):
    """The frames captured at one checkpoint (fixed ids → fixed bytes)."""
    return [
        Request(
            op="aggregate",
            params={"scope": "gtld"},
            id=f"chk-{day}-aggregate",
        ),
        Request(
            op="lookup",
            params={"domain": domain, "scope": "gtld"},
            id=f"chk-{day}-lookup",
        ),
        Request(
            op="history",
            params={"domain": domain},
            id=f"chk-{day}-history",
        ),
    ]


def expected_frame(index: ServeIndex, request: Request) -> bytes:
    if request.op == "aggregate":
        result = index.aggregate(request.params["scope"])
    elif request.op == "lookup":
        result = index.lookup(
            request.params["domain"], scope=request.params["scope"]
        )
    else:
        result = index.history_payload(request.params["domain"])
    return encode_frame(ok_response(request.id, result))


def test_served_answers_byte_identical_under_concurrent_ingest(
    serve_world, replay_feed, batch_results, protected_domain
):
    domain, provider = protected_domain
    horizon = serve_world.horizon
    checkpoints = [horizon // 4, horizon // 2, (3 * horizon) // 4]
    assert len(set(checkpoints)) == 3

    engine = StreamEngine(horizon, windows=replay_feed.windows())
    swapper = SnapshotSwapper(engine)
    swapper.attach()
    dispatcher = ServeDispatcher(swapper.current_index)

    reached = {day: threading.Event() for day in checkpoints}
    acked = {day: threading.Event() for day in checkpoints}
    ingest_errors = []

    def ingest() -> None:
        try:
            for partition in replay_feed.days():
                engine.ingest(partition)
                latest = engine.latest_day("gtld")
                for day in checkpoints:
                    if (
                        latest is not None
                        and latest >= day
                        and not reached[day].is_set()
                    ):
                        reached[day].set()
                        # Bounded handshake: the main thread captures
                        # this day's frames, then ingest rolls on.
                        acked[day].wait(timeout=120)
        except Exception as error:  # surfaced after join
            ingest_errors.append(error)
            for event in reached.values():
                event.set()

    churn_stop = threading.Event()
    churn_days = []
    churn_errors = []

    def churn(host: str, port: int) -> None:
        try:
            while not churn_stop.is_set():
                response = request_once(
                    host, port, "aggregate", {"scope": "gtld"}
                )
                if not response["ok"]:
                    churn_errors.append(response)
                    return
                churn_days.append(response["result"]["day"])
        except Exception as error:
            churn_errors.append(error)

    captures = {}
    with ThreadedServer(dispatcher) as (host, port):
        ingester = threading.Thread(target=ingest, daemon=True)
        ingester.start()
        churner = threading.Thread(
            target=churn, args=(host, port), daemon=True
        )
        churner.start()
        try:
            for day in checkpoints:
                assert reached[day].wait(timeout=240), (
                    f"checkpoint day {day} never reached"
                )
                assert not ingest_errors, ingest_errors
                captures[day] = [
                    raw_request(host, port, request)
                    for request in checkpoint_requests(day, domain)
                ]
                acked[day].set()
            ingester.join(timeout=240)
            assert not ingester.is_alive(), "ingest never finished"
        finally:
            for event in acked.values():
                event.set()
            churn_stop.set()
            churner.join(timeout=60)

        assert not ingest_errors, ingest_errors
        assert not churn_errors, churn_errors

        # Concurrency held up: the churn saw live traffic during
        # ingest, every response was ok, and the atomically swapped
        # days never moved backwards.
        assert len(churn_days) >= 10
        observed = [day for day in churn_days if day is not None]
        assert observed == sorted(observed)

        # Byte identity at every checkpoint: each captured frame equals
        # the frame a from-scratch batch replay of the same feed prefix
        # encodes. (The handshake pinned the index at the scope's own
        # day boundary, so the prefix is exact.)
        for day in checkpoints:
            reference = reference_index(serve_world, replay_feed, day)
            assert reference.scope("gtld").day == day
            for request, captured in zip(
                checkpoint_requests(day, domain), captures[day]
            ):
                assert captured == expected_frame(reference, request), (
                    f"frame mismatch at day {day} op {request.op}"
                )

        # Final day: the live served index equals both the full batch
        # replay (bytes) and the batch study's detection (values).
        final_day = engine.latest_day("gtld")
        full_reference = full_reference_index(serve_world, replay_feed)
        for request in checkpoint_requests(final_day, domain):
            assert raw_request(host, port, request) == expected_frame(
                full_reference, request
            )

        served = swapper.current_index().aggregate("gtld")
        batch_detection = batch_results.detection_gtld
        for name, count in served["providers"].items():
            assert count == batch_detection.providers[name].total[
                final_day
            ]

        # And the live engine state's own reads agree.
        state = engine.scope("gtld")
        assert served == {
            "scope": "gtld",
            "day": final_day,
            "domains_seen": state.domains_seen,
            "any_use": state.any_adoption(final_day),
            "providers": {
                provider: state.adoption(provider, final_day)
                for provider in state.provider_names
            },
        }
