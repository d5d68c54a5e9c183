"""The ``serve_mixed`` server process.

Builds the world, ingests the first gTLD days through a sketch-enabled
``StreamEngine`` with an attached ``SnapshotSwapper`` and serves the
published index over TCP behind an admission guard that never throttles.

The server is a ``ServeServer`` on this process's main-thread event loop
(not a ``ThreadedServer``), so that the calibration kernel can run *in
the serving thread*, every :data:`SERVE_CALIB_INTERVAL_S` while requests
are answered: the speed it reads is the speed the requests saw. (A
kernel run in the mostly idle client reads the speed of a core that has
just woken up, which on this box is both slower and far noisier.)

Started as ``python -m harness.serve_proc`` from ``benchmarks/e2e``.
Talks to the client over stdio, one JSON object per line:

* on start it prints a *ready* line (address, set-up times, the names
  the request mix draws from, the batch pipeline's expected answers);
* ``stats`` on stdin runs the kernel once more and prints cumulative
  kernel runs and seconds, CPU seconds, requests handled and peak RSS;
* ``stop`` (or end of input) drains the server and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Dict, List, Tuple

from harness import mix
from harness.calib import Calibrator
from harness.common import (
    build_world,
    median_setup,
    peak_rss_mib,
    require_program,
)


#: Period of the in-loop calibration kernel while serving.
SERVE_CALIB_INTERVAL_S = 0.1


class Serving:
    """Everything one set-up produces: state ready to be served."""

    def __init__(self, seed: int, scale: int, days: int) -> None:
        from repro.core.pipeline import AdoptionStudy
        from repro.serve.index import SnapshotSwapper
        from repro.sketch.plane import SketchConfig
        from repro.stream.engine import GTLD_SOURCES, StreamEngine
        from repro.stream.feed import SegmentReplayFeed

        self.world = build_world(scale, seed)
        self.study = AdoptionStudy(self.world)
        self.segments = self.study.collect_segments()
        feed = SegmentReplayFeed(
            self.world, self.segments, sources=GTLD_SOURCES
        )
        self.engine = StreamEngine(
            self.world.horizon,
            sources=GTLD_SOURCES,
            windows=feed.windows(),
            sketches=SketchConfig(),
        )
        self.swapper = SnapshotSwapper(self.engine)
        self.swapper.attach()
        self.engine.ingest_feed(feed.days(end=days))
        self.dispatcher = new_dispatcher(self.swapper)


def new_dispatcher(swapper: object) -> object:
    """A dispatcher whose guard is on the path but never throttles."""
    from repro.serve.guard import AdmissionGuard
    from repro.serve.ratelimit import SlidingWindowLimiter
    from repro.serve.server import ServeDispatcher

    return ServeDispatcher(
        swapper.current_index,
        guard=AdmissionGuard(
            SlidingWindowLimiter(limit=10**9, window=1000)
        ),
    )


def expected_answers(
    serving: Serving,
) -> Tuple[List[str], List[str], Dict[str, List[str]], int]:
    """From the batch pipeline: ever-protected and never-protected gTLD
    names, and each protected name's providers on the served day."""
    from repro.core.pipeline import GTLDS

    world = serving.world
    gtld_names = [
        name for name, timeline in world.domains.items()
        if timeline.tld in GTLDS
    ]
    detection = serving.study.detect(serving.segments, gtld_names)
    day = serving.engine.latest_day("gtld")
    providers_at_day: Dict[str, List[str]] = {}
    for domain, provider in sorted(detection.intervals):
        current = providers_at_day.setdefault(domain, [])
        if any(
            interval.start <= day < interval.end
            for interval in detection.intervals[(domain, provider)]
        ):
            current.append(provider)
    protected = sorted(providers_at_day)
    unprotected = sorted(set(gtld_names) - set(protected))
    return protected, unprotected, providers_at_day, day


def layer_probes(
    calibrator: Calibrator,
    serving: Serving,
    requests: List[mix.MixRequest],
) -> Dict[str, float]:
    """In-process per-call costs of the serve plane, us per call."""
    from repro.serve.guard import AdmissionGuard
    from repro.serve.protocol import decode_request
    from repro.serve.ratelimit import SlidingWindowLimiter

    points = [r for r in requests if r.kind in mix.POINT_KINDS]
    decoded = [decode_request(r.frame) for r in points]
    dispatcher = new_dispatcher(serving.swapper)

    def handle_requests() -> int:
        handle = dispatcher.handle_request
        return sum(len(handle(request, "probe")) for request in decoded)

    def handle_lines() -> int:
        handle = dispatcher.handle_line
        return sum(len(handle(r.frame, "probe")) for r in points)

    guard = AdmissionGuard(SlidingWindowLimiter(limit=10**9, window=1000))
    clients = [f"client-{index}" for index in range(10**4)]

    def admit_all() -> int:
        admit = guard.admit
        return sum(
            admit(client, tick).allowed
            for tick, client in enumerate(clients)
        )

    index = serving.swapper.current_index()
    sketch_calls = 40

    def sketch_answers() -> int:
        return sum(
            len(index.aggregate_sketch("gtld")) for _ in range(sketch_calls)
        )

    handle_requests()  # warm-up
    per_request = calibrator.measure(handle_requests).timing.norm / len(points)
    per_line = calibrator.measure(handle_lines).timing.norm / len(points)
    return {
        "serve.dispatch_point_us": per_request * 1e6,
        "serve.codec_us": (per_line - per_request) * 1e6,
        "serve.handle_line_us": per_line * 1e6,
        "serve.guard_admit_us": (
            calibrator.measure(admit_all).timing.norm / len(clients) * 1e6
        ),
        "sketch.answer_us": (
            calibrator.measure(sketch_answers).timing.norm
            / sketch_calls * 1e6
        ),
    }


def say(document: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")
    sys.stdout.flush()


async def serve(
    serving: Serving, calibrator: Calibrator, ready: Dict[str, object]
) -> None:
    """Serve until told to stop; answer ``stats`` in between."""
    from repro.serve.server import ServeServer

    loop = asyncio.get_running_loop()
    server = ServeServer(serving.dispatcher)
    host, port = await server.start()
    stopping = asyncio.Event()

    async def tick() -> None:
        while True:
            await asyncio.sleep(SERVE_CALIB_INTERVAL_S)
            calibrator.fire()

    def on_command() -> None:
        command = sys.stdin.readline()
        if command.strip() == "stats":
            boundary = calibrator.fire()
            say({
                "kernel_runs": calibrator.runs,
                "kernel_s": calibrator.seconds,
                "boundary_s": boundary,
                "cpu_s": time.process_time(),
                "requests_handled": serving.dispatcher.requests_handled,
                "rss_mib": peak_rss_mib(),
            })
        elif not command or command.strip() == "stop":
            stopping.set()

    ticker = loop.create_task(tick())
    loop.add_reader(sys.stdin.fileno(), on_command)
    try:
        say(dict(ready, host=host, port=port))
        await stopping.wait()
    finally:
        loop.remove_reader(sys.stdin.fileno())
        ticker.cancel()
        await server.drain()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--setup-reps", type=int, required=True)
    parser.add_argument("--probe-requests", type=int, default=0)
    args = parser.parse_args()
    require_program()

    with Calibrator() as calibrator:
        setup = median_setup(
            calibrator,
            lambda: Serving(args.seed, args.scale, args.days),
            lambda serving: None,
            reps=args.setup_reps,
        )
        serving = setup.product
        protected, unprotected, providers, day = expected_answers(serving)
        ready: Dict[str, object] = {
            "setup_s": setup.seconds,
            "setup_reps": setup.reps,
            "raw_setup_s": setup.raw_seconds,
            "day": day,
            "domains": len(serving.world.domains),
            "protected": protected,
            "unprotected": unprotected,
            "providers_at_day": providers,
        }
        if args.probe_requests:
            ready["layers"] = layer_probes(
                calibrator,
                serving,
                mix.build_mix(
                    args.seed, protected + unprotected, args.probe_requests
                ),
            )
            ready["layers"]["world.build_s"] = calibrator.measure(
                lambda: build_world(args.scale, args.seed)
            ).timing.norm
    # From here the kernel runs on the event loop, not on a signal.
    asyncio.run(serve(serving, calibrator, ready))
    return 0


if __name__ == "__main__":
    sys.exit(main())
