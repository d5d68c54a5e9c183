"""``serve_mixed`` — the query path, client side.

One server process (``harness.serve_proc``) and this client process with
one connection: a **closed loop** — the next request is sent only when
the previous reply has arrived — over a ``TCP_NODELAY`` socket with
pre-encoded frames. The client *spins* on a non-blocking ``recv`` while
it waits instead of sleeping in it: on this VM waking a sleeping peer
costs 20-80 us, more than the server's whole request path, and which end
of that range applies flips with the host's state for tens of minutes at
a time (README, "Noise"). With the client spinning the server finds the
next request already queued and neither side sleeps, so the round trip
is the software path a change to this repository can move.

Requests go in blocks. Each block is normalised by the calibration-kernel
runs the *server* made in its serving thread while the block ran; the
client asks for them between blocks (``stats``).

The request mix is unverified (``harness.mix``), so the two gated
numbers are taken per request class and do not move with its shares:
``op_latency_p50_ms`` is the median round trip of the exact-answer
(point) requests, ``throughput_per_s`` the sketch-answer requests per
second of their own round trips. The rate over the whole mix is printed
and is a per-layer metric, never gated.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence

from harness import mix
from harness.calib import CALIB_REF_S, Timing
from harness.common import SETUP_REPS, Outcome, finish_trace
from harness.stats import highest_supported_percentile, median, percentile
from harness.trace import Tracer

NAME = "serve_mixed"

#: Paper counts divided by this: ~5.3k gTLD domains.
SCALE = 32000
#: gTLD days 0..DAYS-1 are ingested before serving.
DAYS = 24
WARMUP_REQUESTS = 2000
#: A whole number of the mix's strata, so every block has both classes.
BLOCK_REQUESTS = 1500
MIN_BLOCKS = 30
#: Distinct pre-encoded requests; blocks cycle through them.
MIX_REQUESTS = 20000
#: Empty polls before a reply counts as lost (about a minute of spinning).
SPIN_LIMIT = 50_000_000
#: Blocks of each pass of the traced run.
TRACE_BLOCKS = 5

E2E_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYER_SPANS = tuple("serve.request." + kind for kind in mix.KINDS)


class Server:
    """The server process and the one connection to it."""

    def __init__(
        self,
        seed: int,
        scale: int,
        days: int,
        setup_reps: int,
        probe_requests: int = 0,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "0"
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "harness.serve_proc",
                "--seed", str(seed),
                "--scale", str(scale),
                "--days", str(days),
                "--setup-reps", str(setup_reps),
                "--probe-requests", str(probe_requests),
            ],
            cwd=E2E_DIR,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.sock: Optional[socket.socket] = None
        try:
            self.ready = self._read()
            self.sock = socket.create_connection(
                (self.ready["host"], self.ready["port"]), timeout=60
            )
            self.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self.sock.setblocking(False)
        except BaseException:
            self.close()
            raise

    def _read(self) -> Dict[str, object]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server process ended (exit {self.process.wait()})"
            )
        return json.loads(line)

    def stats(self) -> Dict[str, float]:
        self.process.stdin.write("stats\n")
        self.process.stdin.flush()
        return self._read()

    def call(self, frame: bytes) -> bytes:
        """One request, one newline-terminated reply; spins, never
        sleeps, while the reply is on its way."""
        recv = self.sock.recv
        if self.sock.send(frame) != len(frame):
            raise ConnectionError("request frame was not sent whole")
        reply = b""
        spins = 0
        while not reply.endswith(b"\n"):
            try:
                chunk = recv(65536)
            except BlockingIOError:
                spins += 1
                if spins > SPIN_LIMIT:
                    raise TimeoutError("no reply from the server")
                continue
            if not chunk:
                raise ConnectionError("server closed the connection")
            reply += chunk
        return reply

    def close(self) -> None:
        """Stop the server process and wait until it has ended."""
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.process.poll() is None:
            try:
                self.process.stdin.write("stop\n")
                self.process.stdin.flush()
                self.process.stdin.close()
                self.process.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Block:
    """One block of closed-loop requests: raw latencies by kind."""

    def __init__(self) -> None:
        #: Wall seconds, less the server's kernel runs inside the block.
        self.wall = 0.0
        #: Raw -> normalised, from the server's kernel runs.
        self.factor = 1.0
        self.latencies: Dict[str, List[float]] = {
            kind: [] for kind in mix.KINDS
        }
        self.failed = 0
        self.requests = 0

    def point_latencies(self) -> List[float]:
        return [
            value
            for kind in mix.POINT_KINDS
            for value in self.latencies[kind]
        ]


def calibrate(
    block: Block, before: Dict[str, float], after: Dict[str, float]
) -> None:
    """Normalise *block* by the server's kernel runs between the two
    ``stats`` answers that bracket it (the closing one included)."""
    kernel_s = after["kernel_s"] - before["kernel_s"]
    runs = after["kernel_runs"] - before["kernel_runs"]
    block.factor = CALIB_REF_S / (kernel_s / runs)
    block.wall -= kernel_s - after["boundary_s"]


def run_block(
    server: Server,
    requests: Sequence[mix.MixRequest],
    digest: object,
    tracer: Optional[Tracer] = None,
) -> Block:
    """Send *requests* one at a time; a reply that is not ``ok`` or
    echoes another id counts as failed."""
    block = Block()
    clock = time.perf_counter
    call = server.call
    started = clock()
    for request in requests:
        if tracer is None:
            sent = clock()
            reply = call(request.frame)
            latency = clock() - sent
        else:
            with tracer.span("serve.request." + request.kind) as span:
                reply = call(request.frame)
            latency = span.end - span.start
        block.latencies[request.kind].append(latency)
        if not reply.startswith(request.ok_prefix):
            block.failed += 1
        digest.update(reply)
    block.wall = clock() - started
    block.requests = len(requests)
    return block


def cycle_blocks(
    requests: Sequence[mix.MixRequest], size: int
) -> Iterator[Sequence[mix.MixRequest]]:
    """Consecutive *size*-request slices of *requests*, wrapping."""
    position = 0
    while True:
        if position + size > len(requests):
            position = 0
        yield requests[position:position + size]
        position += size


def check_probes(
    outcome: Outcome, server: Server
) -> None:
    """The fixed probe set: every ``lookup`` answer must equal what the
    batch DetectionResult says for the same day prefix."""
    ready = server.ready
    expected = ready["providers_at_day"]
    digest = hashlib.sha256()
    wrong = 0
    probes = mix.probe_set(ready["protected"], ready["unprotected"])
    for domain, frame in probes:
        reply = server.call(frame)
        digest.update(reply)
        document = json.loads(reply)
        providers = expected.get(domain, [])
        result = document.get("result", {})
        if not (
            document.get("ok") is True
            and result.get("day") == ready["day"]
            and result.get("providers") == providers
            and result.get("protected") == bool(providers)
        ):
            wrong += 1
    outcome.check(
        "probe lookups equal the batch DetectionResult",
        wrong == 0 and len(probes) > 0,
        f"{len(probes) - wrong}/{len(probes)} probes agree",
    )
    outcome.digests["probe_responses_sha256"] = digest.hexdigest()


class Summary:
    """Normalised per-block medians of a sequence of blocks.

    The two request classes are kept apart: the sketch rate is the
    sketch requests over their own round-trip seconds, the point rate
    the point requests over the rest of the block's wall, so neither
    depends on how many requests of the other class the mix holds. Only
    ``mixed_rate`` (all requests over the block's wall) does. Blocks are
    whole strata of the mix, so every block has both classes.
    """

    def __init__(self, blocks: Sequence[Block]) -> None:
        points = [block.point_latencies() for block in blocks]
        sketches = [block.latencies[mix.SKETCH] for block in blocks]
        factors = [block.factor for block in blocks]
        self.point_p50 = median([
            median(values) * factor
            for values, factor in zip(points, factors)
        ])
        # Per block, not per request: the few point requests that waited
        # behind a server kernel run would each add its 3 ms.
        self.point_rate = median([
            len(values) / ((block.wall - sum(sketch)) * block.factor)
            for values, sketch, block in zip(points, sketches, blocks)
        ])
        self.sketch_p50 = median([
            median(values) * factor
            for values, factor in zip(sketches, factors)
        ])
        self.sketch_rate = median([
            len(values) / (sum(values) * factor)
            for values, factor in zip(sketches, factors)
        ])
        self.mixed_rate = median([
            block.requests / (block.wall * block.factor)
            for block in blocks
        ])
        self.raw_point_p50 = median([median(values) for values in points])
        self.raw_sketch_rate = median([
            len(values) / sum(values) for values in sketches
        ])
        self.points = [
            value * factor
            for values, factor in zip(points, factors)
            for value in values
        ]
        self.sketch_samples = sum(len(values) for values in sketches)
        self.requests = sum(block.requests for block in blocks)
        self.failed = sum(block.failed for block in blocks)
        self.timing = Timing(
            raw=sum(block.wall for block in blocks),
            norm=sum(block.wall * block.factor for block in blocks),
            kernel_runs=0,
        )


def run_blocks(
    server: Server,
    requests: Sequence[mix.MixRequest],
    block_requests: int,
    min_blocks: int,
    seconds: float,
    digest: object,
    tracer: Optional[Tracer] = None,
) -> List[Block]:
    """Blocks from the start of *requests* for *seconds* of wall-clock,
    at least *min_blocks* of them, each calibrated."""
    blocks: List[Block] = []
    chunks = cycle_blocks(requests, block_requests)
    deadline = time.perf_counter() + seconds
    before = server.stats()
    while len(blocks) < min_blocks or time.perf_counter() < deadline:
        block = run_block(server, next(chunks), digest, tracer)
        after = server.stats()
        calibrate(block, before, after)
        blocks.append(block)
        before = after
    return blocks


def run(
    seed: int,
    seconds: float,
    scale: int = SCALE,
    days: int = DAYS,
    min_blocks: int = MIN_BLOCKS,
    block_requests: int = BLOCK_REQUESTS,
    warmup_requests: int = WARMUP_REQUESTS,
    setup_reps: int = SETUP_REPS,
) -> Outcome:
    """The untraced pass: every end-to-end metric."""
    outcome = Outcome(NAME)
    with Server(seed, scale, days, setup_reps) as server:
        ready = server.ready
        check_probes(outcome, server)
        names = ready["protected"] + ready["unprotected"]
        requests = mix.build_mix(
            seed, names, max(MIX_REQUESTS, block_requests)
        )
        digest = hashlib.sha256()
        run_block(server, requests[:warmup_requests], digest)
        blocks = run_blocks(
            server, requests, block_requests, min_blocks, seconds, digest
        )
        after = server.stats()
    summary = Summary(blocks)
    outcome.attempted = summary.requests
    outcome.failed = summary.failed
    outcome.check(
        "every reply is ok and echoes its request id",
        summary.failed == 0,
        f"{summary.failed} of {summary.requests} failed",
    )
    outcome.metrics.update({
        "setup_s": ready["setup_s"],
        "peak_rss_mib": after["rss_mib"],
        "op_latency_p50_ms": summary.point_p50 * 1e3,
        "throughput_per_s": summary.sketch_rate,
    })
    outcome.notes.update({
        "blocks": len(blocks),
        "block_requests": block_requests,
        "point_samples": len(summary.points),
        "sketch_samples": summary.sketch_samples,
        "point_requests_per_s": summary.point_rate,
        "sketch_latency_p50_us": summary.sketch_p50 * 1e6,
        "mixed_requests_per_s_unverified_mix": summary.mixed_rate,
        "setup_reps": ready["setup_reps"],
        "raw_setup_s": ready["raw_setup_s"],
        "raw_op_latency_p50_ms": summary.raw_point_p50 * 1e3,
        "raw_throughput_per_s": summary.raw_sketch_rate,
        "universe": min(mix.UNIVERSE, len(names)),
        "gtld_names": len(names),
        "ever_protected_names": len(ready["protected"]),
    })
    return outcome


def run_traced(
    seed: int,
    seconds: float,
    scale: int = SCALE,
    days: int = DAYS,
    blocks: int = TRACE_BLOCKS,
    block_requests: int = BLOCK_REQUESTS,
    warmup_requests: int = WARMUP_REQUESTS,
) -> Outcome:
    """The traced pass: every per-layer metric of this workload."""
    del seconds  # the traced pass has a fixed size
    outcome = Outcome(NAME)
    tracer = Tracer(NAME)
    with Server(
        seed, scale, days, setup_reps=1, probe_requests=2000
    ) as server:
        ready = server.ready
        check_probes(outcome, server)
        requests = mix.build_mix(
            seed,
            ready["protected"] + ready["unprotected"],
            max(MIX_REQUESTS, blocks * block_requests),
        )
        run_block(server, requests[:warmup_requests], hashlib.sha256())
        digests = [hashlib.sha256(), hashlib.sha256()]
        before = server.stats()
        untraced = Summary(run_blocks(
            server, requests, block_requests, blocks, 0.0, digests[0]
        ))
        after = server.stats()
        with tracer.span("harness.rep"):
            traced = Summary(run_blocks(
                server, requests, block_requests, blocks, 0.0,
                digests[1], tracer,
            ))
    untraced_digest, traced_digest = (d.hexdigest() for d in digests)
    outcome.attempted = untraced.requests + traced.requests
    outcome.failed = untraced.failed + traced.failed
    outcome.digests["responses_sha256"] = traced_digest
    if not outcome.check(
        "traced pass reproduces the untraced response bytes",
        traced_digest == untraced_digest,
    ):
        outcome.failed += 1
    layers = ready["layers"]
    handled = after["requests_handled"] - before["requests_handled"]
    supported = highest_supported_percentile(len(untraced.points))
    outcome.metrics.update({
        name: value
        for name, value in sorted(layers.items())
        if name != "serve.handle_line_us"
    })
    outcome.metrics.update({
        "serve.transport_us": (
            untraced.point_p50 * 1e6 - layers["serve.handle_line_us"]
        ),
        "serve.server_cpu_us_per_req": (
            (
                after["cpu_s"] - before["cpu_s"]
                - (after["kernel_s"] - before["kernel_s"])
            ) / handled * 1e6
            * untraced.timing.norm / untraced.timing.raw
        ),
        "sketch.request_latency_p50_us": untraced.sketch_p50 * 1e6,
        "sketch.request_rate_per_s": untraced.sketch_rate,
        "serve.point_rate_per_s": untraced.point_rate,
        "serve.mixed_rate_per_s": untraced.mixed_rate,
        "serve.point_latency_p99_us": (
            percentile(untraced.points, 99.0) * 1e6
            if supported is not None and supported >= 99.0
            else 0.0
        ),
        "serve.error_share": outcome.failed / outcome.attempted,
    })
    outcome.notes.update({
        "point_latency_p50_us": untraced.point_p50 * 1e6,
        "highest_supported_percentile": supported,
    })
    finish_trace(
        outcome,
        [(tracer, traced.timing)],
        untraced.timing,
        LAYER_SPANS,
        seed,
    )
    return outcome
