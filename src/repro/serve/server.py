"""The asyncio query server and its transport-independent dispatcher.

Split on purpose:

* :class:`ServeDispatcher` maps one decoded request to one response
  dict, consulting the admission guard and reading from whatever
  :class:`~repro.serve.index.ServeIndex` the snapshot swapper currently
  publishes. It is synchronous and owns no sockets, so the equivalence
  suite can drive it directly and byte-compare responses without a
  network in the loop.
* :class:`ServeServer` is the asyncio loop around it: newline-framed
  requests with a hard size bound, one response per request, graceful
  drain on shutdown (stop accepting, let in-flight requests finish,
  close idle connections). It runs its own accept loop rather than
  ``asyncio.start_server`` so that every accepted socket is owned by a
  tracked task from the moment ``accept()`` returns — with
  ``start_server``, a connection accepted while the server closes can
  be stranded inside asyncio's accept pipeline with no owner at all
  (the transport constructor trips ``Server._attach``'s closed-server
  assertion and the socket leaks, holding the peer open forever).
* :class:`ThreadedServer` hosts a server on a dedicated event-loop
  thread so a synchronous ingest loop (or a test) can serve and ingest
  concurrently — the designed deployment shape.

Ticks: admission decisions run on logical ticks from an injected
``tick_source``. The default advances one tick per guarded request,
which makes rate limits mean "per N requests" — deterministic and
replayable. A deployment that wants wall-time windows injects a
monotonic millisecond source at the edge (the CLI does); the decision
path itself stays clock-free.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
from typing import Callable, Dict, Optional, Set, Tuple

from repro.serve import guard as guard_reasons
from repro.serve import protocol
from repro.serve.guard import AdmissionGuard
from repro.serve.index import ServeError, ServeIndex
from repro.serve.protocol import (
    MAX_REQUEST_BYTES,
    ProtocolError,
    Request,
    encode_frame,
    error_response,
    ok_response,
    param_opt_int,
    param_opt_number,
    param_str,
)

#: Where an ``aggregate`` answer may come from.
AGGREGATE_SOURCES = ("exact", "sketch", "auto")


def _counter_ticks() -> Callable[[], int]:
    """The default tick source: one tick per guarded request."""
    counter = itertools.count()

    def next_tick() -> int:
        return next(counter)

    return next_tick


class ServeDispatcher:
    """Request → response over the currently published index."""

    def __init__(
        self,
        index_source: Callable[[], ServeIndex],
        guard: Optional[AdmissionGuard] = None,
        tick_source: Optional[Callable[[], int]] = None,
    ):
        self._index_source = index_source
        self._guard = guard
        self._tick_source = tick_source or _counter_ticks()
        self.requests_handled = 0

    @property
    def guard(self) -> Optional[AdmissionGuard]:
        return self._guard

    def handle_line(self, line: bytes, client: str) -> bytes:
        """One framed request in, one canonical framed response out."""
        try:
            request = protocol.decode_request(line)
        except ProtocolError as exc:
            return encode_frame(
                error_response(None, exc.code, exc.message)
            )
        return encode_frame(self.handle_request(request, client))

    def handle_request(
        self, request: Request, client: str
    ) -> Dict[str, object]:
        """Admission, then dispatch. ``health`` is never rate-limited."""
        if self._guard is not None and request.op != "health":
            decision = self._guard.admit(client, self._tick_source())
            if not decision.allowed:
                code = (
                    protocol.BLOCKED
                    if decision.reason == guard_reasons.BLOCKED
                    else protocol.RATE_LIMITED
                )
                return error_response(
                    request.id,
                    code,
                    f"request denied ({decision.reason})",
                    retry_after=decision.retry_after,
                )
        try:
            result = self._dispatch(request)
        except ProtocolError as exc:
            return error_response(request.id, exc.code, exc.message)
        except ServeError as exc:
            return error_response(
                request.id, protocol.BAD_PARAMS, str(exc)
            )
        self.requests_handled += 1
        return ok_response(request.id, result)

    # -- operations ----------------------------------------------------------

    def _dispatch(self, request: Request) -> Dict[str, object]:
        index = self._index_source()
        if request.op == "lookup":
            return index.lookup(
                param_str(request.params, "domain"),
                scope=param_str(request.params, "scope", "gtld"),
            )
        if request.op == "history":
            return index.history_payload(
                param_str(request.params, "domain")
            )
        if request.op == "aggregate":
            return self._aggregate(index, request)
        if request.op == "snapshot":
            scope = param_str(request.params, "scope", "")
            if scope:
                snapshot = index.live_snapshot(scope).to_dict()
                snapshot["version"] = index.version
                return snapshot
            return index.snapshot_payload()
        if request.op == "health":
            return self._health(index)
        raise ProtocolError(  # pragma: no cover - decode already rejects
            protocol.UNKNOWN_OP, f"unknown op {request.op!r}"
        )

    def _aggregate(
        self, index: ServeIndex, request: Request
    ) -> Dict[str, object]:
        """The ``aggregate`` op, routed exact / sketch / auto.

        ``source=exact`` (the default) answers from the exact indexes
        and is byte-identical to the pre-sketch protocol — the
        equivalence suite pins that. ``source=sketch`` answers from the
        frozen sketch plane in O(1) memory. ``source=auto`` prefers the
        sketch plane but falls back to exact when the plane is absent
        or when the requested ``max_error`` (an absolute count) is
        tighter than the sketch's ``εN`` guarantee — the fallback
        contract ``docs/SKETCHES.md`` documents.
        """
        scope = param_str(request.params, "scope", "gtld")
        day = param_opt_int(request.params, "day")
        source = param_str(request.params, "source", "exact")
        if source not in AGGREGATE_SOURCES:
            raise ProtocolError(
                protocol.BAD_PARAMS,
                f"param 'source' must be one of "
                f"{', '.join(AGGREGATE_SOURCES)}",
            )
        max_error = param_opt_number(request.params, "max_error")
        k = param_opt_int(request.params, "k")
        provider = request.params.get("provider")
        if provider is not None and not isinstance(provider, str):
            raise ProtocolError(
                protocol.BAD_PARAMS,
                "param 'provider' must be a string",
            )
        if source == "auto":
            fallback = None
            try:
                bound = index.sketch_guarantee(scope)
            except ServeError:
                fallback = "sketch plane unavailable"
            else:
                if max_error is not None and bound > max_error:
                    fallback = (
                        f"sketch error bound {bound:.1f} exceeds "
                        f"max_error {max_error:g}"
                    )
            if fallback is None:
                source = "sketch"
            else:
                result = self._aggregate_exact(
                    index, scope, day, provider
                )
                result["source"] = "exact"
                result["fallback"] = fallback
                return result
        if source == "sketch":
            result = index.aggregate_sketch(
                scope, day=day, k=k if k is not None else 10
            )
            if provider is not None:
                sketches = index.scope(scope).sketches
                assert sketches is not None  # aggregate_sketch checked
                at_day = result["day"]
                return {
                    "scope": scope,
                    "day": at_day,
                    "source": "sketch",
                    "provider": provider,
                    "adoption_estimate": (
                        sketches.adoption_estimate(provider, at_day)
                        if isinstance(at_day, int)
                        else 0
                    ),
                    "distinct_estimate": int(
                        round(sketches.provider_distinct(provider))
                    ),
                    "error_bound": round(
                        sketches.adoption_error_bound(), 3
                    ),
                }
            return result
        return self._aggregate_exact(index, scope, day, provider)

    @staticmethod
    def _aggregate_exact(
        index: ServeIndex,
        scope: str,
        day: Optional[int],
        provider: Optional[str],
    ) -> Dict[str, object]:
        if provider is None:
            return index.aggregate(scope, day=day)
        return {
            "scope": scope,
            "day": day if day is not None else index.scope(scope).day,
            "provider": provider,
            "adoption": index.adoption(provider, day=day, scope=scope),
        }

    def _health(self, index: ServeIndex) -> Dict[str, object]:
        health: Dict[str, object] = {
            "status": "ok",
            "version": index.version,
            "days": {
                name: index.scope(name).day
                for name in index.scope_names
            },
            "requests_handled": self.requests_handled,
        }
        if self._guard is not None:
            health["guard"] = self._guard.stats()
        return health


def peer_host(peername: object) -> str:
    """Rate-limit key for a connection: the peer host."""
    if isinstance(peername, tuple) and peername:
        return str(peername[0])
    return str(peername)


class ServeServer:
    """The asyncio transport: framing, bounds, graceful drain."""

    def __init__(
        self,
        dispatcher: ServeDispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._dispatcher = dispatcher
        self._host = host
        self._port = port
        self._listen_sock: Optional[socket.socket] = None
        self._accept_task: Optional["asyncio.Task[None]"] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._draining = False
        self._connections: Dict[object, asyncio.StreamWriter] = {}
        self._busy: Set[object] = set()
        self.connections_served = 0

    @property
    def dispatcher(self) -> ServeDispatcher:
        return self._dispatcher

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        loop = asyncio.get_running_loop()
        sock = socket.create_server((self._host, self._port))
        sock.setblocking(False)
        self._listen_sock = sock
        self._accept_task = loop.create_task(self._accept_loop(loop, sock))
        sockname = sock.getsockname()
        return str(sockname[0]), int(sockname[1])

    async def _accept_loop(
        self, loop: asyncio.AbstractEventLoop, sock: socket.socket
    ) -> None:
        while True:
            try:
                conn, _ = await loop.sock_accept(sock)
            except OSError:
                return
            # No await between accept and task registration: from the
            # moment the socket exists in userspace it is owned by
            # exactly one tracked task, which drain() can account for.
            task = loop.create_task(self._run_connection(loop, conn))
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)

    async def _run_connection(
        self, loop: asyncio.AbstractEventLoop, conn: socket.socket
    ) -> None:
        try:
            # The StreamReader limit enforces the request size bound at
            # the transport: an overlong line surfaces as an exception
            # in the read loop instead of buffering without bound.
            reader = asyncio.StreamReader(
                limit=MAX_REQUEST_BYTES + 2, loop=loop
            )
            reader_protocol = asyncio.StreamReaderProtocol(reader, loop=loop)
            transport, _ = await loop.connect_accepted_socket(
                lambda: reader_protocol, conn
            )
        except BaseException:
            conn.close()
            raise
        writer = asyncio.StreamWriter(transport, reader_protocol, reader, loop)
        await self._serve_connection(reader, writer)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        token = object()
        self._connections[token] = writer
        self.connections_served += 1
        client = peer_host(writer.get_extra_info("peername"))
        try:
            while not self._draining:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized frame: answer once, then hang up — the
                    # stream is no longer in sync with the framing.
                    writer.write(
                        encode_frame(
                            error_response(
                                None,
                                protocol.TOO_LARGE,
                                f"request exceeds "
                                f"{MAX_REQUEST_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                self._busy.add(token)
                try:
                    response = self._dispatcher.handle_line(line, client)
                    writer.write(response)
                    await writer.drain()
                finally:
                    self._busy.discard(token)
        except ConnectionError:
            pass
        finally:
            # Unregister only once the transport has fully closed, so
            # drain() returning means every accepted socket is gone —
            # an event loop stopped right after drain strands nothing.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connections.pop(token, None)

    async def drain(self) -> None:
        """Graceful shutdown: no new work, in-flight responses finish."""
        self._draining = True
        if self._accept_task is not None:
            self._accept_task.cancel()
            try:
                await self._accept_task
            except asyncio.CancelledError:
                pass
            self._accept_task = None
        if self._listen_sock is not None:
            # Handshakes the kernel completed that we never accepted
            # are reset by the kernel when the listener closes.
            self._listen_sock.close()
            self._listen_sock = None
        # Nudge idle connections: anything blocked in readline entered
        # it before _draining flipped, so it is already registered and
        # closing its writer wakes it with EOF. Connections still
        # mid-setup need no nudge — they check the flag before their
        # first read and close themselves.
        for token, writer in list(self._connections.items()):
            if token not in self._busy:
                writer.close()
        # Every accepted socket is owned by exactly one tracked task,
        # and every task closes its socket on all paths — so awaiting
        # the tasks is the proof that no connection outlives the
        # drain, in-flight requests included. Only after this may the
        # event loop be stopped.
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )


class ThreadedServer:
    """A :class:`ServeServer` on its own event-loop thread.

    The deployment shape: the main thread ingests partitions (which
    rebuilds and swaps indexes via the engine's apply listener) while
    this thread answers queries from the last published index. Also a
    context manager::

        with ThreadedServer(dispatcher) as (host, port):
            ...
    """

    def __init__(
        self,
        dispatcher: ServeDispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._server = ServeServer(dispatcher, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self.address: Optional[Tuple[str, int]] = None

    @property
    def server(self) -> ServeServer:
        return self._server

    def start(self) -> Tuple[str, int]:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self._server.start(), self._loop
        )
        self.address = future.result(timeout=30)
        return self.address

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        asyncio.run_coroutine_threadsafe(
            self._server.drain(), self._loop
        ).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
