"""Injection shims: wrapping the platform's real seams with faults.

Each shim wraps a production object behind the *same* interface and
consults a :class:`~repro.faults.plan.FaultInjector` at the seam the
production code actually crosses — partition production, datagram
exchange, per-domain observation, stored segment bytes. Production code
never imports this module; studies opt in by passing a plan
(``repro study --fault-plan plan.json``) and the pipeline swaps the
shims in at construction time.

Corruption helpers are deterministic in the corrupted *content* too:
byte positions derive from CRC of a salt (the partition key, the file
name), never from an RNG shared with firing decisions.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.dnscore.transport import SimulatedNetwork, Timeout
from repro.faults.errors import PersistentFault, TransientFault
from repro.faults.plan import FaultEvent, FaultInjector
from repro.faults.retry import DEFAULT_RETRY_POLICY
from repro.measurement.prober import FastProber
from repro.measurement.scheduler import SCOPE_OF_SOURCE, DayPartition
from repro.measurement.snapshot import ObservationSegment
from repro.store.manifest import StoreManifest
from repro.world.world import World

# -- byte corruption -----------------------------------------------------------


def corrupt_blob(blob: bytes, kind: str, salt: str = "") -> bytes:
    """Deterministically damage *blob*: ``truncate`` or ``bitflip``.

    The damaged position derives from a CRC of *salt*, so the same
    (blob, kind, salt) always yields the same corruption — replayable
    like everything else in a fault plan.
    """
    if not blob:
        return blob
    marker = zlib.crc32(salt.encode("utf-8")) if salt else 0x9E3779B9
    if kind == "truncate":
        return blob[: len(blob) // 2]
    if kind == "bitflip":
        mutated = bytearray(blob)
        position = marker % len(mutated)
        mutated[position] ^= 1 << (marker % 8)
        return bytes(mutated)
    raise ValueError(f"unknown corruption kind {kind!r}")


def corrupt_store_files(
    directory: str, injector: FaultInjector
) -> List[str]:
    """Apply ``storage.segment_read`` faults to a saved store tree.

    Walks the manifest in order and fires once per partition (key
    ``source/day``); a firing partition damages its segment file (or
    removes it for kind ``missing``) — the honest blast radius, since
    partitions sharing a compacted run share its bytes.

    Returns the paths affected.
    """
    affected: List[str] = []
    for segment in StoreManifest.load(directory).segments:
        path = os.path.join(directory, segment.file)
        for source, day, _rows in segment.partitions:
            key = f"{source}/{day}"
            event = injector.fire("storage.segment_read", key=key)
            if event is None:
                continue
            if event.kind == "missing":
                if os.path.exists(path):
                    os.remove(path)
                if path not in affected:
                    affected.append(path)
                continue
            if not os.path.exists(path):
                continue
            with open(path, "rb") as handle:
                blob = handle.read()
            with open(path, "wb") as handle:
                handle.write(corrupt_blob(blob, event.kind, salt=key))
            if path not in affected:
                affected.append(path)
    return affected


# -- partition feeds -----------------------------------------------------------


class PoisonedRow:
    """A partition row whose every field read fails — bit-rot made flesh."""

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        raise ValueError(f"poisoned observation row (field {name!r})")


def _poison(partition: DayPartition) -> DayPartition:
    return DayPartition(
        source=partition.source,
        day=partition.day,
        zone_size=partition.zone_size,
        observations=[PoisonedRow()],  # type: ignore[list-item]
    )


class FaultyFeed:
    """Wraps a replay feed, mangling or withholding partitions.

    Kinds at site ``feed.partition`` (key: the source name):

    * ``transient`` — raise :class:`TransientFault`; a
      :class:`~repro.stream.feed.ResilientFeed` retry clears it (the
      injector draws a fresh decision per attempt);
    * ``delay`` — withhold the partition during :meth:`days` and re-emit
      it after the stream ends, exercising the engine's late-arrival
      reconciliation;
    * ``poison`` — replace the rows with unreadable ones, exercising the
      engine's scope quarantine.
    """

    site = "feed.partition"

    def __init__(self, inner: Any, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    def keys(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> Any:
        return self._inner.keys(start, end)

    def partition(self, source: str, day: int) -> DayPartition:
        partition = self._inner.partition(source, day)
        event = self._injector.fire(self.site, key=source)
        return self._mangle(partition, event)

    def days(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> Iterator[DayPartition]:
        delayed: List[DayPartition] = []
        for partition in self._inner.days(start, end):
            event = self._injector.fire(self.site, key=partition.source)
            if event is not None and event.kind == "delay":
                delayed.append(partition)
                continue
            yield self._mangle(partition, event)
        for partition in delayed:
            yield partition

    def _mangle(
        self, partition: DayPartition, event: Optional[FaultEvent]
    ) -> DayPartition:
        if event is None:
            return partition
        if event.kind == "transient":
            raise TransientFault(
                self.site,
                "transient",
                key=f"{partition.source}/{partition.day}",
            )
        if event.kind == "poison":
            return _poison(partition)
        return partition


# -- the simulated network -----------------------------------------------------


class FaultyNetwork:
    """Wraps a :class:`SimulatedNetwork`, mangling exchanges.

    Kinds at site ``transport.query`` (key: the destination address):
    ``timeout`` (raise :class:`Timeout` before delivery), ``short_read``
    (truncate the response mid-record), ``malformed_rdata`` (damage
    response bytes past the header, so the header parses and the decoder
    trips inside a record).
    """

    site = "transport.query"

    def __init__(
        self, inner: SimulatedNetwork, injector: FaultInjector
    ) -> None:
        self._inner = inner
        self._injector = injector

    @property
    def stats(self) -> Any:
        return self._inner.stats

    def register(self, address: Any, handler: Any, stream_handler: Any = None) -> None:
        self._inner.register(address, handler, stream_handler)

    def unregister(self, address: Any) -> None:
        self._inner.unregister(address)

    def is_listening(self, address: Any) -> bool:
        return self._inner.is_listening(address)

    def query(self, address: Any, payload: bytes) -> bytes:
        event = self._injector.fire(self.site, key=str(address))
        if event is not None and event.kind == "timeout":
            raise Timeout(f"injected timeout to {address}")
        response = self._inner.query(address, payload)
        return self._mangle(response, event, str(address))

    def query_stream(self, address: Any, payload: bytes) -> bytes:
        event = self._injector.fire(self.site, key=str(address))
        if event is not None and event.kind == "timeout":
            raise Timeout(f"injected timeout to {address}")
        response = self._inner.query_stream(address, payload)
        return self._mangle(response, event, str(address))

    @staticmethod
    def _mangle(
        response: bytes, event: Optional[FaultEvent], salt: str
    ) -> bytes:
        if event is None:
            return response
        if event.kind == "short_read":
            return response[: max(1, len(response) // 2)]
        if event.kind == "malformed_rdata" and len(response) > 12:
            mutated = bytearray(response)
            position = 12 + zlib.crc32(salt.encode("utf-8")) % (
                len(mutated) - 12
            )
            mutated[position] = 0xFF
            return bytes(mutated)
        return response


# -- the prober ----------------------------------------------------------------


class FaultyProber:
    """Wraps :class:`FastProber` with observation faults + bounded retry.

    Site ``prober.observe`` fires once per attempt (key: the domain);
    each retry draws a fresh decision, so a spec's ``rate`` / ``times``
    controls whether the bounded retry recovers. Exhaustion raises
    :class:`PersistentFault` naming every scope the domain poisons —
    its TLD's detection scope plus ``alexa`` for ranked names — which
    the study pipeline converts into quarantines.
    """

    site = "prober.observe"

    def __init__(
        self,
        inner: FastProber,
        world: World,
        injector: FaultInjector,
    ) -> None:
        self._inner = inner
        self._world = world
        self._injector = injector
        self._alexa = frozenset(world.alexa_names)

    @property
    def observations_made(self) -> int:
        return self._inner.observations_made

    def observe(self, domain: str, day: int) -> Any:
        return self._inner.observe(domain, day)

    def observe_day(self, names: Sequence[str], day: int) -> Any:
        return self._inner.observe_day(names, day)

    def observe_segments(
        self, domain: str, horizon: Optional[int] = None
    ) -> List[ObservationSegment]:
        log = self._injector.log
        for attempt in range(1, DEFAULT_RETRY_POLICY.attempts + 1):
            event = self._injector.fire(self.site, key=domain)
            if event is None:
                if attempt > 1:
                    log.record_recovery(self.site)
                return self._inner.observe_segments(domain, horizon)
            if attempt < DEFAULT_RETRY_POLICY.attempts:
                log.record_retry(
                    self.site, DEFAULT_RETRY_POLICY.backoff_ticks(attempt)
                )
        raise PersistentFault(
            f"observation of {domain!r} failed after "
            f"{DEFAULT_RETRY_POLICY.attempts} attempts",
            scopes=self._scopes_of(domain),
        )

    def _scopes_of(self, domain: str) -> Tuple[str, ...]:
        scopes: List[str] = []
        timeline = self._world.domains.get(domain)
        if timeline is not None:
            scope = SCOPE_OF_SOURCE.get(timeline.tld)
            if scope is not None:
                scopes.append(scope)
        if domain in self._alexa:
            scopes.append("alexa")
        return tuple(dict.fromkeys(scopes))
