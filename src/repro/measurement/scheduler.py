"""Stage II scheduling: the per-TLD measurement rounds.

The real platform splits each TLD's name list over a cloud of measurement
workers (Figure 1) and collects one partition per source per day.
:class:`PartitionFeed` keeps the data flow (listing → observations →
enrichment → partition) in one process: a day's rows go from the world's
configs straight into the feed's batch. :func:`shard` is the split a
worker cloud would make. Landing a partition is the caller's step
(``SegmentStore.append_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.batch.batch import BatchBuilder, BatchRows, Ids, ObservationBatch
from repro.measurement.enrich import AsnEnricher, UnionMemo
from repro.measurement.prober import FastProber
from repro.measurement.snapshot import DomainObservation
from repro.measurement.zonefeed import ZoneFeed
from repro.world.domain import DnsConfig
from repro.world.timeline import CCTLD_START_DAY
from repro.world.world import World

#: The gTLD zones: together one detection scope (Figures 2–5).
GTLD_SOURCES = ("com", "net", "org")

#: Landing order of the measured sources within one calendar day.
ALL_SOURCES = GTLD_SOURCES + ("nl", "alexa")

#: source → detection scope (which batch detector it corresponds to).
SCOPE_OF_SOURCE: Dict[str, str] = {
    **dict.fromkeys(GTLD_SOURCES, "gtld"),
    "nl": "nl",
    "alexa": "alexa",
}


def shard(names: Sequence[str], shard_count: int) -> List[List[str]]:
    """Split *names* into *shard_count* contiguous, balanced shards."""
    if shard_count < 1:
        raise ValueError("shard_count must be positive")
    size, remainder = divmod(len(names), shard_count)
    shards: List[List[str]] = []
    cursor = 0
    for index in range(shard_count):
        extent = size + (1 if index < remainder else 0)
        shards.append(list(names[cursor : cursor + extent]))
        cursor += extent
    return shards


@dataclass
class DayPartition:
    """One landed ``(source, day)`` observation partition.

    What the incremental ingest engine consumes: the enriched observation
    rows of one source on one day, plus the day's listing size (the zone or
    ranking can be larger than the measured rows on a real platform, so the
    size travels with the partition rather than being re-derived).
    """

    source: str
    day: int
    zone_size: int
    #: Lazy row views over the columns, or — from a row-shaped producer
    #: (fault shims, tests) — a plain list.
    observations: Sequence[DomainObservation]
    #: Excluded from equality: two partitions with equal rows are equal
    #: whichever form they were produced in.
    _batch: Optional[ObservationBatch] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def batch(self) -> ObservationBatch:
        """The columnar payload — the only form consumers read.

        A row-shaped producer's rows are interned on first read, not at
        construction, so an unreadable row surfaces inside the reader's
        containment (``StreamEngine._apply``).
        """
        if self._batch is None:
            self._batch = ObservationBatch.from_rows(self.observations)
        return self._batch

    @classmethod
    def from_batch(
        cls,
        source: str,
        day: int,
        zone_size: int,
        batch: ObservationBatch,
    ) -> "DayPartition":
        """A partition whose rows are lazy views over *batch*."""
        partition = cls(
            source=source,
            day=day,
            zone_size=zone_size,
            observations=BatchRows(batch),
        )
        partition._batch = batch
        return partition


class LandingOrder:
    """Which ``(source, day)`` partitions a world lands, and in what order.

    The OpenINTEL-style platform lands one partition per source per day:
    day-major, sources in the configured order (default
    :data:`ALL_SOURCES`), each source only within its measurement
    window. Every feed that derives its partitions from a world is a
    subclass supplying :meth:`partition`.
    """

    def __init__(
        self, world: World, sources: Optional[Sequence[str]] = None
    ):
        self._world = world
        self.sources = tuple(sources) if sources else ALL_SOURCES
        unknown = set(self.sources) - set(ALL_SOURCES)
        if unknown:
            raise ValueError(f"unknown sources: {sorted(unknown)}")

    def window(self, source: str) -> Tuple[int, int]:
        """``[start, end)`` measurement window of *source*."""
        if source == "alexa":
            return (CCTLD_START_DAY, self._world.horizon)
        start, days = self._world.tld_windows.get(
            source, (0, self._world.horizon)
        )
        return (start, start + days)

    def windows(self) -> Dict[str, Tuple[int, int]]:
        return {source: self.window(source) for source in self.sources}

    def keys(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> Iterator[Tuple[str, int]]:
        """``(source, day)`` for every day in ``[start, end)``."""
        windows = self.windows()
        if start is None:
            start = min(window[0] for window in windows.values())
        if end is None:
            end = max(window[1] for window in windows.values())
        for day in range(start, end):
            for source in self.sources:
                window_start, window_end = windows[source]
                if window_start <= day < window_end:
                    yield source, day

    def partition(self, source: str, day: int) -> DayPartition:
        raise NotImplementedError

    def days(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> Iterator[DayPartition]:
        """Partitions for every day in ``[start, end)``, landing order."""
        for source, day in self.keys(start, end):
            yield self.partition(source, day)


class PartitionFeed(LandingOrder):
    """Per-``(source, day)`` partitions, measured in landing order.

    It neither retains nor lands what it measured (the engine owns the
    state, a :class:`~repro.store.store.SegmentStore` the history).
    *enrich* is ``True`` (a new :class:`AsnEnricher`), ``False`` (rows
    land without ASNs), or an existing enricher whose address timelines
    the feed then shares.
    """

    def __init__(
        self,
        world: World,
        sources: Optional[Sequence[str]] = None,
        enrich: Union[bool, AsnEnricher] = True,
    ):
        super().__init__(world, sources)
        self._feed = ZoneFeed(world)
        self._prober = FastProber(world)
        self._enricher: Optional[AsnEnricher] = (
            AsnEnricher(world) if enrich is True else (enrich or None)
        )
        #: One pool pair for every batch this feed lands — domains
        #: repeat daily, so interning compounds across rounds.
        self._builder = BatchBuilder()
        #: Config → payload ids in the builder's pools (pool-relative,
        #: so it lives as long as they do); most names keep their config.
        self._payloads: Dict[DnsConfig, Tuple[Ids, ...]] = {}
        #: Address cells → ASNs, for one routing epoch at a time: also
        #: pool-relative, and most rows repeat yesterday's cells.
        self._unions: UnionMemo = {}
        self._unions_epoch = -1

    def partition(self, source: str, day: int) -> DayPartition:
        """Measure one ``(source, day)`` partition straight into a batch."""
        if source == "alexa":
            listing = self._feed.alexa_listing(day)
        else:
            listing = self._feed.listing(source, day)
        batch = self._builder.new_batch()
        self._prober.append_day(batch, listing.names, day, self._payloads)
        if self._enricher is not None:
            epoch = self._enricher.epoch(day)
            if epoch != self._unions_epoch:
                self._unions, self._unions_epoch = {}, epoch
            batch = self._enricher.enrich_batch(batch, self._unions)
        return DayPartition.from_batch(
            source=source,
            day=day,
            zone_size=len(listing),
            batch=batch,
        )
