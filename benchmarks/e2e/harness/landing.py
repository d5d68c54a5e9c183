"""Landing one calendar day: measure each source's partition, append it
to the segment store, apply it to the stream engine, publish an index.

:func:`land_day` is the one-call route (``PartitionFeed.partition``);
:func:`land_day_traced` takes ``partition()`` apart into the public calls
it makes, one span each. ``daily_ingest`` times both; ``store_replay``
uses them, without an engine, to land the history it replays.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from harness.trace import Tracer

#: First day on which all five sources are inside their windows.
START_DAY = 366

#: Spans :func:`land_day_traced` records (all are program layers).
LANDING_SPANS = (
    "measurement.listing",
    "measurement.probe_day",
    "batch.build",
    "measurement.enrich_batch",
    "store.append",
    "stream.apply",
    "serve.index_build",
)


class Landing:
    """One landing target and the tally of what went into it.

    ``with_engine=False`` lands into the store only (``store_replay``'s
    set-up).
    """

    def __init__(
        self, world: object, directory: str, with_engine: bool
    ) -> None:
        from repro.batch.batch import BatchBuilder
        from repro.measurement.enrich import AsnEnricher
        from repro.measurement.prober import FastProber
        from repro.measurement.scheduler import PartitionFeed
        from repro.measurement.zonefeed import ZoneFeed
        from repro.serve.index import SnapshotSwapper
        from repro.sketch.plane import SketchConfig
        from repro.store.store import SegmentStore
        from repro.stream.engine import StreamEngine

        self.store = SegmentStore(directory, create=True)
        self.feed = PartitionFeed(world)
        # The pieces PartitionFeed.partition() is made of (traced route).
        self.zone_feed = ZoneFeed(world)
        self.prober = FastProber(world)
        self.builder = BatchBuilder()
        self.enricher = AsnEnricher(world)
        self.engine: Optional[object] = None
        self.swapper: Optional[object] = None
        if with_engine:
            # No windows: the first landed day opens each cursor.
            self.engine = StreamEngine(
                world.horizon, sketches=SketchConfig()
            )
            self.swapper = SnapshotSwapper(self.engine)
        self.rows = 0
        self.partitions = 0
        #: Outcome -> count, as ``StreamEngine.ingest`` reported them.
        self.outcomes: Dict[str, int] = {}

    def account(self, partition: object, outcome: str) -> None:
        self.rows += len(partition)
        self.partitions += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def close(self) -> None:
        self.store.close()


def land_day(landing: Landing, day: int) -> None:
    """The untraced route for one day, five sources."""
    from repro.measurement.scheduler import ALL_SOURCES

    for source in ALL_SOURCES:
        partition = landing.feed.partition(source, day)
        landing.store.append_batch(source, day, partition.batch)
        outcome = "applied"
        if landing.engine is not None:
            outcome = landing.engine.ingest(partition)
        landing.account(partition, outcome)
    if landing.swapper is not None:
        landing.swapper.rebuild_if_advanced()


def land_day_traced(landing: Landing, day: int, tracer: Tracer) -> None:
    """The same day through ``partition()``'s own public pieces."""
    from repro.measurement.scheduler import (
        ALL_SOURCES,
        DayPartition,
        shard,
    )

    span = tracer.span
    for source in ALL_SOURCES:
        with span("measurement.listing"):
            if source == "alexa":
                listing = landing.zone_feed.alexa_listing(day)
            else:
                listing = landing.zone_feed.listing(source, day)
        with span("measurement.probe_day"):
            probed: List[object] = []
            for worker_names in shard(listing.names, 8):
                probed.extend(
                    landing.prober.observe_day(worker_names, day)
                )
        with span("batch.build"):
            batch = landing.builder.build(probed)
        with span("measurement.enrich_batch"):
            batch = landing.enricher.enrich_batch(batch)
        partition = DayPartition.from_batch(
            source=source, day=day, zone_size=len(listing), batch=batch
        )
        with span("store.append"):
            landing.store.append_batch(source, day, batch)
        outcome = "applied"
        if landing.engine is not None:
            with span("stream.apply"):
                outcome = landing.engine.ingest(partition)
        landing.account(partition, outcome)
    if landing.swapper is not None:
        with span("serve.index_build"):
            landing.swapper.rebuild_if_advanced()
