"""Replay feeds: daily partitions from already-collected data.

The live path measures partitions through
:class:`~repro.measurement.scheduler.PartitionFeed`. These feeds produce
the *same* :class:`~repro.measurement.scheduler.DayPartition` stream from
data that already exists:

* :class:`StoreReplayFeed` — from a :class:`~repro.store.store.SegmentStore`
  (the landed columnar partitions of earlier measurement runs);
* :class:`SegmentReplayFeed` — from per-domain enriched
  :class:`ObservationSegment` histories (the batch pipeline's working
  set), expanded back into daily rows.

Both honour landing order (day-major, source order as configured), so an
engine fed from a replay ends in exactly the state a live run would have
produced. Every feed states its order as ``keys(start, end)``: the
segment feed inherits :class:`~repro.measurement.scheduler.LandingOrder`
from the live path, the store feed sorts the keys the store holds.

:class:`ResilientFeed` wraps any of them (or an injected-fault shim)
with bounded retry and deterministic backoff: a transiently failing
partition read is retried per :class:`~repro.faults.retry.RetryPolicy`;
an exhausted one either raises a typed :class:`FeedError` or — under
``on_exhausted="skip"`` — is dropped and recorded, letting the engine
declare the day missing instead of the run dying.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.batch.batch import BatchBuilder, RowIds
from repro.faults.plan import FaultLog
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.measurement.scheduler import (
    ALL_SOURCES,
    DayPartition,
    LandingOrder,
)
from repro.measurement.snapshot import ObservationSegment
from repro.store.store import SegmentStore
from repro.world.world import World


class FeedError(Exception):
    """A partition could not be produced after exhausting retries."""


class StoreReplayFeed:
    """Replays the partitions landed in a segment store, whose manifest
    pruning and mmap reads keep replay memory flat in history length.

    Partitions are produced columnar: the store's columns intern
    straight into one shared :class:`~repro.batch.batch.BatchBuilder`
    pool pair and the partition's ``observations`` are lazy row views.
    A run fragment is decoded once per replay and its runs expanded day
    by day (:meth:`SegmentStore.batch`), as segments are below.
    """

    def __init__(self, store: SegmentStore):
        self._store = store
        self._builder = BatchBuilder()

    def partition(self, source: str, day: int) -> DayPartition:
        batch = self._store.batch(source, day, builder=self._builder)
        return DayPartition.from_batch(
            source=source,
            day=day,
            zone_size=len(batch),
            batch=batch,
        )

    def keys(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> Iterator[Tuple[str, int]]:
        """Stored ``(source, day)`` keys in landing order (day-major)."""
        source_rank = {source: i for i, source in enumerate(ALL_SOURCES)}
        keys = sorted(
            self._store.partitions(),
            key=lambda key: (key[1], source_rank.get(key[0], len(ALL_SOURCES))),
        )
        for source, day in keys:
            if start is not None and day < start:
                continue
            if end is not None and day >= end:
                continue
            yield source, day

    def days(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> Iterator[DayPartition]:
        for source, day in self.keys(start, end):
            yield self.partition(source, day)


class SegmentReplayFeed(LandingOrder):
    """Expands enriched observation segments back into daily partitions.

    *segments* is the batch pipeline's working set — domain → enriched
    :class:`ObservationSegment` list (e.g. from
    :meth:`AdoptionStudy.collect_segments`). Replaying it day-by-day
    yields exactly what daily measurement would have observed, because
    segments are the run-length-compressed form of the daily rows.

    Partitions are built segment-natively: a segment's id columns are
    interned once, into one pool pair shared by every batch of the feed,
    and appended under each day the segment covers — no row is boxed.
    """

    def __init__(
        self,
        world: World,
        segments: Mapping[str, Sequence[ObservationSegment]],
        sources: Optional[Sequence[str]] = None,
    ):
        super().__init__(world, sources)
        self._segments = segments
        #: tld source → its domains, in *segments* order.
        self._names_of: Dict[str, List[str]] = {}
        for name in segments:
            timeline = world.domains.get(name)
            if timeline is not None and timeline.tld in self.sources:
                self._names_of.setdefault(timeline.tld, []).append(name)
        self._builder = BatchBuilder()
        #: domain → the segment that covered the last day asked for and
        #: its interned columns. Days replay in order, so one slot per
        #: domain hits on all but a segment's first day.
        self._current: Dict[str, Tuple[ObservationSegment, RowIds]] = {}

    def partition(self, source: str, day: int) -> DayPartition:
        if source == "alexa":
            names: Sequence[str] = self._world.alexa_list(day)
        else:
            names = self._names_of.get(source, ())
        batch = self._builder.new_batch()
        current = self._current
        for name in names:
            slot = current.get(name)
            if slot is None or not slot[0].start <= day < slot[0].end:
                segment = self._segment_at(name, day)
                if segment is None:
                    continue
                slot = current[name] = (
                    segment,
                    batch.intern_row(segment.observation),
                )
            batch.append_ids(day, *slot[1])
        return DayPartition.from_batch(
            source=source, day=day, zone_size=len(batch), batch=batch
        )

    def _segment_at(
        self, name: str, day: int
    ) -> Optional[ObservationSegment]:
        for segment in self._segments.get(name, ()):
            if segment.start <= day < segment.end:
                return segment
        return None


class ResilientFeed:
    """Bounded retry with deterministic backoff around any feed.

    Wraps anything exposing ``keys(start, end)`` and ``partition(source,
    day)`` — store replay included. Each failing read is retried up to
    ``retry_policy.attempts`` total tries with the policy's logical
    backoff ticks accounted to *log*.
    Exhaustion behaviour: ``on_exhausted="raise"`` raises a
    :class:`FeedError` chaining the last error; ``"skip"`` records the
    partition in :attr:`skipped` and drops it — combine with the
    engine's ``ingest_feed(..., skip_gaps=True)`` so the dropped day is
    declared missing and a later redelivery reconciles it.
    """

    def __init__(
        self,
        inner: Any,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        on_exhausted: str = "raise",
        log: Optional[FaultLog] = None,
    ) -> None:
        if on_exhausted not in ("raise", "skip"):
            raise ValueError("on_exhausted must be 'raise' or 'skip'")
        self._inner = inner
        self._policy = retry_policy
        self._on_exhausted = on_exhausted
        self.log = log if log is not None else FaultLog()
        #: (source, day) pairs dropped after exhausting retries.
        self.skipped: List[Tuple[str, int]] = []

    site = "feed.partition"

    def partition(self, source: str, day: int) -> Optional[DayPartition]:
        """The partition, retried; None when skipped after exhaustion."""
        last_error: Optional[Exception] = None
        for attempt in range(1, self._policy.attempts + 1):
            try:
                partition = self._inner.partition(source, day)
            except Exception as exc:  # repro: ignore[swallowed-exception]
                # Containment by policy: the error is either retried
                # below or re-raised as a typed FeedError/recorded skip
                # after the bounded attempts run out — never discarded.
                last_error = exc
                if attempt < self._policy.attempts:
                    self.log.record_retry(
                        self.site, self._policy.backoff_ticks(attempt)
                    )
                continue
            if attempt > 1:
                self.log.record_recovery(self.site)
            return partition
        if self._on_exhausted == "skip":
            self.log.record_drop(self.site)
            self.skipped.append((source, day))
            return None
        raise FeedError(
            f"partition ({source!r}, {day}) failed after "
            f"{self._policy.attempts} attempts: {last_error}"
        ) from last_error

    def days(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> Iterator[DayPartition]:
        """The inner feed's partitions, skipping exhausted ones."""
        for source, day in self._inner.keys(start, end):
            partition = self.partition(source, day)
            if partition is not None:
                yield partition
