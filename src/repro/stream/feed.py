"""Replay feeds: daily partitions from already-collected data.

The live path measures partitions through
:class:`~repro.measurement.scheduler.PartitionFeed`. These feeds produce
the *same* :class:`~repro.measurement.scheduler.DayPartition` stream from
data that already exists:

* :class:`StoreReplayFeed` — from an observation store (the landed
  columnar partitions of earlier measurement runs);
* :class:`SegmentReplayFeed` — from per-domain enriched
  :class:`ObservationSegment` histories (the batch pipeline's working
  set), expanded back into daily rows.

Both honour landing order (day-major, source order as configured), so an
engine fed from a replay ends in exactly the state a live run would have
produced.

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

from repro.batch.batch import BatchBuilder
from repro.faults.plan import FaultLog
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.measurement.scheduler import ALL_SOURCES, DayPartition
from repro.measurement.snapshot import DomainObservation, ObservationSegment
from repro.store.protocols import ObservationStore
from repro.world.timeline import CCTLD_START_DAY
from repro.world.world import World


class FeedError(Exception):
    """A partition could not be produced after exhausting retries."""


class StoreReplayFeed:
    """Replays the partitions landed in an observation store.

    Accepts anything satisfying
    :class:`~repro.store.protocols.ObservationStore` — the in-memory
    :class:`~repro.measurement.storage.ColumnStore` or the on-disk
    :class:`~repro.store.store.SegmentStore` (whose manifest pruning
    and mmap reads keep replay memory flat in history length).

    Partitions are produced columnar: the store's columns intern
    straight into one shared :class:`~repro.batch.batch.BatchBuilder`
    pool pair and the partition's ``observations`` are lazy row views.
    """

    def __init__(
        self,
        store: ObservationStore,
        zone_sizes: Optional[Mapping[Tuple[str, int], int]] = None,
    ):
        self._store = store
        #: Optional (source, day) → listing size; defaults to row count.
        self._zone_sizes = dict(zone_sizes or {})
        self._builder = BatchBuilder()

    def partition(self, source: str, day: int) -> DayPartition:
        batch = self._store.batch(source, day, builder=self._builder)
        return DayPartition.from_batch(
            source=source,
            day=day,
            zone_size=self._zone_sizes.get((source, day), len(batch)),
            batch=batch,
        )

    def days(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> Iterator[DayPartition]:
        """Stored partitions in landing order (day-major)."""
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
            yield self.partition(source, day)


class SegmentReplayFeed:
    """Expands enriched observation segments back into daily partitions.

    *segments* is the batch pipeline's working set — domain → enriched
    :class:`ObservationSegment` list (e.g. from
    :meth:`AdoptionStudy.collect_segments`). Replaying it day-by-day
    yields exactly what daily measurement would have observed, because
    segments are the run-length-compressed form of the daily rows.
    """

    def __init__(
        self,
        world: World,
        segments: Mapping[str, Sequence[ObservationSegment]],
        sources: Optional[Sequence[str]] = None,
    ):
        self._world = world
        self.sources = tuple(sources) if sources else ALL_SOURCES
        unknown = set(self.sources) - set(ALL_SOURCES)
        if unknown:
            raise ValueError(f"unknown sources: {sorted(unknown)}")
        #: tld source → [(name, sorted segments)].
        self._by_tld: Dict[str, List[Tuple[str, List[ObservationSegment]]]] = {}
        for name, domain_segments in segments.items():
            timeline = world.domains.get(name)
            if timeline is None or timeline.tld not in self.sources:
                continue
            self._by_tld.setdefault(timeline.tld, []).append(
                (name, sorted(domain_segments, key=lambda s: s.start))
            )
        self._segments = segments

    def window(self, source: str) -> Tuple[int, int]:
        if source == "alexa":
            return (CCTLD_START_DAY, self._world.horizon)
        start, days = self._world.tld_windows.get(
            source, (0, self._world.horizon)
        )
        return (start, start + days)

    def windows(self) -> Dict[str, Tuple[int, int]]:
        return {source: self.window(source) for source in self.sources}

    @staticmethod
    def _observation_at(
        segments: Sequence[ObservationSegment], day: int
    ) -> Optional[DomainObservation]:
        for segment in segments:
            if segment.start <= day < segment.end:
                return segment.at(day)
            if segment.start > day:
                return None
        return None

    def partition(self, source: str, day: int) -> DayPartition:
        observations: List[DomainObservation] = []
        if source == "alexa":
            names = self._world.alexa_list(day)
            for name in names:
                observation = self._observation_at(
                    self._segments.get(name, ()), day
                )
                if observation is not None:
                    observations.append(observation)
        else:
            for name, segments in self._by_tld.get(source, ()):
                observation = self._observation_at(segments, day)
                if observation is not None:
                    observations.append(observation)
        return DayPartition(
            source=source,
            day=day,
            zone_size=len(observations),
            observations=observations,
        )

    def days(
        self, start: Optional[int] = None, end: Optional[int] = None
    ) -> Iterator[DayPartition]:
        windows = self.windows()
        if start is None:
            start = min(window[0] for window in windows.values())
        if end is None:
            end = max(window[1] for window in windows.values())
        for day in range(start, end):
            for source in self.sources:
                window_start, window_end = windows[source]
                if window_start <= day < window_end:
                    yield self.partition(source, day)


class ResilientFeed:
    """Bounded retry with deterministic backoff around any feed.

    Wraps anything exposing ``windows()`` and ``partition(source, day)``.
    Each failing read is retried up to ``retry_policy.attempts`` total
    tries with the policy's logical backoff ticks accounted to *log*.
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

    def windows(self) -> Dict[str, Tuple[int, int]]:
        return dict(self._inner.windows())

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
        """Day-major partitions over the windows, skipping exhausted ones."""
        windows = self.windows()
        lo = min(window[0] for window in windows.values())
        hi = max(window[1] for window in windows.values())
        if start is not None:
            lo = max(lo, start)
        if end is not None:
            hi = min(hi, end)
        for day in range(lo, hi):
            for source in windows:
                window_start, window_end = windows[source]
                if not window_start <= day < window_end:
                    continue
                partition = self.partition(source, day)
                if partition is not None:
                    yield partition
