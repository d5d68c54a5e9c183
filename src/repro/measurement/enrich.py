"""Stage III: supplementing observations with origin AS numbers.

"We supplement each IP address with an autonomous system number on the
basis of BGP data. The origin AS of the most-specific prefix in which an
address was contained at measurement time is determined on the basis of
the Routeviews pfx2as data set. For multi-origin AS we add all the
involved AS numbers." (§3.2)

An address's origins only change on a routing change day, so
:class:`AsnEnricher` resolves each distinct address once, into an *ASN
timeline* (cheap because only a handful of prefixes ever change origin:
the diversion episodes of §4.4). Batch enrichment reads the timeline at
each row's day; segment enrichment splits observation segments where it
changes. :meth:`AsnEnricher.enrich` asks the day's pfx2as snapshot for
every address instead — the naive per-day reading of §3.2 the timeline
paths are tested against.

Per distinct address a timeline costs one parse, one probe of the
dynamic-prefix table, and one pfx2as probe per routing epoch for an
address inside a dynamic prefix (one in all for the rest). Every probe
reads a value (``PrefixTable.longest_value``); no network object is
built. A segment whose addresses all have one-entry timelines is one
piece with one union; only the others are split.
"""

from __future__ import annotations

import ipaddress
from bisect import bisect_right
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.batch.batch import Ids, ObservationBatch
from repro.measurement.snapshot import DomainObservation, ObservationSegment
from repro.routing.prefixtable import PrefixTable
from repro.world.world import World

#: One address's ``[(start_day, origins)]``, ascending, deduplicated.
Timeline = List[Tuple[int, FrozenSet[int]]]

#: (routing epoch, apex, www, apex6, www6 address-id cells) → the row's
#: sorted origin ASNs. Pool-relative, like the cells it is keyed by.
UnionMemo = Dict[Tuple[int, Ids, Ids, Ids, Ids], Ids]


def _origins_at(timeline: Timeline, day: int) -> FrozenSet[int]:
    """The origins in force on *day*: the last entry starting by then."""
    current: FrozenSet[int] = frozenset()
    for start, origins in timeline:
        if start > day:
            break
        current = origins
    return current


class AsnEnricher:
    """Maps observed addresses to origin-AS sets, day-aware."""

    def __init__(self, world: World) -> None:
        self._world = world
        #: The days a timeline is evaluated at: day 0 and every later
        #: routing change day.
        self._epoch_days = [0] + [
            day for day in world.routing_change_days() if day > 0
        ]
        #: Prefixes whose announcement ever changes after day 0.
        self._dynamic = PrefixTable()
        for day, prefix, _ in world.routing_events():
            if day > 0:
                self._dynamic.insert(prefix, True)
        self._timeline_cache: Dict[str, Timeline] = {}
        #: (observation, origins) → the enriched observation (interning).
        self._interned: Dict[
            Tuple[DomainObservation, FrozenSet[int]], DomainObservation
        ] = {}
        #: Distinct addresses resolved against BGP data (timeline misses)
        #: — the one count segment and batch enrichment share. The
        #: per-day oracle :meth:`enrich` adds one per LPM it makes.
        self.lookups = 0
        self.intern_hits = 0

    def _intern(
        self, observation: DomainObservation, origins: FrozenSet[int]
    ) -> DomainObservation:
        """One shared enriched observation per (payload, origins) pair.

        Segment splitting re-enriches the same observation with the same
        origin set once per sub-interval; interning keeps a single object
        per distinct result instead of allocating a copy for every piece.
        """
        key = (observation, origins)
        interned = self._interned.get(key)
        if interned is None:
            interned = observation.with_asns(origins)
            self._interned[key] = interned
        else:
            self.intern_hits += 1
        return interned

    # -- daily enrichment -----------------------------------------------------

    def enrich(self, observation: DomainObservation) -> DomainObservation:
        """Attach the origin ASNs of every observed address."""
        pfx2as = self._world.pfx2as_at(observation.day)
        asns: Set[int] = set()
        for address in observation.all_addresses():
            self.lookups += 1
            asns |= pfx2as.lookup(address)
        return observation.with_asns(frozenset(asns))

    def enrich_day(
        self, observations: Sequence[DomainObservation]
    ) -> List[DomainObservation]:
        return [self.enrich(observation) for observation in observations]

    def epoch(self, day: int) -> int:
        """The routing epoch of *day*: how many epoch days (day 0 and
        the routing change days) have begun by then. Every timeline
        reads the same origins on every day of one epoch."""
        return bisect_right(self._epoch_days, day)

    def enrich_batch(
        self, batch: ObservationBatch, unions: Optional[UnionMemo] = None
    ) -> ObservationBatch:
        """The batch counterpart of :meth:`enrich_day`.

        Each address's origins are read off its :meth:`address_timeline`
        at the row's day, so a distinct address is resolved against BGP
        data once per enricher, however many rows, days or batches
        share it (mass hosters give thousands of rows the same
        address). Row unions are memoised in *unions* by the row's
        routing epoch and four address cells, so identical rows cost
        one set union. The memo is pool-relative: a caller that keeps
        it across batches (:class:`~repro.measurement.scheduler.
        PartitionFeed`) keeps it exactly as long as their pools; by
        default it lives for this call. The returned sibling batch's
        rows equal ``enrich_day`` output value-for-value.
        """
        if unions is None:
            unions = {}
        pool = batch.addresses
        epochs = {day: self.epoch(day) for day in set(batch.days)}
        asns_column: List[Ids] = []
        for day, apex, www, apex6, www6 in zip(
            batch.days,
            batch.apex_addrs,
            batch.www_addrs,
            batch.apex_addrs6,
            batch.www_addrs6,
        ):
            key = (epochs[day], apex, www, apex6, www6)
            merged = unions.get(key)
            if merged is None:
                combined: Set[int] = set()
                for cell in (apex, www, apex6, www6):
                    for address_id in cell:
                        combined |= _origins_at(
                            self.address_timeline(pool.value(address_id)),
                            day,
                        )
                merged = unions[key] = tuple(sorted(combined))
            asns_column.append(merged)
        return batch.with_asns(asns_column)

    # -- address timelines and segment enrichment --------------------------------

    def address_timeline(self, address: str) -> Timeline:
        """``[(start_day, origins), ...]`` for *address*, compressed.

        Addresses outside every dynamic prefix get a single entry; others
        are evaluated at each routing change day. Cached per address
        text for the enricher's life.
        """
        cached = self._timeline_cache.get(address)
        if cached is not None:
            return cached
        self.lookups += 1
        parsed = ipaddress.ip_address(address)
        if not self._dynamic.longest_value(parsed, False):
            timeline = [(0, self._world.pfx2as_at(0).lookup(parsed))]
        else:
            timeline = []
            previous: FrozenSet[int] = frozenset({-1})  # sentinel
            for day in self._epoch_days:
                origins = self._world.pfx2as_at(day).lookup(parsed)
                if origins != previous:
                    timeline.append((day, origins))
                    previous = origins
        self._timeline_cache[address] = timeline
        return timeline

    def asns_over(
        self, addresses: Sequence[str], start: int, end: int
    ) -> List[Tuple[int, int, FrozenSet[int]]]:
        """The combined origin set of *addresses* over ``[start, end)``.

        Returns ``(sub_start, sub_end, origins)`` pieces covering the whole
        interval, split wherever any address's mapping changes.
        """
        timelines = [self.address_timeline(address) for address in addresses]
        if all(len(timeline) == 1 for timeline in timelines):
            # No address ever changes origins: one piece, one union.
            return [(start, end, frozenset().union(
                *[timeline[0][1] for timeline in timelines]
            ))]
        boundaries = {start, end}
        for timeline in timelines:
            for day, _ in timeline:
                if start < day < end:
                    boundaries.add(day)
        ordered = sorted(boundaries)
        pieces: List[Tuple[int, int, FrozenSet[int]]] = []
        for sub_start, sub_end in zip(ordered, ordered[1:]):
            origins: Set[int] = set()
            for timeline in timelines:
                origins |= _origins_at(timeline, sub_start)
            pieces.append((sub_start, sub_end, frozenset(origins)))
        return pieces

    def enrich_segments(
        self, segments: Sequence[ObservationSegment]
    ) -> List[ObservationSegment]:
        """Attach ASNs to segments, splitting at mapping changes."""
        enriched: List[ObservationSegment] = []
        for segment in segments:
            addresses = segment.observation.all_addresses()
            if not addresses:
                enriched.append(segment)
                continue
            for sub_start, sub_end, origins in self.asns_over(
                addresses, segment.start, segment.end
            ):
                enriched.append(
                    ObservationSegment(
                        sub_start,
                        sub_end,
                        self._intern(segment.observation, origins),
                    )
                )
        return enriched
