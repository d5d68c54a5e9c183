"""The incremental daily-ingest engine.

:class:`StreamEngine` consumes per-``(source, day)`` observation
partitions as they land and maintains, incrementally, every aggregate
behind Figures 2–6 of the paper — without ever re-scanning history. One
day's ingest costs O(that day's observations).

Ordering discipline per source:

* the partition for the next expected day is **applied** immediately and
  any quarantined successors are drained;
* a partition from the future (a gap exists) is **quarantined** until the
  gap fills or is declared missing via :meth:`skip_missing`;
* a partition for a day previously declared missing is a **late arrival**
  and is reconciled on the spot — daily series are point-updated and use
  intervals are stitched back together, so the final state is identical
  to an in-order run;
* a partition for an already-applied day is a duplicate (error, or
  skipped when resuming over a replayed feed).

Containment discipline per *scope* (the detection universe a source
feeds): a partition whose rows cannot be read — bit rot, a poisoned
upstream — **quarantines the scope** instead of killing the run. While a
scope is quarantined its partitions are dropped and recorded as holes;
:meth:`release_quarantine` lifts it, after which later days apply
normally and re-delivered dropped days reconcile as late arrivals, so a
healed scope converges to exactly the clean state.

The engine's whole state round-trips through :meth:`to_dict` /
:meth:`from_dict` (see :mod:`repro.stream.checkpoint` for the on-disk
format), which is what makes kill-and-resume byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.batch.batch import ObservationBatch
from repro.core.detection import DetectionResult, ScopeState, UseInterval
from repro.core.flux import FluxAnalysis, FluxSeries
from repro.core.growth import GrowthAnalysis, GrowthSeries
from repro.core.peaks import PeakAnalysis, PeakStats
from repro.core.references import BatchMatcher, SignatureCatalog

# The source vocabulary is declared beside ALL_SOURCES; the two names
# imported ``as`` themselves stay importable from here.
from repro.measurement.scheduler import (
    ALL_SOURCES,
    GTLD_SOURCES as GTLD_SOURCES,
    SCOPE_OF_SOURCE as SCOPE_OF_SOURCE,
    DayPartition,
)
from repro.sketch.plane import (
    SketchConfig,
    SketchPlane,
    provider_slds_of,
)

#: ingest() outcomes.
APPLIED = "applied"
QUARANTINED = "quarantined"
RECONCILED = "reconciled"
DUPLICATE = "duplicate"
#: The partition could not be read; its scope is now quarantined.
POISONED = "poisoned"
#: The partition was dropped because its scope is quarantined.
DROPPED = "dropped"


@dataclass
class SourceCursor:
    """Per-source ingest bookkeeping."""

    #: First day of the source's window (set on first contact).
    start: Optional[int] = None
    #: Next day expected in order (all earlier days applied or holes).
    next_day: Optional[int] = None
    #: Days declared missing (skipped); shrink on late arrival.
    holes: Set[int] = field(default_factory=set)
    #: Out-of-order partitions waiting for their gap to fill.
    quarantine: Dict[int, DayPartition] = field(default_factory=dict)
    #: day → listing size, for the expansion series.
    zone_sizes: Dict[int, int] = field(default_factory=dict)


class StreamEngine:
    """Incremental DPS-adoption state over daily observation partitions."""

    def __init__(
        self,
        horizon: int,
        catalog: Optional[SignatureCatalog] = None,
        sources: Sequence[str] = ALL_SOURCES,
        windows: Optional[Mapping[str, Tuple[int, int]]] = None,
        sketches: Optional[SketchConfig] = None,
    ):
        self.horizon = horizon
        # Configuration, not state: deliberately absent from checkpoints
        # (load_checkpoint takes the catalog as an argument).
        self.catalog = (
            catalog or SignatureCatalog.paper_table2()
        )
        self.sources = tuple(sources)
        unknown = set(self.sources) - set(SCOPE_OF_SOURCE)
        if unknown:
            raise ValueError(f"unknown sources: {sorted(unknown)}")
        self._windows: Dict[str, Tuple[int, int]] = dict(windows or {})
        # Configuration, not state (same contract as the catalog).
        self._growth = GrowthAnalysis()
        self._scopes: Dict[str, ScopeState] = {
            scope: ScopeState(horizon)
            for scope in dict.fromkeys(
                SCOPE_OF_SOURCE[source] for source in self.sources
            )
        }
        self._cursors: Dict[str, SourceCursor] = {
            source: SourceCursor() for source in self.sources
        }
        #: The optional streaming sketch plane (``repro.sketch``): one
        #: constant-memory summary set per scope, folded per applied
        #: partition and serialized with the engine — byte-identity
        #: across live, store-rebuilt and resumed runs is what the conformance
        #: matrix pins.
        self._sketches: Optional[SketchPlane] = (
            SketchPlane(
                sketches,
                self._scopes,
                provider_slds_of(self.catalog),
            )
            if sketches is not None
            else None
        )
        #: The signature matcher: the catalog plus its text-keyed memo,
        #: so the daily re-match of an unchanged domain is a dict hit
        #: instead of a DNS-name parse (the dominant cost of naive daily
        #: ingestion). Derived data — never serialised, rebuilt on
        #: demand after a resume.
        self._matcher = BatchMatcher(
            self.catalog
        )
        #: scope → reason, for scopes under quarantine escalation.
        self._quarantined: Dict[str, str] = {}
        #: Called after every applied/reconciled partition with
        #: ``(source, day)``. Derived wiring (the serve plane's snapshot
        #: swapper hangs off this) — never serialised, re-attached after
        #: a resume.
        self._apply_listeners: List[
            Callable[[str, int], None]
        ] = []
        self.partitions_applied = 0
        self.late_arrivals = 0
        self.partitions_dropped = 0

    def add_apply_listener(
        self, listener: Callable[[str, int], None]
    ) -> None:
        """Register *listener* to run after each applied partition.

        Listeners fire synchronously on the ingest path, after the
        partition's state mutations are complete — a listener therefore
        never observes a torn day. They are configuration, not state:
        checkpoints do not carry them and a resumed engine starts with
        none.
        """
        self._apply_listeners.append(listener)

    def _notify_applied(self, source: str, day: int) -> None:
        for listener in self._apply_listeners:
            listener(source, day)

    # -- ingestion ----------------------------------------------------------

    def ingest(
        self, partition: DayPartition, on_duplicate: str = "raise"
    ) -> str:
        """Ingest one partition; returns the outcome (see module docs)."""
        source, day = partition.source, partition.day
        cursor = self._cursors.get(source)
        if cursor is None:
            raise ValueError(f"source {source!r} not tracked by this engine")
        if not 0 <= day < self.horizon:
            raise ValueError(f"day {day} outside horizon {self.horizon}")
        next_day = cursor.next_day
        if next_day is None:
            window = self._windows.get(source)
            next_day = window[0] if window else day
            cursor.start = next_day
            cursor.next_day = next_day
        if SCOPE_OF_SOURCE[source] in self._quarantined:
            return self._drop(cursor, source, day, next_day, on_duplicate)
        if day < next_day:
            if day in cursor.holes:
                if not self._apply_or_quarantine(partition):
                    return POISONED
                cursor.holes.discard(day)
                self.late_arrivals += 1
                self._notify_applied(source, day)
                return RECONCILED
            return self._duplicate(source, day, on_duplicate)
        if day > next_day:
            if day in cursor.quarantine:
                return self._duplicate(source, day, on_duplicate)
            cursor.quarantine[day] = partition
            return QUARANTINED
        if not self._apply_or_quarantine(partition):
            # The poisoned day becomes a hole: a clean redelivery after
            # release_quarantine reconciles it like any late arrival.
            cursor.holes.add(day)
            cursor.next_day = next_day + 1
            return POISONED
        cursor.next_day = next_day + 1
        self._notify_applied(source, day)
        self._drain(source, cursor)
        return APPLIED

    def _drop(
        self,
        cursor: SourceCursor,
        source: str,
        day: int,
        next_day: int,
        on_duplicate: str,
    ) -> str:
        """Drop a partition for a quarantined scope, recording holes."""
        if day < next_day:
            if day in cursor.holes:
                self.partitions_dropped += 1
                return DROPPED
            return self._duplicate(source, day, on_duplicate)
        for missing in range(next_day, day + 1):
            cursor.quarantine.pop(missing, None)
            cursor.holes.add(missing)
        cursor.next_day = day + 1
        self.partitions_dropped += 1
        return DROPPED

    def skip_missing(self, source: str) -> List[int]:
        """Declare the gap before the quarantine missing and move on.

        Returns the days declared missing. If one of them arrives later it
        is reconciled as a late arrival.
        """
        cursor = self._cursors[source]
        if not cursor.quarantine or cursor.next_day is None:
            return []
        gap = list(range(cursor.next_day, min(cursor.quarantine)))
        cursor.holes.update(gap)
        cursor.next_day = min(cursor.quarantine)
        self._drain(source, cursor)
        return gap

    def _drain(self, source: str, cursor: SourceCursor) -> None:
        scope_name = SCOPE_OF_SOURCE[source]
        while (
            cursor.next_day is not None
            and cursor.next_day in cursor.quarantine
        ):
            day = cursor.next_day
            partition = cursor.quarantine.pop(day)
            if scope_name in self._quarantined:
                cursor.holes.add(day)
                self.partitions_dropped += 1
                cursor.next_day = day + 1
            elif not self._apply_or_quarantine(partition):
                cursor.holes.add(day)
                cursor.next_day = day + 1
            else:
                cursor.next_day = day + 1
                self._notify_applied(source, day)

    def _apply(self, partition: DayPartition) -> None:
        """Fold one partition into its scope state.

        Every row is read and matched *before* any state mutation, so a
        partition with unreadable rows raises without half-applying — a
        clean redelivery later reconciles exactly.
        """
        scope_name = SCOPE_OF_SOURCE[partition.source]
        day = partition.day
        batch = partition.batch
        row_matches = self._matcher.match_rows(batch)
        domains = batch.names.values(batch.domains)
        tlds = batch.names.values(batch.tlds)
        self._cursors[partition.source].zone_sizes[day] = partition.zone_size
        scope = self._scopes[scope_name]
        for domain, tld, matches in zip(domains, tlds, row_matches):
            scope.observe(domain, tld, day, matches)
        if self._sketches is not None:
            ends = [day + 1] * len(batch)
            self._sketches.fold_runs(scope_name, batch, ends, row_matches)
        self.partitions_applied += 1

    def _apply_or_quarantine(self, partition: DayPartition) -> bool:
        """Apply a partition; a poisoned one quarantines its scope.

        This is the designed containment point of the ingest path: any
        failure to read a partition's rows escalates to a scope
        quarantine (recorded, releasable) instead of killing the run.
        """
        try:
            self._apply(partition)
        except Exception as exc:  # repro: ignore[swallowed-exception]
            self.quarantine_scope(
                SCOPE_OF_SOURCE[partition.source],
                f"poisoned partition ({partition.source}, "
                f"{partition.day}): {exc}",
            )
            return False
        return True

    # -- scope quarantine ----------------------------------------------------

    def quarantine_scope(self, scope: str, reason: str) -> None:
        """Quarantine *scope*: drop its partitions until released.

        Idempotent — the first reason sticks.
        """
        if scope not in self._scopes:
            raise ValueError(f"unknown scope {scope!r}")
        self._quarantined.setdefault(scope, reason)

    def release_quarantine(self, scope: str) -> str:
        """Lift *scope*'s quarantine; returns the recorded reason.

        Days dropped while quarantined remain holes: a re-delivered
        partition for one reconciles as a late arrival, so replaying the
        dropped days heals the scope to exactly the clean state.
        """
        reason = self._quarantined.pop(scope, None)
        if reason is None:
            raise ValueError(f"scope {scope!r} is not quarantined")
        return reason

    def is_quarantined(self, scope: str) -> bool:
        return scope in self._quarantined

    @property
    def quarantined_scopes(self) -> Dict[str, str]:
        """scope → reason, for every currently quarantined scope."""
        return dict(sorted(self._quarantined.items()))

    @staticmethod
    def _duplicate(source: str, day: int, on_duplicate: str) -> str:
        if on_duplicate == "skip":
            return DUPLICATE
        raise ValueError(f"({source}, {day}) already ingested")

    def ingest_feed(
        self,
        partitions: Iterable[DayPartition],
        on_duplicate: str = "raise",
        skip_gaps: bool = False,
    ) -> int:
        """Ingest every partition of an iterable; returns #applied.

        With ``skip_gaps`` any days still blocking a source's quarantine
        buffer afterwards are declared missing via :meth:`skip_missing`
        — a feed that skipped unreadable partitions would otherwise
        stall its source forever.
        """
        before = self.partitions_applied
        for partition in partitions:
            self.ingest(partition, on_duplicate=on_duplicate)
        if skip_gaps:
            for source in self.sources:
                while self._cursors[source].quarantine:
                    self.skip_missing(source)
        return self.partitions_applied - before

    # -- ingest introspection -----------------------------------------------

    def next_day(self, source: str) -> Optional[int]:
        return self._cursors[source].next_day

    def resume_day(self, source: str) -> Optional[int]:
        """Where a replayed feed should restart for *source*."""
        cursor = self._cursors[source]
        if cursor.next_day is not None:
            return cursor.next_day
        window = self._windows.get(source)
        return window[0] if window else None

    def pending_days(self, source: str) -> List[int]:
        """Quarantined (not yet applicable) days of *source*."""
        return sorted(self._cursors[source].quarantine)

    def missing_days(self, source: str) -> List[int]:
        """Days declared missing and still unreconciled."""
        return sorted(self._cursors[source].holes)

    def latest_day(self, scope: str = "gtld") -> Optional[int]:
        """The most recent fully ingested day of *scope*'s sources."""
        days: List[int] = []
        for source in self.sources:
            if SCOPE_OF_SOURCE[source] != scope:
                continue
            next_day = self._cursors[source].next_day
            if next_day is not None:
                days.append(next_day)
        if not days:
            return None
        return min(days) - 1

    def scope(self, name: str = "gtld") -> ScopeState:
        return self._scopes[name]

    @property
    def sketches(self) -> Optional[SketchPlane]:
        """The streaming sketch plane (None unless configured)."""
        return self._sketches

    @property
    def scope_names(self) -> List[str]:
        return list(self._scopes)

    # -- live queries --------------------------------------------------------

    def adoption(
        self, provider: str, day: Optional[int] = None, scope: str = "gtld"
    ) -> int:
        """Distinct SLDs using *provider* on *day* (default: latest)."""
        if day is None:
            day = self.latest_day(scope)
            if day is None or day < 0:
                return 0
        return self._scopes[scope].adoption(provider, day)

    def any_adoption(
        self, day: Optional[int] = None, scope: str = "gtld"
    ) -> int:
        if day is None:
            day = self.latest_day(scope)
            if day is None or day < 0:
                return 0
        return self._scopes[scope].any_adoption(day)

    def detection(self, scope: str = "gtld") -> DetectionResult:
        """The batch-equivalent detection result for *scope*."""
        return self._scopes[scope].result()

    def domain_history(
        self, name: str
    ) -> Dict[str, Dict[str, List[UseInterval]]]:
        """scope → provider → use intervals for one domain."""
        history: Dict[str, Dict[str, List[UseInterval]]] = {}
        for scope_name, state in sorted(self._scopes.items()):
            intervals = state.domain_intervals(name)
            if intervals:
                history[scope_name] = intervals
        return history

    def zone_size_series(self, source: str) -> List[int]:
        """Daily listing size of *source* (0 where not yet ingested)."""
        sizes = [0] * self.horizon
        for day, size in sorted(self._cursors[source].zone_sizes.items()):
            sizes[day] = size
        return sizes

    def expansion_series(self) -> List[int]:
        """Combined gTLD zone size per day (the Fig. 5 baseline)."""
        combined = [0] * self.horizon
        for source in GTLD_SOURCES:
            if source not in self._cursors:
                continue
            for day, size in sorted(self._cursors[source].zone_sizes.items()):
                combined[day] += size
        return combined

    # -- derived aggregates (Figs. 4–6) --------------------------------------

    def _scope_extent(self, scope: str) -> Tuple[int, int]:
        """``[start, end)`` of the days every source of *scope* covered."""
        starts: List[int] = []
        ends: List[int] = []
        for source in self.sources:
            if SCOPE_OF_SOURCE[source] != scope:
                continue
            cursor = self._cursors[source]
            if cursor.next_day is None or cursor.start is None:
                window = self._windows.get(source)
                starts.append(window[0] if window else 0)
                ends.append(window[0] if window else 0)
            else:
                starts.append(cursor.start)
                ends.append(cursor.next_day)
        if not starts:
            raise ValueError(f"no sources feed scope {scope!r}")
        start, end = min(starts), min(ends)
        if end <= start:
            raise ValueError(f"scope {scope!r} has no ingested days")
        return start, end

    def growth(self, source: str) -> Dict[str, GrowthSeries]:
        """Growth series for *source*: ``gtld`` (Fig. 5), ``nl`` or
        ``alexa`` (Fig. 6), from the accumulated daily aggregates.

        With the full horizon ingested these equal the batch study's
        ``growth_gtld`` / ``growth_cc`` entries exactly; mid-stream they
        cover the ingested extent.
        """
        if source == "gtld":
            start, end = self._scope_extent("gtld")
            adoption = self._scopes["gtld"].any_series()[start:end]
            expansion = self.expansion_series()[start:end]
            return self._growth.compare(
                {
                    "DPS adoption": adoption,
                    "Overall expansion": expansion,
                }
            )
        if source == "nl":
            start, end = self._scope_extent("nl")
            return self._growth.compare(
                {
                    "DPS adoption (.nl)": (
                        self._scopes["nl"].any_series()[start:end]
                    ),
                    "Overall expansion (.nl)": (
                        self.zone_size_series("nl")[start:end]
                    ),
                }
            )
        if source == "alexa":
            start, end = self._scope_extent("alexa")
            return self._growth.compare(
                {
                    "DPS adoption (Alexa)": (
                        self._scopes["alexa"].any_series()[start:end]
                    ),
                }
            )
        raise ValueError(f"unknown growth source {source!r}")

    def fig4_distributions(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(namespace_distribution, dps_distribution)`` over the gTLDs."""
        zone_averages: Dict[str, float] = {}
        use_averages: Dict[str, float] = {}
        gtld = self._scopes["gtld"]
        for source in GTLD_SOURCES:
            sizes = self.zone_size_series(source)
            zone_averages[source] = sum(sizes) / max(1, len(sizes))
            series = gtld.tld_series(source)
            use_averages[source] = sum(series) / max(1, len(series))
        zone_total = sum(zone_averages.values()) or 1.0
        use_total = sum(use_averages.values()) or 1.0
        return (
            {tld: value / zone_total for tld, value in zone_averages.items()},
            {tld: value / use_total for tld, value in use_averages.items()},
        )

    def flux(self, scope: str = "gtld") -> Dict[str, FluxSeries]:
        """Per-provider flux (Fig. 7) from the live interval state."""
        state = self._scopes[scope]
        return FluxAnalysis(self.horizon).analyze_intervals(
            state.intervals(), state.provider_names
        )

    def peaks(self, scope: str = "gtld") -> Dict[str, PeakStats]:
        """Per-provider peak stats (Fig. 8) from the live interval state."""
        state = self._scopes[scope]
        return PeakAnalysis(self.horizon).analyze_intervals(
            state.intervals(), state.provider_names
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-compatible engine state (checkpoint payload)."""
        return {
            "horizon": self.horizon,
            "sources": list(self.sources),
            "windows": {
                source: list(window)
                for source, window in sorted(self._windows.items())
            },
            "scopes": {
                name: state.to_dict()
                for name, state in sorted(self._scopes.items())
            },
            "cursors": {
                source: {
                    "start": cursor.start,
                    "next_day": cursor.next_day,
                    "holes": sorted(cursor.holes),
                    "quarantine": [
                        _partition_to_dict(cursor.quarantine[day])
                        for day in sorted(cursor.quarantine)
                    ],
                    "zone_sizes": [
                        [day, size]
                        for day, size in sorted(cursor.zone_sizes.items())
                    ],
                }
                for source, cursor in sorted(self._cursors.items())
            },
            "quarantined_scopes": dict(sorted(self._quarantined.items())),
            "partitions_applied": self.partitions_applied,
            "late_arrivals": self.late_arrivals,
            "partitions_dropped": self.partitions_dropped,
            "sketches": (
                self._sketches.to_dict()
                if self._sketches is not None
                else None
            ),
        }

    @classmethod
    def from_dict(
        cls,
        payload: Mapping[str, Any],
        catalog: Optional[SignatureCatalog] = None,
    ) -> "StreamEngine":
        engine = cls(
            horizon=int(payload["horizon"]),
            catalog=catalog,
            sources=payload["sources"],
            windows={
                source: (int(window[0]), int(window[1]))
                for source, window in sorted(payload["windows"].items())
            },
        )
        engine._scopes = {
            name: ScopeState.from_dict(state)
            for name, state in sorted(payload["scopes"].items())
        }
        for source, data in sorted(payload["cursors"].items()):
            cursor = engine._cursors[source]
            cursor.start = data["start"]
            cursor.next_day = data["next_day"]
            cursor.holes = set(data["holes"])
            cursor.quarantine = {
                partition["day"]: _partition_from_dict(partition)
                for partition in data["quarantine"]
            }
            cursor.zone_sizes = {
                day: size for day, size in data["zone_sizes"]
            }
        engine._quarantined = dict(
            sorted(payload.get("quarantined_scopes", {}).items())
        )
        engine.partitions_applied = int(payload["partitions_applied"])
        engine.late_arrivals = int(payload["late_arrivals"])
        engine.partitions_dropped = int(
            payload.get("partitions_dropped", 0)
        )
        sketches = payload.get("sketches")
        engine._sketches = (
            SketchPlane.from_dict(sketches)
            if sketches is not None
            else None
        )
        return engine


def _partition_to_dict(partition: DayPartition) -> Dict[str, object]:
    try:
        observations = [
            {
                "day": observation.day,
                "domain": observation.domain,
                "tld": observation.tld,
                "ns_names": list(observation.ns_names),
                "apex_addrs": list(observation.apex_addrs),
                "www_cnames": list(observation.www_cnames),
                "www_addrs": list(observation.www_addrs),
                "apex_addrs6": list(observation.apex_addrs6),
                "www_addrs6": list(observation.www_addrs6),
                "asns": sorted(observation.asns),
            }
            for observation in partition.observations
        ]
    except ValueError as exc:
        # A held partition is unread until it applies: it may be poisoned.
        raise ValueError(
            f"held partition ({partition.source}, {partition.day}) "
            f"is unreadable: {exc}"
        ) from exc
    return {
        "source": partition.source,
        "day": partition.day,
        "zone_size": partition.zone_size,
        "observations": observations,
    }


def _partition_from_dict(payload: Mapping[str, Any]) -> DayPartition:
    batch = ObservationBatch()
    for row in payload["observations"]:
        # Row dicts carry exactly append_fields's parameters; any other
        # shape is a TypeError — a corrupt checkpoint to load_checkpoint.
        batch.append_fields(**row)
    return DayPartition.from_batch(
        source=payload["source"],
        day=int(payload["day"]),
        zone_size=int(payload["zone_size"]),
        batch=batch,
    )
