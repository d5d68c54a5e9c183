"""The snapshot index plane: immutable read-optimized adoption indexes.

A :class:`ServeIndex` is everything the query service needs to answer a
request, precomputed from a :class:`~repro.stream.engine.StreamEngine`
into plain read-only structures: per-domain protection state (current
providers, always-on/on-demand usage labels, compact interval history),
per-provider daily adoption series, and per-scope counters as of the
latest fully ingested day.

The :class:`SnapshotSwapper` owns the current index. Attached to an
engine it rebuilds after every *completed* day (a gTLD day is complete
only once com, net **and** org applied it) and publishes the new index
with a single reference assignment — readers on other threads always see
either the whole previous day or the whole next day, never a torn one,
and never take a lock that could block ingest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.classification import UsageClassifier
from repro.core.detection import UseInterval
from repro.sketch.plane import ScopeSketches
from repro.stream.engine import StreamEngine


class ServeError(ValueError):
    """A serve-index read that cannot be answered (unknown scope/...)."""


@dataclass(frozen=True)
class LiveSnapshot:
    """One scope's counters as of its latest fully ingested day."""

    scope: str
    day: Optional[int]
    domains_seen: int
    any_use: int
    providers: Dict[str, int]

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-compatible form (shared with the serve protocol).

        Keys are stable and provider counters are emitted sorted by name,
        so two equal snapshots always encode to identical bytes under
        :func:`repro.serve.protocol.canonical_json`.
        """
        return {
            "scope": self.scope,
            "day": self.day,
            "domains_seen": self.domains_seen,
            "any_use": self.any_use,
            "providers": {
                provider: self.providers[provider]
                for provider in sorted(self.providers)
            },
        }


def build_scope_index(
    engine: StreamEngine,
    scope_name: str,
    classifier: Optional[UsageClassifier] = None,
) -> "ScopeIndex":
    """One scope's :class:`ScopeIndex` copied out of live engine state.

    Called at the scope's own day boundary — right after the partition
    that completed the day applied, before any later partition — the
    copy is an exact prefix of the feed through that day. (After a
    quarantine-hole reconciliation the engine may already hold
    observations past the completed day; the index day is then a floor,
    still swap-atomic but not a pure prefix.)
    """
    if classifier is None:
        classifier = UsageClassifier(engine.horizon)
    day = engine.latest_day(scope_name)
    if day is not None and day < 0:
        day = None
    # One materialisation of the scope per completed day: intervals and
    # series are all read off the same result.
    detection = engine.scope(scope_name).result()
    usage = {
        key: classifier.classify_intervals(
            runs, 0, engine.horizon
        ).value
        for key, runs in detection.intervals.items()
        if runs
    }
    plane = engine.sketches
    return ScopeIndex(
        scope=scope_name,
        day=day,
        domains_seen=detection.domains_seen,
        any_series=detection.any_use_combined,
        provider_series={
            provider: series.total
            for provider, series in detection.providers.items()
        },
        intervals=detection.intervals,
        usage=usage,
        # A frozen copy of the scope's sketch set (the churn HLLs stay
        # on the live plane — serve answers point/top-K estimates).
        sketches=(
            plane.scope(scope_name).copy(include_day_domains=False)
            if plane is not None
            else None
        ),
    )


class ScopeIndex:
    """One scope's read-optimized aggregates, frozen at a day."""

    def __init__(
        self,
        scope: str,
        day: Optional[int],
        domains_seen: int,
        any_series: List[int],
        provider_series: Dict[str, List[int]],
        intervals: Dict[Tuple[str, str], List[UseInterval]],
        usage: Dict[Tuple[str, str], str],
        sketches: Optional[ScopeSketches] = None,
    ):
        self.scope = scope
        #: Latest fully ingested day (None before the first one).
        self.day = day
        self.domains_seen = domains_seen
        self.any_series = any_series
        self.provider_series = provider_series
        #: (domain, provider) → maximal use intervals, day-sorted.
        self.intervals = intervals
        #: (domain, provider) → UsageClass value (always-on/on-demand/…).
        self.usage = usage
        #: The scope's frozen sketch set (None without a sketch plane).
        self.sketches = sketches
        #: domain → sorted providers with any recorded use.
        self.domain_providers: Dict[str, List[str]] = {}
        for domain, provider in sorted(intervals):
            self.domain_providers.setdefault(domain, []).append(provider)

    @property
    def provider_names(self) -> List[str]:
        return sorted(self.provider_series)

    def adoption(self, provider: str, day: int) -> int:
        series = self.provider_series.get(provider)
        return series[day] if series else 0

    def any_adoption(self, day: int) -> int:
        return self.any_series[day] if self.any_series else 0


def _current_providers(
    scope_index: ScopeIndex, domain: str, day: Optional[int]
) -> List[str]:
    """Providers with an interval covering *day*, sorted by name."""
    if day is None:
        return []
    current = []
    for provider in scope_index.domain_providers.get(domain, []):
        for interval in scope_index.intervals[(domain, provider)]:
            if interval.start <= day < interval.end:
                current.append(provider)
                break
    return current


class ServeIndex:
    """An immutable point-in-time query index over every scope.

    Instances are built once (see :meth:`build`) and then only read —
    which is what makes handing the same object to any number of
    concurrent readers safe without locks.
    """

    def __init__(
        self, version: int, horizon: int, scopes: Dict[str, ScopeIndex]
    ):
        self.version = version
        self.horizon = horizon
        self._scopes = scopes

    @classmethod
    def build(cls, engine: StreamEngine, version: int = 0) -> "ServeIndex":
        """Materialise the read-optimized index from live engine state.

        Runs on the ingest side (between partitions), so it may read
        mutable engine state freely; everything it keeps is a copy.
        """
        classifier = UsageClassifier(engine.horizon)
        scopes = {
            scope_name: build_scope_index(engine, scope_name, classifier)
            for scope_name in sorted(engine.scope_names)
        }
        return cls(
            version=version, horizon=engine.horizon, scopes=scopes
        )

    def replace_scopes(
        self, version: int, scopes: Mapping[str, ScopeIndex]
    ) -> "ServeIndex":
        """A new index reusing this one's scopes except *scopes*."""
        merged = dict(self._scopes)
        merged.update(scopes)
        return ServeIndex(
            version=version, horizon=self.horizon, scopes=merged
        )

    # -- reads ---------------------------------------------------------------

    @property
    def scope_names(self) -> List[str]:
        return sorted(self._scopes)

    def scope(self, name: str) -> ScopeIndex:
        scope = self._scopes.get(name)
        if scope is None:
            raise ServeError(f"unknown scope {name!r}")
        return scope

    def lookup(self, domain: str, scope: str = "gtld") -> Dict[str, object]:
        """Point lookup: the domain's current protection in *scope*."""
        scope_index = self.scope(scope)
        day = scope_index.day
        providers = _current_providers(scope_index, domain, day)
        all_providers = scope_index.domain_providers.get(domain, [])
        return {
            "domain": domain,
            "scope": scope,
            "day": day,
            "protected": bool(providers),
            "providers": providers,
            "usage": {
                provider: scope_index.usage[(domain, provider)]
                for provider in all_providers
            },
        }

    def history(
        self, domain: str
    ) -> Dict[str, Dict[str, List[UseInterval]]]:
        """scope → provider → use intervals, as ``engine.domain_history``."""
        history: Dict[str, Dict[str, List[UseInterval]]] = {}
        for scope_name in sorted(self._scopes):
            scope_index = self._scopes[scope_name]
            by_provider = {
                provider: list(
                    scope_index.intervals[(domain, provider)]
                )
                for provider in scope_index.domain_providers.get(
                    domain, []
                )
            }
            if by_provider:
                history[scope_name] = by_provider
        return history

    def history_payload(self, domain: str) -> Dict[str, object]:
        """The protocol form of :meth:`history` (intervals as pairs)."""
        return {
            "domain": domain,
            "scopes": {
                scope_name: {
                    provider: [
                        [interval.start, interval.end]
                        for interval in intervals
                    ]
                    for provider, intervals in sorted(
                        by_provider.items()
                    )
                }
                for scope_name, by_provider in sorted(
                    self.history(domain).items()
                )
            },
        }

    def adoption(
        self,
        provider: str,
        day: Optional[int] = None,
        scope: str = "gtld",
    ) -> int:
        """Distinct SLDs using *provider* on *day* (default: latest)."""
        scope_index = self.scope(scope)
        if day is None:
            day = scope_index.day
            if day is None:
                return 0
        else:
            self._check_ingested(scope, scope_index, day)
        return scope_index.adoption(provider, day)

    def _check_ingested(
        self, scope: str, scope_index: ScopeIndex, day: int
    ) -> None:
        """Reject a day outside the horizon or past the last ingested
        day: nothing is known there yet, so any count would read as
        zero adoption, a wrong number."""
        if not 0 <= day < self.horizon:
            raise ServeError(f"day {day} outside horizon {self.horizon}")
        if scope_index.day is None or day > scope_index.day:
            raise ServeError(
                f"day {day} not ingested yet for scope {scope!r}"
            )

    def aggregate(
        self, scope: str = "gtld", day: Optional[int] = None
    ) -> Dict[str, object]:
        """Provider-level adoption counters for *scope* at *day*."""
        scope_index = self.scope(scope)
        if day is None:
            day = scope_index.day
        if day is None:
            providers = {
                provider: 0 for provider in scope_index.provider_names
            }
            any_use = 0
        else:
            self._check_ingested(scope, scope_index, day)
            providers = {
                provider: scope_index.adoption(provider, day)
                for provider in scope_index.provider_names
            }
            any_use = scope_index.any_adoption(day)
        return {
            "scope": scope,
            "day": day,
            "any_use": any_use,
            "providers": providers,
            "domains_seen": scope_index.domains_seen,
        }

    def sketch_guarantee(self, scope: str = "gtld") -> float:
        """The absolute error bound on sketch provider counters.

        The count-min ``εN`` bound of the ``provider␟day`` stream —
        what the ``auto`` aggregate path compares against a requested
        ``max_error`` before deciding sketch vs exact.
        """
        scope_index = self.scope(scope)
        if scope_index.sketches is None:
            raise ServeError(
                f"scope {scope!r} has no sketch plane; "
                f"serve the engine with sketches enabled"
            )
        return scope_index.sketches.adoption_error_bound()

    def aggregate_sketch(
        self,
        scope: str = "gtld",
        day: Optional[int] = None,
        k: int = 10,
    ) -> Dict[str, object]:
        """The sketch-plane :meth:`aggregate`: O(1) in history length.

        Answers from the frozen :class:`ScopeSketches` alone — point
        count-min reads, top-K summaries, and HyperLogLog cardinality —
        touching neither the interval maps nor segment history. Every
        counter is an estimate: provider counts never under-count and
        over-count by at most ``error_bound`` (at the sketch's
        confidence), distinct counts carry the HLL relative error.
        """
        scope_index = self.scope(scope)
        sketches = scope_index.sketches
        if sketches is None:
            raise ServeError(
                f"scope {scope!r} has no sketch plane; "
                f"serve the engine with sketches enabled"
            )
        if day is None:
            day = scope_index.day
        else:
            self._check_ingested(scope, scope_index, day)
        providers = {
            provider: (
                sketches.adoption_estimate(provider, day)
                if day is not None
                else 0
            )
            for provider in sketches.provider_names()
        }
        return {
            "scope": scope,
            "day": day,
            "source": "sketch",
            "providers": providers,
            "provider_distinct": {
                provider: int(round(sketches.provider_distinct(provider)))
                for provider in sketches.provider_names()
            },
            "domains_seen_estimate": int(
                round(sketches.distinct_domains())
            ),
            "top_providers": [
                [key, count, error]
                for key, count, error in sketches.top_providers(k)
            ],
            "top_third_parties": [
                [key, count, error]
                for key, count, error in sketches.top_third_parties(k)
            ],
            "error_bound": round(sketches.adoption_error_bound(), 3),
            "distinct_relative_error": round(
                sketches.domains.relative_error, 6
            ),
            "rows_observed": sketches.rows_observed,
        }

    def live_snapshot(self, scope: str = "gtld") -> LiveSnapshot:
        """The scope's counters at its day (all zero before the first)."""
        scope_index = self.scope(scope)
        day = scope_index.day
        return LiveSnapshot(
            scope=scope,
            day=day,
            domains_seen=scope_index.domains_seen,
            any_use=0 if day is None else scope_index.any_adoption(day),
            providers={
                provider: (
                    0 if day is None else scope_index.adoption(provider, day)
                )
                for provider in scope_index.provider_names
            },
        )

    def snapshot_payload(self) -> Dict[str, object]:
        """Protocol form of the whole-index snapshot/health summary."""
        return {
            "version": self.version,
            "horizon": self.horizon,
            "scopes": {
                name: self.live_snapshot(name).to_dict()
                for name in sorted(self._scopes)
            },
        }


class SnapshotSwapper:
    """Owns the current :class:`ServeIndex`; rebuilds on day boundaries.

    ``attach()`` registers an engine apply-listener. After every applied
    partition the swapper checks whether any scope's latest complete day
    advanced; only then does it rebuild **those scopes** (one rebuild
    per completed day, not per partition) and atomically publish a new
    index that reuses the untouched scopes' existing :class:`ScopeIndex`
    objects. Rebuilding only at a scope's own boundary is what keeps a
    scope's published counters an exact feed prefix: scope B's index is
    never re-copied mid-way through scope A's next day. Readers call
    :meth:`current_index` — a bare attribute read of an immutable
    object, so queries never block ingest and never see a torn day.
    """

    def __init__(self, engine: StreamEngine):
        self._engine = engine
        self._rebuild_lock = threading.Lock()
        self._last_days: Dict[str, Optional[int]] = {}
        self._index = ServeIndex.build(engine, version=0)
        self._record_days(self._index)
        self.rebuilds = 0

    def _record_days(self, index: ServeIndex) -> None:
        self._last_days = {
            name: index.scope(name).day for name in index.scope_names
        }

    @property
    def engine(self) -> StreamEngine:
        return self._engine

    def current_index(self) -> ServeIndex:
        """The current immutable index (lock-free reader side)."""
        return self._index

    def attach(self) -> None:
        """Subscribe to the engine's apply events."""
        self._engine.add_apply_listener(self._on_applied)

    def _on_applied(self, source: str, day: int) -> None:
        self.rebuild_if_advanced()

    def _advanced_scopes(self) -> List[str]:
        advanced = []
        for name in sorted(self._engine.scope_names):
            latest = self._engine.latest_day(name)
            if latest is not None and latest < 0:
                latest = None
            if latest != self._last_days.get(name):
                advanced.append(name)
        return advanced

    def rebuild_if_advanced(self) -> bool:
        """Rebuild iff some scope completed a new day; True if swapped."""
        advanced = self._advanced_scopes()
        if not advanced:
            return False
        self.rebuild(advanced)
        return True

    def rebuild(
        self, scopes: Optional[Sequence[str]] = None
    ) -> ServeIndex:
        """Rebuild *scopes* (default: all) and atomically publish.

        Scopes not rebuilt keep their existing immutable
        :class:`ScopeIndex` — still frozen at their own day boundary.
        """
        with self._rebuild_lock:
            engine = self._engine
            classifier = UsageClassifier(engine.horizon)
            names = (
                sorted(engine.scope_names)
                if scopes is None
                else sorted(scopes)
            )
            rebuilt = {
                name: build_scope_index(engine, name, classifier)
                for name in names
            }
            index = self._index.replace_scopes(
                self._index.version + 1, rebuilt
            )
            self._record_days(index)
            self.rebuilds += 1
            # The swap: one reference assignment. Readers holding the
            # old index keep a consistent (merely stale) view.
            self._index = index
            return index
