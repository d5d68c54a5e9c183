"""The live adoption query API over a running stream engine.

:class:`QueryAPI` is the read side of the subsystem: the exact calls the
issue tracker of a monitoring deployment would make against the always-on
engine — current adoption counters, growth-to-date, one domain's
protection history — without touching ingest state. It reads the live,
mutable state the ingest thread owns; serve threads read the frozen
:class:`repro.serve.index.ServeIndex` instead, and both build their
:class:`LiveSnapshot` through :meth:`LiveSnapshot.of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol

from repro.core.detection import UseInterval
from repro.core.growth import GrowthSeries
from repro.stream.engine import StreamEngine


class ScopeCounters(Protocol):
    """What a :class:`LiveSnapshot` is read from.

    Structural: the live :class:`repro.core.detection.ScopeState` and the
    frozen :class:`repro.serve.index.ScopeIndex` both satisfy it
    without this module importing the serve plane (which imports this
    one).
    """

    @property
    def domains_seen(self) -> int:
        ...

    @property
    def provider_names(self) -> List[str]:
        ...

    def adoption(self, provider: str, day: int) -> int:
        ...

    def any_adoption(self, day: int) -> int:
        ...


@dataclass(frozen=True)
class LiveSnapshot:
    """One scope's counters as of its latest fully ingested day."""

    scope: str
    day: Optional[int]
    domains_seen: int
    any_use: int
    providers: Dict[str, int]

    @classmethod
    def of(
        cls, scope: str, day: Optional[int], counters: ScopeCounters
    ) -> "LiveSnapshot":
        """*counters* read at *day* (None: no day ingested, all zero)."""
        return cls(
            scope=scope,
            day=day,
            domains_seen=counters.domains_seen,
            any_use=0 if day is None else counters.any_adoption(day),
            providers={
                provider: (
                    0 if day is None else counters.adoption(provider, day)
                )
                for provider in counters.provider_names
            },
        )

    def top_providers(self, limit: int = 5) -> List[str]:
        return sorted(
            self.providers, key=lambda p: (-self.providers[p], p)
        )[:limit]

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


@dataclass(frozen=True)
class DomainHistory:
    """Everything the engine knows about one domain's protection."""

    domain: str
    #: scope → provider → maximal use intervals.
    intervals: Dict[str, Dict[str, List[UseInterval]]]

    @property
    def providers(self) -> List[str]:
        names = {
            provider
            for by_provider in self.intervals.values()
            for provider in by_provider
        }
        return sorted(names)

    @property
    def scopes(self) -> List[str]:
        return sorted(self.intervals)

    def total_days(self, scope: str = "gtld") -> int:
        """Summed interval days across *scope*'s providers.

        A scope with no recorded protection (including one this history
        has never seen) contributes 0 days.
        """
        by_provider = self.intervals.get(scope, {})
        return sum(
            interval.days
            for intervals in by_provider.values()
            for interval in intervals
        )


class QueryAPI:
    """Read-only adoption queries against a :class:`StreamEngine`."""

    def __init__(self, engine: StreamEngine):
        self._engine = engine

    @property
    def engine(self) -> StreamEngine:
        return self._engine

    def adoption(
        self, provider: str, day: Optional[int] = None, scope: str = "gtld"
    ) -> int:
        """Distinct SLDs using *provider* on *day* (default: latest)."""
        return self._engine.adoption(provider, day=day, scope=scope)

    def growth(self, source: str) -> Dict[str, GrowthSeries]:
        """Growth-to-date for ``gtld``, ``nl`` or ``alexa``."""
        return self._engine.growth(source)

    def domain_history(self, name: str) -> DomainHistory:
        """The engine's full protection history for one domain."""
        return DomainHistory(
            domain=name, intervals=self._engine.domain_history(name)
        )

    def snapshot(self, scope: str = "gtld") -> LiveSnapshot:
        """Current counters for *scope* (what the CLI tail prints)."""
        state = self._engine.scope(scope)
        day = self._engine.latest_day(scope)
        if day is not None and day < 0:
            day = None
        return LiveSnapshot.of(scope, day, state)
