"""The streaming sketch plane: per-scope summaries the engine maintains.

One :class:`ScopeSketches` per detection scope, updated by one fold
over runs, :meth:`SketchPlane.fold_runs` — engine ingest (a partition
as one-day runs) and store rebuild (a source's stored runs) alike:

* ``provider_days`` / ``provider_topk`` — domain-days per provider
  (count-min + space-saving), the top-K-by-adoption stream;
* ``provider_day`` — a count-min over ``provider␟day`` keys: the O(1)
  per-provider-per-day adoption counter ``repro.serve`` answers from;
* ``domains`` / ``provider_domains`` — HyperLogLogs for scope-wide and
  per-provider distinct-domain counts;
* ``provider_day_domains`` — one small HyperLogLog per active
  ``(provider, day)``; prefix unions over it yield first-seen influx
  ("joins") series, the churn ranking, and the mass-migration anomaly
  counters;
* ``third_party`` / ``third_party_counts`` — heavy-hitter third-party
  hosters (NS/CNAME SLDs of *unprotected* rows, provider SLDs
  excluded), mirroring the attribution layer's vocabulary.

Every update is a commutative, idempotent-under-max or additive fold of
one ``(domain, day, matches)`` fact — a run states one per day it
covers — so the serialized plane is a pure function of the fact set:
in-order, late-arrival, kill/resumed and store-rebuilt runs all land on
byte-identical state (the space-saving instances stay in their exact
regime while the key universe fits capacity — see ``docs/SKETCHES.md``
for the precise claim).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
)

from repro.batch.batch import MatchKey, ObservationBatch
from repro.core.references import Matches, SignatureCatalog
from repro.measurement.snapshot import sld_of
from repro.sketch.cms import CountMinSketch
from repro.sketch.hashing import hash64
from repro.sketch.hll import HyperLogLog
from repro.sketch.topk import SpaceSaving

#: Separates provider from day in compound count-min/HLL keys.
KEY_SEP = "\x1f"

#: A HyperLogLog rank is at most ``64 - precision + 1`` (≤ 61): six bits.
RANK_BITS = 6
RANK_MASK = (1 << RANK_BITS) - 1


@dataclass(frozen=True)
class SketchConfig:
    """Shapes and the seed of every sketch the plane maintains."""

    seed: int = 2016
    cms_depth: int = 4
    cms_width: int = 8192
    topk_capacity: int = 128
    third_party_capacity: int = 512
    hll_precision: int = 12
    day_hll_precision: int = 10

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "cms_depth": self.cms_depth,
            "cms_width": self.cms_width,
            "topk_capacity": self.topk_capacity,
            "third_party_capacity": self.third_party_capacity,
            "hll_precision": self.hll_precision,
            "day_hll_precision": self.day_hll_precision,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SketchConfig":
        return cls(
            seed=int(payload["seed"]),
            cms_depth=int(payload["cms_depth"]),
            cms_width=int(payload["cms_width"]),
            topk_capacity=int(payload["topk_capacity"]),
            third_party_capacity=int(payload["third_party_capacity"]),
            hll_precision=int(payload["hll_precision"]),
            day_hll_precision=int(payload["day_hll_precision"]),
        )

    def role_seed(self, role: str) -> int:
        """A stable per-structure seed derived from the plane seed."""
        return hash64(role, self.seed)


class ScopeSketches:
    """One scope's sketch set; :meth:`SketchPlane.fold_runs` is the
    only code that mutates it."""

    def __init__(self, config: SketchConfig):
        # Shared shape parameters, not state: rebuilt from the plane's
        # config on load (from_dict re-derives every seed from it).
        self.config = config
        self.rows_observed = 0
        self.matched_rows = 0
        self.provider_days = CountMinSketch(
            config.cms_depth,
            config.cms_width,
            config.role_seed("cms:provider-days"),
        )
        self.provider_day = CountMinSketch(
            config.cms_depth,
            config.cms_width,
            config.role_seed("cms:provider-day"),
        )
        self.third_party_counts = CountMinSketch(
            config.cms_depth,
            config.cms_width,
            config.role_seed("cms:third-party"),
        )
        self.provider_topk = SpaceSaving(config.topk_capacity)
        self.third_party = SpaceSaving(config.third_party_capacity)
        self.domains = HyperLogLog(
            config.hll_precision, config.role_seed("hll:domains")
        )
        self.provider_domains: Dict[str, HyperLogLog] = {}
        self.provider_day_domains: Dict[str, HyperLogLog] = {}

    # -- queries ------------------------------------------------------------

    def adoption_estimate(self, provider: str, day: int) -> int:
        """Estimated distinct domains on *provider* at *day* (≥ truth)."""
        return self.provider_day.estimate(
            provider + KEY_SEP + str(day)
        )

    def adoption_error_bound(self) -> float:
        """Absolute ``εN`` bound on :meth:`adoption_estimate`."""
        return self.provider_day.error_bound()

    def distinct_domains(self) -> float:
        return self.domains.estimate()

    def provider_distinct(self, provider: str) -> float:
        counter = self.provider_domains.get(provider)
        return counter.estimate() if counter is not None else 0.0

    def top_providers(self, k: int) -> List[Tuple[str, int, int]]:
        return self.provider_topk.top(k)

    def top_third_parties(self, k: int) -> List[Tuple[str, int, int]]:
        return self.third_party.top(k)

    def provider_names(self) -> List[str]:
        return sorted(self.provider_domains)

    def active_days(self, provider: str) -> List[int]:
        prefix = provider + KEY_SEP
        return sorted(
            int(key[len(prefix):])
            for key in self.provider_day_domains
            if key.startswith(prefix)
        )

    def joins_series(self, provider: str) -> List[Tuple[int, int]]:
        """Estimated first-seen arrivals ("joins") per active day.

        A prefix-union walk over the per-day HyperLogLogs: the day-``t``
        joins estimate is ``|∪_{s≤t}| − |∪_{s<t}|`` — a domain counts
        toward influx at most once, matching the flux analysis's
        first-seen semantics (§4.4.2).
        """
        running = HyperLogLog(
            self.config.day_hll_precision,
            self.config.role_seed("hll:provider-day"),
        )
        series: List[Tuple[int, int]] = []
        previous = 0.0
        prefix = provider + KEY_SEP
        for day in self.active_days(provider):
            running.merge(self.provider_day_domains[prefix + str(day)])
            estimate = running.estimate()
            series.append((day, max(0, round(estimate - previous))))
            previous = estimate
        return series

    def churn_score(self, provider: str) -> int:
        """Total estimated arrivals after the provider's first day.

        The first active day carries the pre-existing customer base
        (everyone protected on day 0 is "first seen" then), so it is
        excluded — same convention as ``FluxSeries.spread``.
        """
        series = self.joins_series(provider)
        return sum(joins for _, joins in series[1:])

    def top_churn(self, k: int) -> List[Tuple[str, int]]:
        scored = sorted(
            (
                (provider, self.churn_score(provider))
                for provider in self.provider_names()
            ),
            key=lambda item: (-item[1], item[0]),
        )
        return scored[: max(0, k)]

    def migration_anomalies(
        self, provider: str, factor: float = 4.0, floor: int = 8
    ) -> List[Tuple[int, int]]:
        """Days whose joins estimate spikes over the provider's norm.

        A day is anomalous when its arrivals exceed ``factor`` times
        the provider's mean daily arrivals (first day excluded) and the
        absolute ``floor`` — the mass-migration signature.
        """
        series = self.joins_series(provider)[1:]
        if not series:
            return []
        mean = sum(joins for _, joins in series) / len(series)
        threshold = max(float(floor), factor * mean)
        return [
            (day, joins) for day, joins in series if joins > threshold
        ]

    # -- copy ---------------------------------------------------------------

    def copy(self, include_day_domains: bool = True) -> "ScopeSketches":
        twin = ScopeSketches(self.config)
        twin.rows_observed = self.rows_observed
        twin.matched_rows = self.matched_rows
        twin.provider_days = self.provider_days.copy()
        twin.provider_day = self.provider_day.copy()
        twin.third_party_counts = self.third_party_counts.copy()
        twin.provider_topk = self.provider_topk.copy()
        twin.third_party = self.third_party.copy()
        twin.domains = self.domains.copy()
        twin.provider_domains = {
            provider: counter.copy()
            for provider, counter in sorted(
                self.provider_domains.items()
            )
        }
        if include_day_domains:
            twin.provider_day_domains = {
                day_key: counter.copy()
                for day_key, counter in sorted(
                    self.provider_day_domains.items()
                )
            }
        return twin

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "rows_observed": self.rows_observed,
            "matched_rows": self.matched_rows,
            "provider_days": self.provider_days.to_dict(),
            "provider_day": self.provider_day.to_dict(),
            "third_party_counts": self.third_party_counts.to_dict(),
            "provider_topk": self.provider_topk.to_dict(),
            "third_party": self.third_party.to_dict(),
            "domains": self.domains.to_dict(),
            "provider_domains": {
                provider: counter.to_dict()
                for provider, counter in sorted(
                    self.provider_domains.items()
                )
            },
            "provider_day_domains": {
                day_key: counter.to_dict()
                for day_key, counter in sorted(
                    self.provider_day_domains.items()
                )
            },
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], config: SketchConfig
    ) -> "ScopeSketches":
        scope = cls(config)
        scope.rows_observed = int(payload["rows_observed"])
        scope.matched_rows = int(payload["matched_rows"])
        scope.provider_days = CountMinSketch.from_dict(
            payload["provider_days"]
        )
        scope.provider_day = CountMinSketch.from_dict(
            payload["provider_day"]
        )
        scope.third_party_counts = CountMinSketch.from_dict(
            payload["third_party_counts"]
        )
        scope.provider_topk = SpaceSaving.from_dict(
            payload["provider_topk"]
        )
        scope.third_party = SpaceSaving.from_dict(
            payload["third_party"]
        )
        scope.domains = HyperLogLog.from_dict(payload["domains"])
        scope.provider_domains = {
            provider: HyperLogLog.from_dict(counter)
            for provider, counter in sorted(
                payload["provider_domains"].items()
            )
        }
        scope.provider_day_domains = {
            day_key: HyperLogLog.from_dict(counter)
            for day_key, counter in sorted(
                payload["provider_day_domains"].items()
            )
        }
        return scope


class SketchPlane:
    """Every scope's sketches plus the third-party key vocabulary."""

    def __init__(
        self,
        config: SketchConfig,
        scope_names: Iterable[str],
        provider_slds: Iterable[str] = (),
    ):
        self.config = config
        self.scopes: Dict[str, ScopeSketches] = {
            name: ScopeSketches(config)
            for name in sorted(set(scope_names))
        }
        #: Provider-owned SLDs excluded from the third-party streams
        #: (same vocabulary the attribution layer subtracts).
        self.provider_slds = frozenset(provider_slds)
        #: (ns_names, www_cnames) → third-party keys. Derived memo,
        #: rebuilt on demand after a resume — never serialized.
        self._third_party_cache: Dict[
            Tuple[Tuple[str, ...], Tuple[str, ...]], Tuple[str, ...]
        ] = {}
        #: Domain → its ``domains``-role slot, packed as ``register <<
        #: RANK_BITS | rank``: one digest per distinct domain, not per
        #: row. Derived memo, never serialized.
        self._domain_slots: Dict[str, int] = {}
        #: Matched domain → its ``provider-domains`` and ``provider-day``
        #: role slots, the same memo for the two roles only matched rows
        #: reach. Derived, never serialized.
        self._matched_slots: Dict[
            str, Tuple[Tuple[int, int], Tuple[int, int]]
        ] = {}

    def scope(self, name: str) -> ScopeSketches:
        return self.scopes[name]

    def third_party_keys(
        self,
        ns_names: Tuple[str, ...],
        www_cnames: Tuple[str, ...],
    ) -> Tuple[str, ...]:
        """``ns:<sld>`` / ``cname:<sld>`` keys for one unprotected row."""
        cache_key = (ns_names, www_cnames)
        cached = self._third_party_cache.get(cache_key)
        if cached is not None:
            return cached
        keys = set()
        for name in ns_names:
            sld = sld_of(name)
            if sld and sld not in self.provider_slds:
                keys.add("ns:" + sld)
        for name in www_cnames:
            sld = sld_of(name)
            if sld and sld not in self.provider_slds:
                keys.add("cname:" + sld)
        result = tuple(sorted(keys))
        self._third_party_cache[cache_key] = result
        return result

    def fold_runs(
        self,
        scope: str,
        batch: ObservationBatch,
        ends: Sequence[int],
        row_matches: Sequence[Matches],
    ) -> None:
        """Fold runs into *scope*'s sketches: row *i* of *batch*, with
        its matches ``row_matches[i]``, holds on every day of
        ``[batch.days[i], ends[i])`` — the engine's partition as one-day
        runs, or a store rebuild's stored runs.

        A run is hashed once per HyperLogLog role, its slot raised on
        every counter of that role it reaches. Count-min is additive, so
        each key's days are summed and added by one update. Space-saving
        takes the daily rows' updates in their order (days ascending,
        each day's rows in batch order) unless its keys and the call's
        fit its capacity: nothing can evict then, and one update per key
        lands on the same state.
        """
        sketches = self.scopes[scope]
        config = self.config
        first = min(batch.days, default=0)
        blank_domains = HyperLogLog(
            config.hll_precision, config.role_seed("hll:domains")
        )
        blank_provider = HyperLogLog(
            config.hll_precision, config.role_seed("hll:provider-domains")
        )
        blank_day = HyperLogLog(
            config.day_hll_precision, config.role_seed("hll:provider-day")
        )
        provider_rows: Dict[str, int] = {}
        day_rows: Dict[str, int] = {}
        third_rows: Dict[str, int] = {}
        # Third-party keys depend only on the NS/CNAME texts, so the
        # per-batch match key dedups their extraction exactly like it
        # dedups signature matching.
        third_by_key: Dict[MatchKey, Tuple[str, ...]] = {}
        domain_slots = self._domain_slots
        matched_slots = self._matched_slots
        domains = sketches.domains
        matched = 0
        for index, (start, end, matches) in enumerate(
            zip(batch.days, ends, row_matches)
        ):
            domain = batch.domain_text(index)
            packed = domain_slots.get(domain)
            if packed is None:
                register, rank = blank_domains.slot(domain)
                packed = domain_slots[domain] = register << RANK_BITS | rank
            domains.raise_register(packed >> RANK_BITS, packed & RANK_MASK)
            if not matches:
                id_key = batch.match_key(index)
                third = third_by_key.get(id_key)
                if third is None:
                    third = third_by_key[id_key] = self.third_party_keys(
                        batch.ns_texts(index), batch.cname_texts(index)
                    )
                for key in third:
                    third_rows[key] = third_rows.get(key, 0) + end - start
                continue
            matched += end - start
            slots = matched_slots.get(domain)
            if slots is None:
                slots = matched_slots[domain] = (
                    blank_provider.slot(domain), blank_day.slot(domain)
                )
            provider_slot, day_slot = slots
            for provider in sorted(matches):
                provider_rows[provider] = (
                    provider_rows.get(provider, 0) + end - start
                )
                counters = sketches.provider_domains
                counter = counters.get(provider) or counters.setdefault(
                    provider, blank_provider.copy()
                )
                counter.raise_register(*provider_slot)
                for day in range(start, end):
                    day_key = provider + KEY_SEP + str(day)
                    day_rows[day_key] = day_rows.get(day_key, 0) + 1
                    counters = sketches.provider_day_domains
                    counter = counters.get(day_key) or counters.setdefault(
                        day_key, blank_day.copy()
                    )
                    counter.raise_register(*day_slot)
        sketches.rows_observed += sum(ends) - sum(batch.days)
        sketches.matched_rows += matched
        for provider, count in provider_rows.items():
            sketches.provider_days.update(provider, count)
        for day_key, count in day_rows.items():
            sketches.provider_day.update(day_key, count)
        for key, count in third_rows.items():
            sketches.third_party_counts.update(key, count)
        for summary, counts, unmatched in (
            (sketches.provider_topk, provider_rows, False),
            (sketches.third_party, third_rows, True),
        ):
            if len(summary.counters.keys() | counts.keys()) <= (
                summary.capacity
            ):
                for key, count in counts.items():
                    summary.update(key, count)
                continue
            days: List[List[str]] = [[] for _ in range(first, max(ends))]
            for index, (start, end, matches) in enumerate(
                zip(batch.days, ends, row_matches)
            ):
                if bool(matches) != unmatched:
                    keys = sorted(matches) if matches else third_by_key[
                        batch.match_key(index)
                    ]
                    for day in range(start - first, end - first):
                        days[day].extend(keys)
            for key in itertools.chain.from_iterable(days):
                summary.update(key)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config.to_dict(),
            "provider_slds": sorted(self.provider_slds),
            "scopes": {
                name: scope.to_dict()
                for name, scope in sorted(self.scopes.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SketchPlane":
        config = SketchConfig.from_dict(payload["config"])
        plane = cls(
            config,
            scope_names=sorted(payload["scopes"]),
            provider_slds=payload["provider_slds"],
        )
        plane.scopes = {
            name: ScopeSketches.from_dict(scope, config)
            for name, scope in sorted(payload["scopes"].items())
        }
        return plane

    def state_digest(self) -> str:
        """SHA-256 over the canonical serialized plane state."""
        dump = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def provider_slds_of(catalog: SignatureCatalog) -> FrozenSet[str]:
    """The provider-owned SLD set of a signature catalog.

    The same vocabulary :class:`repro.core.attribution` subtracts when
    deciding what counts as third-party infrastructure.
    """
    slds: Set[str] = set()
    for signature in catalog:
        slds |= signature.cname_slds
        slds |= signature.ns_slds
    return frozenset(slds)
