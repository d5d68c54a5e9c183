"""Per-domain, per-day DPS use detection and its aggregation (§3.3, §4.1).

The detector consumes enriched observation segments and produces:

* daily use counts per provider, per reference type, per TLD, and combined
  (the series behind Figures 2 and 3);
* per ``(domain, provider)`` **use intervals** — maximal day ranges with at
  least one reference — which feed the always-on/on-demand classification,
  the flux analysis, and the peak-duration analysis;
* per-domain reference-combination tallies (e.g. ``CNAME+AS without NS``),
  the paper's "how is the domain protected" signal.

Counts are at the second level: "multiple references in the DNS zone of a
domain are counted as one" (§4.1 footnote 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.batch.batch import ObservationBatch
from repro.core.references import (
    BatchMatcher,
    Matches,
    RefType,
    SignatureCatalog,
)
from repro.measurement.snapshot import DomainObservation, ObservationSegment

REF_COMBOS: Tuple[FrozenSet[RefType], ...] = tuple(
    frozenset(combo)
    for combo in (
        {RefType.AS},
        {RefType.CNAME},
        {RefType.NS},
        {RefType.AS, RefType.CNAME},
        {RefType.AS, RefType.NS},
        {RefType.CNAME, RefType.NS},
        {RefType.AS, RefType.CNAME, RefType.NS},
    )
)


def combo_label(refs: FrozenSet[RefType]) -> str:
    """A stable label like ``AS+CNAME`` for a reference combination."""
    order = (RefType.AS, RefType.CNAME, RefType.NS)
    return "+".join(ref.value for ref in order if ref in refs) or "none"


def detect_observation(
    observation: DomainObservation, catalog: SignatureCatalog
) -> Dict[str, FrozenSet[RefType]]:
    """References of a single daily observation (thin wrapper)."""
    return catalog.match(observation)


def _sum_series(
    series_list: Sequence[Sequence[int]], horizon: int
) -> List[int]:
    """Element-wise sum of daily count series, zero-padded to *horizon*."""
    totals = [0] * horizon
    for series in series_list:
        if len(series) != horizon:
            raise ValueError(
                f"series length {len(series)} != horizon {horizon}"
            )
        for index, value in enumerate(series):
            totals[index] += value
    return totals


@dataclass(frozen=True)
class UseInterval:
    """A maximal ``[start, end)`` range of continuous DPS use."""

    start: int
    end: int

    @property
    def days(self) -> int:
        return self.end - self.start


class IntervalBuilder:
    """Maximal-interval accumulation from single-day use facts.

    The batch :class:`SegmentDetector` sees a domain's whole history at
    once and in order; a daily-ingest engine sees one day at a time and —
    after a quarantined gap is reconciled — possibly out of order. This
    builder maintains the same invariant either way: ``runs`` is sorted,
    non-overlapping and never adjacent, so every run is a maximal range of
    continuous use, exactly like the batch detector's intervals.

    In-order insertion (the streaming hot path) is O(1); a late day costs
    a binary search over the existing runs.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: Optional[Iterable[Iterable[int]]] = None):
        self.runs: List[List[int]] = [list(run) for run in (runs or [])]

    def add_day(self, day: int) -> None:
        """Record that *day* was a use day (raises if already recorded)."""
        runs = self.runs
        if runs and runs[-1][1] == day:  # hot path: in-order extension
            runs[-1][1] = day + 1
            return
        if not runs or runs[-1][1] < day:  # in-order after a gap
            runs.append([day, day + 1])
            return
        self._add_late(day)

    def _add_late(self, day: int) -> None:
        """Stitch a late-arriving *day* into the sorted runs."""
        runs = self.runs
        lo, hi = 0, len(runs)
        while lo < hi:  # rightmost run with start <= day
            mid = (lo + hi) // 2
            if runs[mid][0] <= day:
                lo = mid + 1
            else:
                hi = mid
        index = lo - 1
        if index >= 0 and runs[index][1] > day:
            raise ValueError(f"day {day} already recorded")
        if index >= 0 and runs[index][1] == day:
            runs[index][1] = day + 1
            if index + 1 < len(runs) and runs[index + 1][0] == day + 1:
                runs[index][1] = runs.pop(index + 1)[1]
        elif index + 1 < len(runs) and runs[index + 1][0] == day + 1:
            runs[index + 1][0] = day
        else:
            runs.insert(index + 1, [day, day + 1])

    def intervals(self) -> List[UseInterval]:
        return [UseInterval(start, end) for start, end in self.runs]


class _DiffSeries:
    """A daily count series accumulated as interval differences."""

    __slots__ = ("deltas",)

    def __init__(self, horizon: int):
        self.deltas = [0] * (horizon + 1)

    def add(self, start: int, end: int) -> None:
        self.deltas[start] += 1
        self.deltas[end] -= 1

    def materialize(self) -> List[int]:
        values: List[int] = []
        running = 0
        for delta in self.deltas[:-1]:
            running += delta
            values.append(running)
        return values


@dataclass
class ProviderSeries:
    """Daily series for one provider: total use and per-method breakdown."""

    provider: str
    total: List[int]
    by_ref: Dict[RefType, List[int]]

    def peak_day(self) -> int:
        """The day with the highest total use."""
        return max(range(len(self.total)), key=self.total.__getitem__)


@dataclass
class DetectionResult:
    """Everything the detector aggregates over a study window."""

    horizon: int
    #: provider → daily distinct-SLD count plus per-RefType breakdown.
    providers: Dict[str, ProviderSeries]
    #: tld → daily count of SLDs using *any* studied provider.
    any_use_by_tld: Dict[str, List[int]]
    #: Daily count of SLDs using any studied provider, across TLDs.
    any_use_combined: List[int]
    #: (domain, provider) → maximal use intervals, chronological.
    intervals: Dict[Tuple[str, str], List[UseInterval]]
    #: provider → combo label → domain-days with that reference combination.
    combo_days: Dict[str, Dict[str, int]]
    domains_seen: int = 0

    def providers_of(self, domain: str) -> List[str]:
        return sorted(
            provider
            for (name, provider) in self.intervals
            if name == domain
        )

    def interval_count(self) -> int:
        return sum(len(v) for v in self.intervals.values())

    @classmethod
    def empty(cls, horizon: int) -> "DetectionResult":
        """A result over zero observations.

        The quarantine placeholder: a poisoned detection scope exports
        this instead of partial garbage, so downstream consumers see an
        explicit all-zero series rather than a misleading one.
        """
        return cls(
            horizon=horizon,
            providers={},
            any_use_by_tld={},
            any_use_combined=[0] * horizon,
            intervals={},
            combo_days={},
            domains_seen=0,
        )

    @classmethod
    def merge(
        cls, parts: Sequence["DetectionResult"]
    ) -> "DetectionResult":
        """Combine per-shard results into one, canonically ordered.

        Every aggregate is either an integer sum (daily series, combo
        tallies, ``domains_seen``) or a keyed union (intervals), so the
        merge is exact: partitioning the domain set by shard and merging
        yields the same object — byte for byte — as a single detector
        pass over all domains, regardless of shard count. Each domain
        must be processed by exactly one shard; a ``(domain, provider)``
        interval key appearing in several parts means the partitioning
        was wrong and raises.
        """
        if not parts:
            raise ValueError("cannot merge zero detection results")
        horizon = parts[0].horizon
        for part in parts[1:]:
            if part.horizon != horizon:
                raise ValueError(
                    "cannot merge detection results with different "
                    f"horizons ({part.horizon} != {horizon})"
                )

        provider_names = sorted(
            {name for part in parts for name in part.providers}
        )
        providers: Dict[str, ProviderSeries] = {}
        for name in provider_names:
            shards = [
                part.providers[name]
                for part in parts
                if name in part.providers
            ]
            by_ref: Dict[RefType, List[int]] = {}
            for ref in RefType:
                ref_series = [
                    shard.by_ref[ref]
                    for shard in shards
                    if ref in shard.by_ref
                ]
                if ref_series:
                    by_ref[ref] = _sum_series(ref_series, horizon)
            providers[name] = ProviderSeries(
                provider=name,
                total=_sum_series(
                    [shard.total for shard in shards], horizon
                ),
                by_ref=by_ref,
            )

        tlds = sorted(
            {tld for part in parts for tld in part.any_use_by_tld}
        )
        any_use_by_tld = {
            tld: _sum_series(
                [
                    part.any_use_by_tld[tld]
                    for part in parts
                    if tld in part.any_use_by_tld
                ],
                horizon,
            )
            for tld in tlds
        }

        intervals: Dict[Tuple[str, str], List[UseInterval]] = {}
        for part in parts:
            for key in part.intervals:
                if key in intervals:
                    raise ValueError(
                        f"interval key {key!r} appears in multiple "
                        f"shards; domains must be partitioned disjointly"
                    )
            intervals.update(part.intervals)

        combo_days: Dict[str, Dict[str, int]] = {}
        for part in parts:
            for provider, combos in part.combo_days.items():
                bucket = combo_days.setdefault(provider, {})
                for label, days in combos.items():
                    bucket[label] = bucket.get(label, 0) + days

        return cls(
            horizon=horizon,
            providers=providers,
            any_use_by_tld=any_use_by_tld,
            any_use_combined=_sum_series(
                [part.any_use_combined for part in parts], horizon
            ),
            intervals={
                key: sorted(values, key=lambda i: i.start)
                for key, values in sorted(intervals.items())
            },
            combo_days={
                provider: dict(sorted(combos.items()))
                for provider, combos in sorted(combo_days.items())
            },
            domains_seen=sum(part.domains_seen for part in parts),
        )


class SegmentDetector:
    """Streaming detector over per-domain observation segments."""

    def __init__(self, catalog: SignatureCatalog, horizon: int):
        self._catalog = catalog
        self._matcher = BatchMatcher(catalog)
        self._horizon = horizon
        self._provider_total: Dict[str, _DiffSeries] = {}
        self._provider_ref: Dict[Tuple[str, RefType], _DiffSeries] = {}
        self._tld_any: Dict[str, _DiffSeries] = {}
        self._combined_any = _DiffSeries(horizon)
        self._intervals: Dict[Tuple[str, str], List[UseInterval]] = {}
        self._combo_days: Dict[str, Dict[str, int]] = {}
        self._domains_seen = 0

    # -- ingestion ----------------------------------------------------------

    def process_domain(
        self, domain: str, tld: str, segments: Iterable[ObservationSegment]
    ) -> None:
        """Ingest one domain's full (enriched) observation history."""
        ordered = sorted(segments, key=lambda s: s.start)
        self._ingest_spans(
            domain,
            tld,
            (
                (
                    segment.start,
                    segment.end,
                    self._catalog.match(segment.observation),
                )
                for segment in ordered
            ),
        )

    def process_batch(self, batch: ObservationBatch) -> None:
        """Ingest a whole-history batch of daily observations.

        The batch must contain each of its domains' *complete* daily
        history (one detector call per domain, like
        :meth:`process_domain`) — partial histories would close use
        intervals early. Signature matching is the shared
        :class:`~repro.core.references.BatchMatcher` — one catalog match
        per distinct NS/CNAME/ASN signature — and each domain's day rows
        run through the same span ingestion as the segment path, making
        the aggregate value-identical to per-row detection.
        """
        grouped: Dict[int, List[Tuple[int, Matches]]] = {}
        tld_of: Dict[int, int] = {}
        for index, matches in enumerate(self._matcher.match_rows(batch)):
            domain_id = batch.domains[index]
            bucket = grouped.get(domain_id)
            if bucket is None:
                bucket = []
                grouped[domain_id] = bucket
                tld_of[domain_id] = batch.tlds[index]
            bucket.append((batch.days[index], matches))
        names = batch.names
        for domain_id, day_rows in grouped.items():
            day_rows.sort(key=lambda item: item[0])
            self._ingest_spans(
                names.value(domain_id),
                names.value(tld_of[domain_id]),
                (
                    (day, day + 1, matches)
                    for day, matches in day_rows
                ),
            )

    def _ingest_spans(
        self,
        domain: str,
        tld: str,
        spans: Iterable[Tuple[int, int, Dict[str, FrozenSet[RefType]]]],
    ) -> None:
        """Shared span loop: ``(start, end, matches)`` in start order."""
        self._domains_seen += 1
        per_provider_open: Dict[str, Tuple[int, int]] = {}
        any_open: Optional[Tuple[int, int]] = None

        for raw_start, raw_end, matches in spans:
            start, end = raw_start, min(raw_end, self._horizon)
            if start >= end:
                continue
            for provider, refs in matches.items():
                for ref in refs:
                    self._ref_series(provider, ref).add(start, end)
                self._combo(provider, combo_label(refs), end - start)
            # Interval building: extend or open per provider.
            for provider in matches:
                open_range = per_provider_open.get(provider)
                if open_range is not None and open_range[1] == start:
                    per_provider_open[provider] = (open_range[0], end)
                else:
                    if open_range is not None:
                        self._close(domain, provider, open_range)
                    per_provider_open[provider] = (start, end)
            for provider in list(per_provider_open):
                if provider not in matches and \
                        per_provider_open[provider][1] <= start:
                    self._close(domain, provider, per_provider_open.pop(provider))
            # Any-provider series per TLD and combined.
            if matches:
                if any_open is not None and any_open[1] == start:
                    any_open = (any_open[0], end)
                else:
                    if any_open is not None:
                        self._flush_any(tld, any_open)
                    any_open = (start, end)
            elif any_open is not None and any_open[1] <= start:
                self._flush_any(tld, any_open)
                any_open = None

        for provider, open_range in per_provider_open.items():
            self._close(domain, provider, open_range)
        if any_open is not None:
            self._flush_any(tld, any_open)

    # -- helpers ----------------------------------------------------------------

    def _ref_series(self, provider: str, ref: RefType) -> _DiffSeries:
        key = (provider, ref)
        series = self._provider_ref.get(key)
        if series is None:
            series = _DiffSeries(self._horizon)
            self._provider_ref[key] = series
        return series

    def _combo(self, provider: str, label: str, days: int) -> None:
        bucket = self._combo_days.setdefault(provider, {})
        bucket[label] = bucket.get(label, 0) + days

    def _close(
        self, domain: str, provider: str, open_range: Tuple[int, int]
    ) -> None:
        start, end = open_range
        series = self._provider_total.get(provider)
        if series is None:
            series = _DiffSeries(self._horizon)
            self._provider_total[provider] = series
        series.add(start, end)
        self._intervals.setdefault((domain, provider), []).append(
            UseInterval(start, end)
        )

    def _flush_any(self, tld: str, open_range: Tuple[int, int]) -> None:
        start, end = open_range
        series = self._tld_any.get(tld)
        if series is None:
            series = _DiffSeries(self._horizon)
            self._tld_any[tld] = series
        series.add(start, end)
        self._combined_any.add(start, end)

    # -- result ---------------------------------------------------------------

    def result(self) -> DetectionResult:
        providers: Dict[str, ProviderSeries] = {}
        names = set(self._provider_total) | {
            key[0] for key in self._provider_ref
        }
        for name in sorted(names):
            total_series = self._provider_total.get(name)
            providers[name] = ProviderSeries(
                provider=name,
                total=(
                    total_series.materialize()
                    if total_series
                    else [0] * self._horizon
                ),
                by_ref={
                    ref: self._provider_ref[(name, ref)].materialize()
                    for ref in RefType
                    if (name, ref) in self._provider_ref
                },
            )
        return DetectionResult(
            horizon=self._horizon,
            providers=providers,
            any_use_by_tld={
                tld: series.materialize()
                for tld, series in sorted(self._tld_any.items())
            },
            any_use_combined=self._combined_any.materialize(),
            intervals={
                key: sorted(values, key=lambda i: i.start)
                for key, values in sorted(self._intervals.items())
            },
            combo_days={
                provider: dict(sorted(combos.items()))
                for provider, combos in sorted(self._combo_days.items())
            },
            domains_seen=self._domains_seen,
        )
