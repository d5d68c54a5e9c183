"""Per-domain, per-day DPS use detection and its aggregation (§3.3, §4.1).

One accumulator, :class:`ScopeState`, turns per-domain match facts into
everything below; :class:`SegmentDetector` (a batch of ``[start, end)``
runs — a study's segments, a compacted store fragment — or of daily
rows) and :class:`repro.stream.engine.StreamEngine` (one landed
partition at a time) only match and feed it. It produces:

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
from itertools import accumulate
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.batch.batch import ObservationBatch
from repro.core.references import BatchMatcher, RefType, SignatureCatalog

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


@dataclass(frozen=True)
class UseInterval:
    """A maximal ``[start, end)`` range of continuous DPS use."""

    start: int
    end: int

    @property
    def days(self) -> int:
        return self.end - self.start


class IntervalBuilder:
    """Maximal-interval accumulation from ``[start, end)`` use facts.

    A batch producer hands over a domain's history as run-length spans,
    a daily-ingest engine one day at a time and — after a quarantined
    gap is reconciled — possibly out of order. This builder maintains
    the same invariant either way: ``runs`` is sorted, non-overlapping
    and never adjacent, so every run is a maximal range of continuous
    use whatever order the facts arrived in.

    In-order insertion (the hot path of both) is O(1); a late span costs
    a binary search over the existing runs.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: Optional[Iterable[Iterable[int]]] = None):
        self.runs: List[List[int]] = [list(run) for run in (runs or [])]

    def add_run(self, start: int, end: int) -> None:
        """Record use over ``[start, end)`` (raises on any overlap)."""
        runs = self.runs
        if runs and runs[-1][1] == start:  # hot path: in-order extension
            runs[-1][1] = end
            return
        if not runs or runs[-1][1] < start:  # in-order after a gap
            runs.append([start, end])
            return
        self._add_late(start, end)

    def add_day(self, day: int) -> None:
        """Record that *day* was a use day (raises if already recorded)."""
        self.add_run(day, day + 1)

    def _add_late(self, start: int, end: int) -> None:
        """Stitch a late-arriving ``[start, end)`` into the sorted runs."""
        runs = self.runs
        lo, hi = 0, len(runs)
        while lo < hi:  # rightmost run that begins at or before start
            mid = (lo + hi) // 2
            if runs[mid][0] <= start:
                lo = mid + 1
            else:
                hi = mid
        index = lo - 1
        has_next = index + 1 < len(runs)
        if (index >= 0 and runs[index][1] > start) or (
            has_next and runs[index + 1][0] < end
        ):
            raise ValueError(f"days [{start}, {end}) already recorded")
        if index >= 0 and runs[index][1] == start:
            runs[index][1] = end
            if has_next and runs[index + 1][0] == end:
                runs[index][1] = runs.pop(index + 1)[1]
        elif has_next and runs[index + 1][0] == end:
            runs[index + 1][0] = start
        else:
            runs.insert(index + 1, [start, end])

    def intervals(self) -> List[UseInterval]:
        return [UseInterval(start, end) for start, end in self.runs]


class _DiffSeries:
    """A daily count series held as its day-over-day differences.

    A ``[start, end)`` fact is two writes however long it is, so a
    run-length segment costs what a single day does; the counts are a
    prefix sum taken when somebody reads them.
    """

    __slots__ = ("deltas",)

    def __init__(self, horizon: int):
        self.deltas = [0] * (horizon + 1)

    @classmethod
    def of(cls, values: Sequence[int]) -> "_DiffSeries":
        """The series whose :meth:`materialize` is *values*."""
        series = cls(len(values))
        series.deltas = [
            after - before
            for before, after in zip([0, *values], [*values, 0])
        ]
        return series

    def add(self, start: int, end: int) -> None:
        self.deltas[start] += 1
        self.deltas[end] -= 1

    def at(self, day: int) -> int:
        return sum(self.deltas[: day + 1])

    def materialize(self) -> List[int]:
        return list(accumulate(self.deltas[:-1]))


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

class ScopeState:
    """The detection accumulator: every producer folds matches through it.

    One :meth:`observe` call states one fact — *domain* (under *tld*)
    made the references *matches* on every day of ``[day, end)`` — and
    the state maintains the aggregates §3.4 and §4.4 are read off: daily
    series per provider / reference type / TLD, the any-provider series,
    per-``(domain, provider)`` maximal use intervals, and
    reference-combination day tallies. A batch pass states a run-length
    segment in one call, a daily-ingest engine one day; they differ only
    in how they obtain *matches*.

    Facts may arrive in any order and in any grouping:

    * every series is a :class:`_DiffSeries`, so a fact is two integer
      adds wherever it lands, and
    * intervals go through :class:`IntervalBuilder`, whose stitching
      keeps runs maximal under out-of-order insertion and raises on a
      ``(domain, provider)`` day stated twice.

    So there is no whole-history contract: a domain's history may be
    split across any number of calls, batches or partitions, and
    ``domains_seen`` counts distinct domains. The whole state
    serialises to plain JSON-compatible structures (:meth:`to_dict` /
    :meth:`from_dict`, series as daily counts) so an engine can
    checkpoint and resume byte-identically.
    """

    def __init__(self, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        #: provider → daily distinct-SLD use count.
        self._provider_total: Dict[str, _DiffSeries] = {}
        #: provider → RefType value → daily count.
        self._provider_ref: Dict[str, Dict[str, _DiffSeries]] = {}
        #: tld → daily any-provider use count.
        self._tld_any: Dict[str, _DiffSeries] = {}
        #: Daily any-provider use count across TLDs.
        self._combined_any = _DiffSeries(horizon)
        #: provider → combo label → domain-days.
        self._combo_days: Dict[str, Dict[str, int]] = {}
        #: (domain, provider) → maximal-interval builder.
        self._builders: Dict[Tuple[str, str], IntervalBuilder] = {}
        #: Every domain ever observed in this scope (matching or not).
        self._domains: Set[str] = set()

    # -- ingestion ----------------------------------------------------------

    def observe(
        self,
        domain: str,
        tld: str,
        day: int,
        matches: Mapping[str, FrozenSet[RefType]],
        end: Optional[int] = None,
    ) -> None:
        """Apply *domain*'s match facts for ``[day, end)``.

        *end* defaults to ``day + 1`` (one daily row); the span is
        clipped to the horizon.
        """
        self._domains.add(domain)
        if not matches:  # most rows: nothing to aggregate
            return
        end = min(day + 1 if end is None else end, self.horizon)
        if day >= end:
            return
        for provider, refs in sorted(matches.items()):
            self._series(self._provider_total, provider).add(day, end)
            by_ref = self._provider_ref.setdefault(provider, {})
            for ref in refs:
                self._series(by_ref, ref.value).add(day, end)
            combos = self._combo_days.setdefault(provider, {})
            label = combo_label(refs)
            combos[label] = combos.get(label, 0) + end - day
            builder = self._builders.get((domain, provider))
            if builder is None:
                builder = self._builders[(domain, provider)] = (
                    IntervalBuilder()
                )
            builder.add_run(day, end)
        self._series(self._tld_any, tld).add(day, end)
        self._combined_any.add(day, end)

    def _series(
        self, table: Dict[str, _DiffSeries], key: str
    ) -> _DiffSeries:
        series = table.get(key)
        if series is None:
            series = table[key] = _DiffSeries(self.horizon)
        return series

    # -- queries ------------------------------------------------------------

    @property
    def domains_seen(self) -> int:
        return len(self._domains)

    @property
    def provider_names(self) -> List[str]:
        return sorted(self._provider_total)

    def adoption(self, provider: str, day: int) -> int:
        """Distinct SLDs using *provider* on *day*."""
        series = self._provider_total.get(provider)
        return series.at(day) if series else 0

    def any_adoption(self, day: int) -> int:
        """Distinct SLDs using any studied provider on *day*."""
        return self._combined_any.at(day)

    def any_series(self) -> List[int]:
        return self._combined_any.materialize()

    def tld_series(self, tld: str) -> List[int]:
        series = self._tld_any.get(tld)
        return series.materialize() if series else [0] * self.horizon

    def intervals(self) -> Dict[Tuple[str, str], List[UseInterval]]:
        """Current maximal use intervals (open runs included as-is)."""
        return {
            key: builder.intervals()
            for key, builder in sorted(self._builders.items())
        }

    def domain_intervals(
        self, domain: str
    ) -> Dict[str, List[UseInterval]]:
        """provider → intervals for one domain."""
        return {
            provider: builder.intervals()
            for (name, provider), builder in sorted(self._builders.items())
            if name == domain
        }

    def result(self) -> DetectionResult:
        """Materialise the :class:`DetectionResult` of the facts so far."""
        providers: Dict[str, ProviderSeries] = {}
        for name, total in sorted(self._provider_total.items()):
            by_ref = self._provider_ref[name]
            providers[name] = ProviderSeries(
                provider=name,
                total=total.materialize(),
                by_ref={
                    ref: by_ref[ref.value].materialize()
                    for ref in RefType
                    if ref.value in by_ref
                },
            )
        return DetectionResult(
            horizon=self.horizon,
            providers=providers,
            any_use_by_tld={
                tld: series.materialize()
                for tld, series in sorted(self._tld_any.items())
            },
            any_use_combined=self._combined_any.materialize(),
            intervals=self.intervals(),
            combo_days={
                provider: dict(sorted(combos.items()))
                for provider, combos in sorted(self._combo_days.items())
            },
            domains_seen=len(self._domains),
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A canonical, JSON-compatible snapshot of the state.

        All unordered collections are emitted sorted so that equal states
        produce identical serialisations (the checkpoint byte-identity
        guarantee rests on this). Series are written as daily counts,
        the format every checkpoint so far holds; :meth:`from_dict`
        differences them back.
        """
        return {
            "horizon": self.horizon,
            "provider_total": {
                provider: series.materialize()
                for provider, series in sorted(self._provider_total.items())
            },
            "provider_ref": {
                provider: {
                    ref: series.materialize()
                    for ref, series in sorted(by_ref.items())
                }
                for provider, by_ref in sorted(self._provider_ref.items())
            },
            "tld_any": {
                tld: series.materialize()
                for tld, series in sorted(self._tld_any.items())
            },
            "combined_any": self._combined_any.materialize(),
            "combo_days": {
                provider: dict(sorted(combos.items()))
                for provider, combos in sorted(self._combo_days.items())
            },
            "intervals": [
                [domain, provider, [list(run) for run in builder.runs]]
                for (domain, provider), builder in sorted(
                    self._builders.items()
                )
            ],
            "domains": sorted(self._domains),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScopeState":
        state = cls(int(payload["horizon"]))
        state._provider_total = {
            provider: _DiffSeries.of(series)
            for provider, series in sorted(payload["provider_total"].items())
        }
        state._provider_ref = {
            provider: {
                ref: _DiffSeries.of(series)
                for ref, series in sorted(by_ref.items())
            }
            for provider, by_ref in sorted(payload["provider_ref"].items())
        }
        state._tld_any = {
            tld: _DiffSeries.of(series)
            for tld, series in sorted(payload["tld_any"].items())
        }
        state._combined_any = _DiffSeries.of(payload["combined_any"])
        state._combo_days = {
            provider: dict(sorted(combos.items()))
            for provider, combos in sorted(payload["combo_days"].items())
        }
        state._builders = {
            (domain, provider): IntervalBuilder(runs)
            for domain, provider, runs in payload["intervals"]
        }
        state._domains = set(payload["domains"])
        return state


class SegmentDetector:
    """The batch feeder of :class:`ScopeState`: signature matching in
    front of one accumulator, for a batch of runs or of daily rows."""

    def __init__(self, catalog: SignatureCatalog, horizon: int):
        self._matcher = BatchMatcher(catalog)
        self._state = ScopeState(horizon)

    def process_batch(self, batch: ObservationBatch) -> None:
        """Ingest a batch of daily observations, one fact per row."""
        self.process_runs(batch, [day + 1 for day in batch.days])

    def process_runs(
        self, batch: ObservationBatch, ends: Sequence[int]
    ) -> None:
        """Ingest a batch of runs, one fact per row: row *i* holds on
        ``[batch.days[i], ends[i])``.

        Signature matching is the shared
        :class:`~repro.core.references.BatchMatcher` — one catalog match
        per distinct NS/CNAME/ASN signature. The batch may hold any part
        of any domain's history, in any order.
        """
        names = batch.names
        observe = self._state.observe
        for domain, tld, day, end, matches in zip(
            names.values(batch.domains),
            names.values(batch.tlds),
            batch.days,
            ends,
            self._matcher.match_rows(batch),
        ):
            observe(domain, tld, day, matches, end)

    def result(self) -> DetectionResult:
        return self._state.result()
