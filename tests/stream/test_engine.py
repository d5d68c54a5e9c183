"""Unit tests for the stream engine's ordering discipline and queries.

A stub signature catalog keeps these synthetic and fast: any domain whose
name starts with ``prot`` counts as protected by ``StubDPS`` via its NS
records. The real-catalog path is covered by the equivalence suite.
"""

import pytest

from repro.core.detection import UseInterval
from repro.core.references import RefType
from repro.measurement.scheduler import DayPartition
from repro.measurement.snapshot import DomainObservation
from repro.serve.index import ServeIndex
from repro.stream.checkpoint import state_digest
from repro.stream.engine import (
    APPLIED,
    DUPLICATE,
    QUARANTINED,
    RECONCILED,
    StreamEngine,
)

HORIZON = 10


class StubCatalog:
    def match(self, observation):
        if observation.domain.startswith("prot"):
            return {"StubDPS": frozenset({RefType.NS})}
        return {}


def observation(domain, day, tld="com"):
    return DomainObservation(
        day=day,
        domain=domain,
        tld=tld,
        ns_names=(f"ns1.{domain}.",),
        apex_addrs=("192.0.2.1",),
        asns=frozenset({64500}),
    )


def partition(source, day, domains, zone_size=None):
    rows = [observation(name, day, tld=source) for name in domains]
    return DayPartition(
        source=source,
        day=day,
        zone_size=len(rows) if zone_size is None else zone_size,
        observations=rows,
    )


def engine(sources=("com",), windows=None):
    return StreamEngine(
        HORIZON, catalog=StubCatalog(), sources=sources, windows=windows
    )


DOMAINS = ["prot-a.com", "plain-b.com"]


def day_partitions(days, domains=DOMAINS):
    return [partition("com", day, domains) for day in days]


class TestOrdering:
    def test_in_order_days_apply(self):
        stream = engine()
        outcomes = [
            stream.ingest(p) for p in day_partitions(range(3))
        ]
        assert outcomes == [APPLIED] * 3
        assert stream.next_day("com") == 3
        assert stream.partitions_applied == 3

    def test_future_day_quarantines_until_gap_fills(self):
        stream = engine()
        assert stream.ingest(partition("com", 0, DOMAINS)) == APPLIED
        assert stream.ingest(partition("com", 2, DOMAINS)) == QUARANTINED
        assert stream.pending_days("com") == [2]
        assert stream.latest_day("gtld") == 0
        # Day 1 lands: applied, and day 2 drains right behind it.
        assert stream.ingest(partition("com", 1, DOMAINS)) == APPLIED
        assert stream.pending_days("com") == []
        assert stream.next_day("com") == 3

    def test_out_of_order_run_equals_in_order_run(self):
        shuffled, ordered = engine(), engine()
        parts = day_partitions(range(5))
        for index in (0, 3, 2, 4, 1):
            shuffled.ingest(parts[index])
        for part in parts:
            ordered.ingest(part)
        assert state_digest(shuffled) == state_digest(ordered)

    def test_duplicate_raises_by_default(self):
        stream = engine()
        stream.ingest(partition("com", 0, DOMAINS))
        with pytest.raises(ValueError):
            stream.ingest(partition("com", 0, DOMAINS))

    def test_duplicate_skipped_on_request(self):
        stream = engine()
        stream.ingest(partition("com", 0, DOMAINS))
        outcome = stream.ingest(
            partition("com", 0, DOMAINS), on_duplicate="skip"
        )
        assert outcome == DUPLICATE
        assert stream.partitions_applied == 1

    def test_quarantined_duplicate_detected(self):
        stream = engine()
        stream.ingest(partition("com", 0, DOMAINS))
        stream.ingest(partition("com", 5, DOMAINS))
        with pytest.raises(ValueError):
            stream.ingest(partition("com", 5, DOMAINS))

    def test_skip_missing_declares_gap_and_drains(self):
        stream = engine()
        stream.ingest(partition("com", 0, DOMAINS))
        stream.ingest(partition("com", 3, DOMAINS))
        assert stream.skip_missing("com") == [1, 2]
        assert stream.missing_days("com") == [1, 2]
        assert stream.next_day("com") == 4
        assert stream.partitions_applied == 2

    def test_skip_missing_without_quarantine_is_noop(self):
        stream = engine()
        stream.ingest(partition("com", 0, DOMAINS))
        assert stream.skip_missing("com") == []

    def test_late_arrival_reconciles_to_in_order_state(self):
        parts = day_partitions(range(5))
        stream = engine()
        for index in (0, 1, 3, 4):
            stream.ingest(parts[index])
            stream.skip_missing("com")
        assert stream.missing_days("com") == [2]
        assert stream.ingest(parts[2]) == RECONCILED
        assert stream.missing_days("com") == []
        assert stream.late_arrivals == 1
        ordered = engine()
        for part in parts:
            ordered.ingest(part)
        # Aggregates (series, intervals, zone sizes) equal the in-order
        # run; only the late-arrival counter differs.
        assert stream.detection("gtld") == ordered.detection("gtld")
        assert stream.zone_size_series("com") == ordered.zone_size_series(
            "com"
        )

    def test_window_sets_first_expected_day(self):
        stream = engine(windows={"com": (3, HORIZON)})
        assert stream.resume_day("com") == 3
        assert stream.ingest(partition("com", 5, DOMAINS)) == QUARANTINED
        assert stream.ingest(partition("com", 3, DOMAINS)) == APPLIED

    def test_unknown_source_rejected(self):
        stream = engine()
        with pytest.raises(ValueError):
            stream.ingest(partition("nl", 0, ["prot-x.nl"]))

    def test_day_outside_horizon_rejected(self):
        stream = engine()
        with pytest.raises(ValueError):
            stream.ingest(partition("com", HORIZON, DOMAINS))

    def test_ingest_feed_counts_applied(self):
        stream = engine()
        applied = stream.ingest_feed(day_partitions(range(4)))
        assert applied == 4


class TestQueries:
    def test_latest_day_is_min_over_scope_sources(self):
        stream = engine(sources=("com", "net"))
        stream.ingest(partition("com", 0, DOMAINS))
        stream.ingest(partition("com", 1, DOMAINS))
        stream.ingest(partition("net", 0, ["prot-n.net"]))
        assert stream.latest_day("gtld") == 0

    def test_adoption_defaults_to_latest_day(self):
        stream = engine()
        stream.ingest_feed(day_partitions(range(3)))
        assert stream.adoption("StubDPS") == 1
        assert stream.adoption("StubDPS", day=1) == 1
        assert stream.any_adoption() == 1
        assert stream.adoption("NoSuchDPS") == 0

    def test_adoption_empty_engine_is_zero(self):
        stream = engine()
        assert stream.adoption("StubDPS") == 0
        assert stream.any_adoption() == 0

    def test_zone_size_and_expansion_series(self):
        stream = engine(sources=("com", "net"))
        stream.ingest(partition("com", 0, DOMAINS, zone_size=7))
        stream.ingest(partition("net", 0, ["prot-n.net"], zone_size=5))
        assert stream.zone_size_series("com")[0] == 7
        assert stream.expansion_series()[0] == 12

    def test_domain_history_spans_scopes(self):
        stream = engine(sources=("com", "nl"))
        stream.ingest(partition("com", 0, ["prot-a.com"]))
        stream.ingest(partition("nl", 0, ["prot-a.com"]))
        history = stream.domain_history("prot-a.com")
        assert set(history) == {"gtld", "nl"}
        assert history["gtld"]["StubDPS"] == [UseInterval(0, 1)]
        assert stream.domain_history("plain-b.com") == {}

    def test_growth_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            engine().growth("de")

    def test_growth_requires_ingested_days(self):
        with pytest.raises(ValueError, match="no ingested days"):
            engine().growth("gtld")


class TestLiveSnapshot:
    def test_snapshot_before_any_ingest(self):
        snapshot = ServeIndex.build(engine()).live_snapshot("gtld")
        assert snapshot.day is None
        assert snapshot.any_use == 0

    def test_snapshot_reflects_latest_counters(self):
        stream = engine()
        stream.ingest_feed(day_partitions(range(3)))
        snapshot = ServeIndex.build(stream).live_snapshot("gtld")
        assert snapshot.day == 2
        assert snapshot.domains_seen == 2
        assert snapshot.any_use == 1
        assert snapshot.providers == {"StubDPS": 1}
