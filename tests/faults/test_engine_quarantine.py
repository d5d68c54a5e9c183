"""Scope quarantine escalation and release in the stream engine.

Satellite check for ``release_quarantine``: a poisoned day quarantines
the scope (never kills the run), dropped days become holes, and after a
release plus redelivery the scope converges to exactly the clean state.
"""

import pytest

from repro.core.references import RefType
from repro.faults.inject import PoisonedRow
from repro.measurement.scheduler import DayPartition
from repro.measurement.snapshot import DomainObservation
from repro.sketch import SketchConfig
from repro.stream.checkpoint import state_digest
from repro.stream.engine import (
    APPLIED,
    DROPPED,
    POISONED,
    RECONCILED,
    StreamEngine,
)

HORIZON = 10
DOMAINS = ("prot-a.com", "plain-b.com")


class StubCatalog:
    def match(self, observation):
        if observation.domain.startswith("prot"):
            return {"StubDPS": frozenset({RefType.NS})}
        return {}

    def __iter__(self):  # no provider-owned SLDs (sketch vocabulary)
        return iter(())


def partition(day):
    rows = [
        DomainObservation(
            day=day,
            domain=name,
            tld="com",
            ns_names=(f"ns1.{name}.",),
            apex_addrs=("192.0.2.1",),
            asns=frozenset({64500}),
        )
        for name in DOMAINS
    ]
    return DayPartition(
        source="com", day=day, zone_size=len(rows), observations=rows
    )


def poisoned_partition(day):
    return DayPartition(
        source="com",
        day=day,
        zone_size=len(DOMAINS),
        observations=[PoisonedRow()],
    )


def engine(sketches=None):
    return StreamEngine(
        HORIZON, catalog=StubCatalog(), sources=("com",), sketches=sketches
    )


def clean_engine(days, sketches=None):
    stream = engine(sketches)
    for day in range(days):
        stream.ingest(partition(day))
    return stream


class TestPoisonEscalation:
    def test_poisoned_day_quarantines_scope_not_run(self):
        stream = clean_engine(2)
        assert stream.ingest(poisoned_partition(2)) == POISONED
        assert stream.is_quarantined("gtld")
        assert "(com, 2)" in stream.quarantined_scopes["gtld"]
        assert stream.missing_days("com") == [2]

    def test_quarantined_scope_drops_subsequent_days(self):
        stream = clean_engine(2)
        stream.ingest(poisoned_partition(2))
        assert stream.ingest(partition(3)) == DROPPED
        assert stream.ingest(partition(4)) == DROPPED
        assert stream.partitions_dropped == 2
        assert stream.missing_days("com") == [2, 3, 4]
        # The applied state froze at the last clean day.
        assert stream.partitions_applied == 2

    def test_poisoned_row_reads_fail_loudly(self):
        row = PoisonedRow()
        with pytest.raises(ValueError, match="poisoned observation row"):
            row.ns_names


class TestApplyIsAllOrNothing:
    """An unreadable row *after* readable ones leaves no trace."""

    @pytest.mark.parametrize(
        "sketches", [None, SketchConfig()], ids=["plain", "sketches"]
    )
    def test_trailing_unreadable_row_mutates_nothing(self, sketches):
        stream = clean_engine(2, sketches)
        before = stream.to_dict()
        torn = DayPartition(
            source="com",
            day=2,
            zone_size=3,
            observations=list(partition(2).observations) + [PoisonedRow()],
        )
        assert stream.ingest(torn) == POISONED
        after = stream.to_dict()
        # Only the containment bookkeeping moved: scope state, zone
        # sizes, counters and the sketch plane are what they were.
        assert after["quarantined_scopes"].keys() == {"gtld"}
        assert after["cursors"]["com"]["holes"] == [2]
        assert after["cursors"]["com"]["next_day"] == 3
        after["quarantined_scopes"] = before["quarantined_scopes"]
        after["cursors"]["com"]["holes"] = before["cursors"]["com"]["holes"]
        after["cursors"]["com"]["next_day"] = (
            before["cursors"]["com"]["next_day"]
        )
        assert after == before

        stream.release_quarantine("gtld")
        assert stream.ingest(partition(2)) == RECONCILED
        assert stream.ingest(partition(3)) == APPLIED
        healed = stream.to_dict()
        clean = clean_engine(4, sketches).to_dict()
        # The redelivery is counted as a late arrival; nothing else —
        # sketch plane included — remembers the incident.
        assert healed.pop("late_arrivals") == 1
        assert clean.pop("late_arrivals") == 0
        assert healed == clean


class TestRelease:
    def quarantined_stream(self):
        stream = clean_engine(2)
        stream.ingest(poisoned_partition(2))
        stream.ingest(partition(3))
        stream.ingest(partition(4))
        return stream

    def test_release_returns_reason(self):
        stream = self.quarantined_stream()
        reason = stream.release_quarantine("gtld")
        assert "poisoned partition" in reason
        assert not stream.is_quarantined("gtld")

    def test_release_unquarantined_scope_rejected(self):
        stream = engine()
        with pytest.raises(ValueError, match="not quarantined"):
            stream.release_quarantine("gtld")

    def test_quarantine_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="unknown scope"):
            engine().quarantine_scope("mars", "why not")

    def test_scope_resumes_cleanly_after_good_day(self):
        stream = self.quarantined_stream()
        stream.release_quarantine("gtld")
        assert stream.ingest(partition(5)) == APPLIED

    def test_redelivery_heals_to_clean_state(self):
        stream = self.quarantined_stream()
        stream.release_quarantine("gtld")
        assert stream.ingest(partition(5)) == APPLIED
        outcomes = [stream.ingest(partition(day)) for day in (2, 3, 4)]
        assert outcomes == [RECONCILED] * 3
        assert stream.missing_days("com") == []
        clean = clean_engine(6)
        # The detection state converges exactly; only the ingest-journey
        # counters (late arrivals, drops) remember the incident.
        assert (
            stream.scope("gtld").to_dict() == clean.scope("gtld").to_dict()
        )
        assert stream.next_day("com") == clean.next_day("com")
        assert stream.detection("gtld") == clean.detection("gtld")
        assert stream.late_arrivals == 3
        assert stream.partitions_dropped == 2


class TestQuarantineSerialization:
    def test_roundtrip_preserves_quarantine_state(self):
        stream = clean_engine(2)
        stream.ingest(poisoned_partition(2))
        stream.ingest(partition(3))
        payload = stream.to_dict()
        restored = StreamEngine.from_dict(payload, catalog=StubCatalog())
        assert restored.is_quarantined("gtld")
        assert restored.quarantined_scopes == stream.quarantined_scopes
        assert restored.partitions_dropped == stream.partitions_dropped
        assert state_digest(restored) == state_digest(stream)

    def test_restored_engine_can_release_and_heal(self):
        stream = clean_engine(2)
        stream.ingest(poisoned_partition(2))
        stream.ingest(partition(3))
        restored = StreamEngine.from_dict(
            stream.to_dict(), catalog=StubCatalog()
        )
        restored.release_quarantine("gtld")
        restored.ingest(partition(4))
        for day in (2, 3):
            assert restored.ingest(partition(day)) == RECONCILED
        clean = clean_engine(5)
        assert (
            restored.scope("gtld").to_dict()
            == clean.scope("gtld").to_dict()
        )
