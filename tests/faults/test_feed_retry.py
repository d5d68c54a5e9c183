"""Feed faults: bounded retry, skip-and-reconcile, and delay reordering."""

import pytest

from repro.core.references import RefType
from repro.faults.errors import TransientFault
from repro.faults.inject import FaultyFeed
from repro.faults.plan import FaultLog, FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.measurement.scheduler import DayPartition
from repro.measurement.snapshot import DomainObservation
from repro.store import SegmentStore
from repro.stream.checkpoint import state_digest
from repro.stream.engine import RECONCILED, StreamEngine
from repro.stream.feed import FeedError, ResilientFeed, StoreReplayFeed

HORIZON = 6
DOMAINS = ("prot-a.com", "plain-b.com")
POLICY = RetryPolicy(attempts=3, backoff_base=1, backoff_factor=2)


class StubCatalog:
    def match(self, observation):
        if observation.domain.startswith("prot"):
            return {"StubDPS": frozenset({RefType.NS})}
        return {}


def make_partition(day):
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


class InMemoryFeed:
    """A minimal replay feed over synthetic ``com`` partitions."""

    def __init__(self, days=HORIZON):
        self._days = days

    def keys(self, start=None, end=None):
        for day in range(start or 0, self._days if end is None else end):
            yield "com", day

    def partition(self, source, day):
        assert source == "com"
        return make_partition(day)

    def days(self, start=None, end=None):
        for source, day in self.keys(start, end):
            yield self.partition(source, day)


class FlakyFeed(InMemoryFeed):
    """Fails the first *failures* reads of each partition — or forever
    for days in *dead_days*."""

    def __init__(self, failures=0, dead_days=(), days=HORIZON):
        super().__init__(days)
        self._failures = failures
        self._dead_days = set(dead_days)
        self._attempts = {}

    def partition(self, source, day):
        if day in self._dead_days:
            raise OSError(f"day {day} is unreadable")
        seen = self._attempts.get(day, 0)
        self._attempts[day] = seen + 1
        if seen < self._failures:
            raise OSError(f"flaky read of day {day}")
        return super().partition(source, day)


def engine():
    return StreamEngine(
        HORIZON,
        catalog=StubCatalog(),
        sources=("com",),
        windows={"com": (0, HORIZON)},
    )


def clean_digest():
    stream = engine()
    stream.ingest_feed(InMemoryFeed().days())
    return state_digest(stream)


class TestResilientRetry:
    def test_transient_failure_recovers_within_budget(self):
        feed = ResilientFeed(FlakyFeed(failures=2), retry_policy=POLICY)
        partition = feed.partition("com", 0)
        assert partition is not None and partition.day == 0
        payload = feed.log.to_dict()
        assert payload["retries"] == {"feed.partition": 2}
        assert payload["recovered"] == {"feed.partition": 1}
        # Geometric backoff: 1 tick before retry 1, 2 before retry 2.
        assert feed.log.backoff_ticks == 3

    def test_exhaustion_raises_typed_error_with_cause(self):
        feed = ResilientFeed(
            FlakyFeed(dead_days=(2,)), retry_policy=POLICY
        )
        with pytest.raises(FeedError, match=r"\('com', 2\)") as excinfo:
            feed.partition("com", 2)
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_exhaustion_skip_records_and_continues(self):
        feed = ResilientFeed(
            FlakyFeed(dead_days=(2,)),
            retry_policy=POLICY,
            on_exhausted="skip",
        )
        days = [partition.day for partition in feed.days()]
        assert days == [0, 1, 3, 4, 5]
        assert feed.skipped == [("com", 2)]
        assert feed.log.to_dict()["dropped"] == {"feed.partition": 1}

    def test_invalid_exhaustion_mode_rejected(self):
        with pytest.raises(ValueError, match="on_exhausted"):
            ResilientFeed(InMemoryFeed(), on_exhausted="explode")

    def test_skipped_day_reconciles_on_redelivery(self):
        feed = ResilientFeed(
            FlakyFeed(dead_days=(2,)),
            retry_policy=POLICY,
            on_exhausted="skip",
        )
        stream = engine()
        stream.ingest_feed(feed.days(), skip_gaps=True)
        assert stream.missing_days("com") == [2]
        assert stream.ingest(make_partition(2)) == RECONCILED
        clean = engine()
        clean.ingest_feed(InMemoryFeed().days())
        # Detection state converges exactly; only the late-arrival
        # counter remembers the journey, so compare scopes, not digests.
        assert (
            stream.scope("gtld").to_dict() == clean.scope("gtld").to_dict()
        )
        assert stream.missing_days("com") == []
        assert stream.next_day("com") == clean.next_day("com")


class FlakyStoreFeed(StoreReplayFeed):
    """A store replay whose reads of *flaky_days* fail *failures* times."""

    def __init__(self, store, flaky_days, failures):
        super().__init__(store)
        self._left = {day: failures for day in flaky_days}

    def partition(self, source, day):
        if self._left.get(day, 0) > 0:
            self._left[day] -= 1
            raise OSError(f"transient read error on ({source}, {day})")
        return super().partition(source, day)


class TestResilientStoreReplay:
    """``ResilientFeed`` wraps the one feed that reads disk: a store has
    landed keys, not windows."""

    @pytest.fixture
    def store(self, tmp_path):
        landed = SegmentStore(str(tmp_path), create=True)
        landed.append_partitions(
            ("com", day, make_partition(day).observations)
            for day in range(HORIZON)
        )
        yield landed
        landed.close()

    def test_transient_store_read_recovers(self, store):
        feed = ResilientFeed(
            FlakyStoreFeed(store, flaky_days=(2,), failures=1),
            retry_policy=POLICY,
        )
        stream = engine()
        assert stream.ingest_feed(feed.days()) == HORIZON
        assert state_digest(stream) == clean_digest()
        payload = feed.log.to_dict()
        assert payload["retries"] == {"feed.partition": 1}
        assert payload["recovered"] == {"feed.partition": 1}

    def test_days_honour_bounds(self, store):
        feed = ResilientFeed(StoreReplayFeed(store))
        assert [p.day for p in feed.days(start=1, end=3)] == [1, 2]

    def test_exhausted_store_read_is_skipped_then_reconciled(self, store):
        feed = ResilientFeed(
            FlakyStoreFeed(store, flaky_days=(2,), failures=POLICY.attempts),
            retry_policy=POLICY,
            on_exhausted="skip",
        )
        stream = engine()
        stream.ingest_feed(feed.days(), skip_gaps=True)
        assert feed.skipped == [("com", 2)]
        assert stream.missing_days("com") == [2]
        # The budget is spent: the redelivery reads cleanly.
        assert stream.ingest(feed.partition("com", 2)) == RECONCILED
        clean = engine()
        clean.ingest_feed(StoreReplayFeed(store).days())
        assert (
            stream.scope("gtld").to_dict() == clean.scope("gtld").to_dict()
        )
        assert stream.missing_days("com") == []


class TestInjectedFeedFaults:
    def test_transient_injection_cleared_by_retry(self):
        log = FaultLog()
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec(
                    "feed.partition", "transient", keys=("com",), times=2
                ),
            ),
        )
        feed = ResilientFeed(
            FaultyFeed(InMemoryFeed(), plan.injector(log)),
            retry_policy=POLICY,
            log=log,
        )
        stream = engine()
        stream.ingest_feed(feed.days())
        assert state_digest(stream) == clean_digest()
        payload = log.to_dict()
        assert payload["injected"] == {"feed.partition/transient": 2}
        assert payload["retries"] == {"feed.partition": 2}

    def test_transient_injection_is_typed(self):
        plan = FaultPlan(
            seed=5,
            specs=(FaultSpec("feed.partition", "transient", times=1),),
        )
        feed = FaultyFeed(InMemoryFeed(), plan.injector())
        with pytest.raises(TransientFault):
            feed.partition("com", 0)

    def test_delayed_partition_converges_via_reordering(self):
        """A withheld partition re-emitted after the stream ends fills
        its gap through the quarantine buffer — no skip needed."""
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec("feed.partition", "delay", keys=("com",), times=1),
            ),
        )
        feed = FaultyFeed(InMemoryFeed(), plan.injector())
        days = [partition.day for partition in feed.days()]
        assert days != list(range(HORIZON))
        assert sorted(days) == list(range(HORIZON))
        stream = engine()
        stream.ingest_feed(
            FaultyFeed(InMemoryFeed(), plan.injector()).days()
        )
        assert state_digest(stream) == clean_digest()
