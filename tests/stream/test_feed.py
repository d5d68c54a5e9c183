"""Tests for the replay feeds (store- and segment-backed)."""

import pytest

from repro.measurement.scheduler import PartitionFeed
from repro.store import SegmentStore
from repro.stream.feed import SegmentReplayFeed, StoreReplayFeed
from repro.stream.engine import StreamEngine
from repro.stream.checkpoint import state_digest
from repro.world.timeline import CCTLD_START_DAY


@pytest.fixture(scope="module")
def landed_store(tiny_world, tmp_path_factory):
    """A few (source, day) partitions measured into a segment store."""
    store = SegmentStore(
        str(tmp_path_factory.mktemp("landed")), create=True
    )
    feed = PartitionFeed(tiny_world, sources=("com", "org"))
    store.append_partitions(
        (part.source, part.day, part.observations)
        for part in feed.days(end=3)
    )
    yield store
    store.close()


class TestStoreReplayFeed:
    def test_partition_rematerialises_rows(self, landed_store):
        replay = StoreReplayFeed(landed_store)
        part = replay.partition("com", 0)
        assert part.observations == list(landed_store.rows("com", 0))
        assert part.zone_size == len(part.observations)

    def test_replay_is_columnar_with_no_row_path_switch(self, landed_store):
        with pytest.raises(TypeError):
            StoreReplayFeed(landed_store, batches=False)
        assert StoreReplayFeed(landed_store).partition("com", 0).batch is not None

    def test_days_are_day_major(self, landed_store):
        replay = StoreReplayFeed(landed_store)
        order = [(p.source, p.day) for p in replay.days()]
        assert order == [
            ("com", 0), ("org", 0),
            ("com", 1), ("org", 1),
            ("com", 2), ("org", 2),
        ]

    def test_days_honour_bounds(self, landed_store):
        replay = StoreReplayFeed(landed_store)
        order = [(p.source, p.day) for p in replay.days(start=1, end=2)]
        assert order == [("com", 1), ("org", 1)]

    def test_replay_reaches_live_state(self, tiny_world, landed_store):
        """Ingesting the replayed store equals ingesting the live feed."""
        live = StreamEngine(tiny_world.horizon, sources=("com", "org"))
        feed = PartitionFeed(tiny_world, sources=("com", "org"))
        for day in range(3):
            for source in ("com", "org"):
                live.ingest(feed.partition(source, day))
        replayed = StreamEngine(tiny_world.horizon, sources=("com", "org"))
        replayed.ingest_feed(StoreReplayFeed(landed_store).days())
        # The store does not retain listing sizes, so compare the
        # detection state rather than the full serialised engine.
        assert replayed.detection("gtld") == live.detection("gtld")


class TestSegmentReplayFeed:
    def test_windows_match_live_feed(self, tiny_world):
        replay = SegmentReplayFeed(tiny_world, {})
        live = PartitionFeed(tiny_world)
        assert replay.windows() == live.windows()
        assert replay.window("alexa") == (
            CCTLD_START_DAY, tiny_world.horizon
        )

    def test_unknown_source_rejected(self, tiny_world):
        with pytest.raises(ValueError):
            SegmentReplayFeed(tiny_world, {}, sources=("com", "de"))

    def test_replay_matches_live_measurement(self, tiny_world):
        """Segments expanded back into days equal the measured rows."""
        from repro.core.pipeline import AdoptionStudy

        segments = AdoptionStudy(tiny_world).collect_segments()
        replay = SegmentReplayFeed(tiny_world, segments, sources=("org",))
        live = PartitionFeed(tiny_world, sources=("org",))
        for day in (0, 250, 549):
            live_part = live.partition("org", day)
            replay_part = replay.partition("org", day)
            assert sorted(
                replay_part.observations, key=lambda o: o.domain
            ) == sorted(live_part.observations, key=lambda o: o.domain)

    def test_streamed_state_matches_live_feed(self, tiny_world):
        """Both feed flavours drive the engine to the same gTLD state."""
        from repro.core.pipeline import AdoptionStudy

        segments = AdoptionStudy(tiny_world).collect_segments()
        days = range(0, 5)
        sources = ("com", "net", "org")
        live = StreamEngine(tiny_world.horizon, sources=sources)
        live_feed = PartitionFeed(tiny_world, sources=sources)
        replayed = StreamEngine(tiny_world.horizon, sources=sources)
        replay_feed = SegmentReplayFeed(
            tiny_world, segments, sources=sources
        )
        for day in days:
            for source in sources:
                live.ingest(live_feed.partition(source, day))
                replayed.ingest(replay_feed.partition(source, day))
        assert replayed.detection("gtld") == live.detection("gtld")
        assert state_digest(replayed) != ""  # serialisable mid-stream
