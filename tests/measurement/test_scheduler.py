"""Tests for the cluster manager, sharding and partition feed (stage II)."""

import pytest

from repro.measurement.scheduler import (
    ALL_SOURCES,
    ClusterManager,
    PartitionFeed,
    shard,
)
from repro.measurement.storage import ColumnStore
from repro.world.timeline import CCTLD_START_DAY


class TestShard:
    def test_balanced(self):
        shards = shard(list(range(10)), 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        assert sum(shards, []) == list(range(10))

    def test_more_shards_than_items(self):
        shards = shard([1, 2], 5)
        assert sum(len(s) for s in shards) == 2

    def test_more_shards_than_items_pads_with_empties(self):
        shards = shard([1, 2], 5)
        assert len(shards) == 5
        assert shards == [[1], [2], [], [], []]

    def test_empty_input_yields_empty_shards(self):
        shards = shard([], 4)
        assert shards == [[], [], [], []]

    def test_exact_divisor_is_perfectly_balanced(self):
        shards = shard(list(range(12)), 4)
        assert [len(s) for s in shards] == [3, 3, 3, 3]
        assert sum(shards, []) == list(range(12))

    def test_single_shard_keeps_everything(self):
        names = ["a", "b", "c"]
        assert shard(names, 1) == [names]

    def test_never_loses_or_reorders_names(self):
        for count in range(1, 8):
            names = [f"n{i}" for i in range(13)]
            shards = shard(names, count)
            assert len(shards) == count
            assert sum(shards, []) == names
            sizes = [len(s) for s in shards]
            assert max(sizes) - min(sizes) <= 1

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            shard([1], 0)


class TestClusterManager:
    def test_measure_day_stores_rows(self, tiny_world):
        manager = ClusterManager(tiny_world, shard_count=4)
        rows = manager.measure_day("org", 0)
        assert rows
        assert manager.store.row_count("org", 0) == len(rows)
        run = manager.runs[-1]
        assert run.source == "org"
        assert run.shards == 4
        assert run.observations == len(rows)

    def test_rows_are_enriched(self, tiny_world):
        manager = ClusterManager(tiny_world, shard_count=2)
        rows = manager.measure_day("org", 0)
        assert any(row.asns for row in rows)

    def test_enrichment_can_be_disabled(self, tiny_world):
        manager = ClusterManager(tiny_world, enrich=False)
        rows = manager.measure_day("org", 0)
        assert all(row.asns == frozenset() for row in rows)

    def test_measure_range(self, tiny_world):
        manager = ClusterManager(tiny_world)
        days = list(manager.measure_range("org", 0, 3))
        assert len(days) == 3
        assert [(r.source, r.day) for r in manager.runs] == [
            ("org", 0), ("org", 1), ("org", 2),
        ]

    def test_alexa_source(self, tiny_world):
        manager = ClusterManager(tiny_world)
        rows = manager.measure_day("alexa", 400)
        assert {row.domain for row in rows} <= set(tiny_world.alexa_names)


class TestPartitionFeed:
    def test_rejects_unknown_source(self, tiny_world):
        with pytest.raises(ValueError):
            PartitionFeed(tiny_world, sources=("com", "bogus"))

    def test_defaults_to_all_sources(self, tiny_world):
        assert PartitionFeed(tiny_world).sources == ALL_SOURCES

    def test_windows_cover_configured_sources(self, tiny_world):
        feed = PartitionFeed(tiny_world, sources=("com", "nl", "alexa"))
        windows = feed.windows()
        assert set(windows) == {"com", "nl", "alexa"}
        assert windows["com"][0] == 0
        assert windows["alexa"] == (CCTLD_START_DAY, tiny_world.horizon)
        assert windows["nl"][0] == CCTLD_START_DAY

    def test_partition_measures_enriched_rows(self, tiny_world):
        feed = PartitionFeed(tiny_world, sources=("org",))
        part = feed.partition("org", 0)
        assert part.source == "org"
        assert part.day == 0
        assert len(part) == len(part.observations) > 0
        assert part.zone_size >= len(part.observations)
        assert any(row.asns for row in part.observations)

    def test_partition_matches_cluster_manager(self, tiny_world):
        feed = PartitionFeed(tiny_world, sources=("org",))
        manager = ClusterManager(tiny_world)
        assert (
            feed.partition("org", 0).observations
            == manager.measure_day("org", 0)
        )

    @pytest.mark.parametrize("source", ALL_SOURCES)
    def test_measure_day_is_the_partition_landing_loop(
        self, tiny_world, source
    ):
        day = CCTLD_START_DAY + 1
        manager = ClusterManager(tiny_world)
        measured = manager.measure_day(source, day)
        landed = ColumnStore()
        PartitionFeed(tiny_world, store=landed).partition(source, day)
        assert manager.store.partition_columns(
            source, day
        ) == landed.partition_columns(source, day)
        assert manager.store.segment_bytes(
            source, day
        ) == landed.segment_bytes(source, day)
        assert measured == list(manager.store.rows(source, day))
        assert len(measured) > 0

    def test_partition_lands_in_store(self, tiny_world):
        store = ColumnStore()
        feed = PartitionFeed(tiny_world, sources=("org",), store=store)
        part = feed.partition("org", 2)
        assert store.row_count("org", 2) == len(part.observations)

    def test_days_are_day_major_within_windows(self, tiny_world):
        feed = PartitionFeed(tiny_world, sources=("com", "nl"))
        start = CCTLD_START_DAY
        order = [
            (p.source, p.day)
            for p in feed.days(start=start - 1, end=start + 1)
        ]
        assert order == [
            ("com", start - 1),       # .nl window not yet open
            ("com", start), ("nl", start),
        ]
