"""Tests for sharding and the partition feed (stage II)."""

import os

import pytest

from repro.batch.batch import BatchBuilder
from repro.measurement.enrich import AsnEnricher
from repro.measurement.prober import FastProber
from repro.measurement.scheduler import ALL_SOURCES, PartitionFeed, shard
from repro.measurement.zonefeed import ZoneFeed
from repro.store import SegmentStore
from repro.store.segment import encode_partition, layout_segment
from repro.store.store import batch_pages
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
        """The feed measures the rows the reference route does: the
        listing split over worker shards, each shard probed, the rows
        built and enriched."""
        feed = PartitionFeed(tiny_world, sources=("org",))
        prober = FastProber(tiny_world)
        listing = ZoneFeed(tiny_world).listing("org", 0)
        probed = []
        for worker_names in shard(listing.names, 3):
            probed.extend(prober.observe_day(worker_names, 0))
        reference = AsnEnricher(tiny_world).enrich_batch(
            BatchBuilder().build(probed)
        )
        assert feed.partition("org", 0).observations == reference.rows()

    def test_enrichment_can_be_disabled(self, tiny_world):
        feed = PartitionFeed(tiny_world, enrich=False)
        rows = feed.partition("org", 0).observations
        assert rows
        assert all(row.asns == frozenset() for row in rows)

    def test_alexa_source(self, tiny_world):
        rows = PartitionFeed(tiny_world).partition("alexa", 400).observations
        assert rows
        assert {row.domain for row in rows} <= set(tiny_world.alexa_names)

    @pytest.mark.parametrize("source", ALL_SOURCES)
    def test_measure_day_is_the_partition_landing_loop(
        self, tiny_world, source, tmp_path
    ):
        """A landed partition is exactly the standalone segment Table 1
        sizes it by, and reads back as the measured rows."""
        day = CCTLD_START_DAY + 1
        part = PartitionFeed(tiny_world).partition(source, day)
        with SegmentStore(str(tmp_path), create=True) as store:
            store.append_batch(source, day, part.batch)
            (meta,) = store.manifest.segments
            with open(os.path.join(str(tmp_path), meta.file), "rb") as f:
                landed = f.read()
            assert landed == layout_segment(
                [encode_partition(source, day, batch_pages(part.batch))]
            )
            assert store.partition_stats(source, day).encoded_bytes == len(
                landed
            )
            assert list(store.rows(source, day)) == list(part.observations)
        assert len(part) > 0

    def test_partition_lands_in_store(self, tiny_world, tmp_path):
        feed = PartitionFeed(tiny_world, sources=("org",))
        part = feed.partition("org", 2)
        with SegmentStore(str(tmp_path), create=True) as store:
            store.append_batch("org", 2, part.batch)
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
