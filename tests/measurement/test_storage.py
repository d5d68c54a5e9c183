"""Tests for the columnar store and its size accounting."""

import os
import re

import pytest

from repro.measurement.snapshot import (
    DomainObservation,
    MEASUREMENTS_PER_DOMAIN_DAY,
)
from repro.store import SegmentStore, StorageError, StoreManifest, build_segment

from tests.store.cells import row_columns, segment_roundtrip, stored_cells


def observation(index, day=0):
    return DomainObservation(
        day=day,
        domain=f"d{index}.com",
        tld="com",
        ns_names=("ns1.hostco-dns.com", "ns2.hostco-dns.com"),
        apex_addrs=(f"10.0.{index % 4}.{index % 200 + 1}",),
        asns=frozenset({64500 + index % 3}),
    )


class TestColumnCodec:
    def test_roundtrip_strings(self):
        values = ["a", "b", "b", "b", "a"]
        assert segment_roundtrip("domain", values) == values

    def test_roundtrip_lists(self):
        values = [["x", "y"], ["x", "y"], []]
        assert segment_roundtrip("ns_names", values) == values

    def test_repetition_compresses_well(self):
        repeated = build_segment([("com", 0, {"domain": ["same-value"] * 10_000})])
        varied = build_segment(
            [("com", 0, {"domain": [f"value-{i}" for i in range(10_000)]})]
        )
        assert len(repeated) < len(varied) / 50


def fresh(tmp_path):
    return SegmentStore(str(tmp_path), create=True)


class TestStore:
    def test_append_and_read_back(self, tmp_path):
        store = fresh(tmp_path)
        rows = [observation(i) for i in range(10)]
        store.append("com", 0, rows)
        got = list(store.rows("com", 0))
        assert got == rows

    def test_missing_partition_is_empty(self, tmp_path):
        assert list(fresh(tmp_path).rows("com", 9)) == []
        assert fresh(tmp_path).row_count("com", 9) == 0

    def test_partitions_sorted(self, tmp_path):
        store = fresh(tmp_path)
        store.append("net", 1, [observation(0, day=1)])
        store.append("com", 0, [observation(1)])
        assert store.partitions() == [("com", 0), ("net", 1)]

    def test_append_accumulates(self, tmp_path):
        store = fresh(tmp_path)
        store.append("com", 0, [observation(0)])
        store.append("com", 0, [observation(1)])
        assert store.row_count("com", 0) == 2

    def test_encoded_partition_roundtrip(self, tmp_path):
        store = fresh(tmp_path)
        rows = [observation(i) for i in range(20)]
        store.append("com", 0, rows)
        decoded = stored_cells(store, "com", 0)
        assert decoded["domain"] == [f"d{i}.com" for i in range(20)]
        assert decoded == row_columns(rows)

    def test_partition_stats(self, tmp_path):
        store = fresh(tmp_path)
        store.append("com", 0, [observation(i) for i in range(5)])
        stats = store.partition_stats("com", 0)
        assert stats.rows == 5
        assert stats.data_points == 5 * MEASUREMENTS_PER_DOMAIN_DAY
        assert stats.encoded_bytes > 0

    def test_total_stats_filters_by_source(self, tmp_path):
        store = fresh(tmp_path)
        store.append_partitions([
            ("com", 0, [observation(i) for i in range(5)]),
            ("net", 0, [observation(i) for i in range(3)]),
        ])
        assert store.total_stats("com").rows == 5
        assert store.total_stats().rows == 8

    def test_save_and_load_roundtrip(self, tmp_path):
        store = fresh(tmp_path)
        store.append_partitions([
            ("com", 0, [observation(i) for i in range(8)]),
            ("net", 3, [observation(i, day=3) for i in range(4)]),
        ])
        assert os.path.exists(tmp_path / "manifest.json")
        with SegmentStore(str(tmp_path)) as loaded:
            assert loaded.partitions() == store.partitions()
            assert list(loaded.rows("com", 0)) == list(store.rows("com", 0))
            assert list(loaded.rows("net", 3)) == list(store.rows("net", 3))

    def test_saved_layout(self, tmp_path):
        store = fresh(tmp_path)
        store.append("com", 7, [observation(0, day=7)])
        assert os.path.exists(tmp_path / "segments" / "g0-000000.rseg")

    def test_foreign_manifest_is_refused(self, foreign_store):
        """Format 2 is the only store format with a reader: anything
        else is refused by name, with the format that was found."""
        for opener in (SegmentStore, StoreManifest.load):
            with pytest.raises(StorageError) as caught:
                opener(foreign_store)
            assert re.fullmatch(
                f"{re.escape(foreign_store)} holds (a JSON list manifest"
                f"|manifest format [13]), not a format-2 segment store",
                str(caught.value),
            )

    def test_stats_report_exact_segment_file_size(self, tmp_path):
        store = fresh(tmp_path)
        store.append("com", 0, [observation(i) for i in range(16)])
        store.append("net", 2, [observation(i, day=2) for i in range(7)])
        sizes = {
            meta.partitions[0][:2]: os.path.getsize(
                os.path.join(str(tmp_path), meta.file)
            )
            for meta in store.manifest.segments
        }
        for (source, day), size in sizes.items():
            stats = store.partition_stats(source, day)
            assert stats.encoded_bytes == size
        assert store.total_stats().encoded_bytes == sum(sizes.values())

    def test_loaded_stats_match(self, tmp_path):
        store = fresh(tmp_path)
        store.append("com", 0, [observation(i) for i in range(6)])
        with SegmentStore(str(tmp_path)) as loaded:
            assert loaded.partition_stats("com", 0) == store.partition_stats(
                "com", 0
            )

    def test_encoding_cache_invalidated_on_append(self, tmp_path):
        store = fresh(tmp_path)
        store.append("com", 0, [observation(0)])
        first = store.partition_stats("com", 0).encoded_bytes
        store.append("com", 0, [observation(1)])
        second = store.partition_stats("com", 0).encoded_bytes
        assert second != first
