"""Tests for the columnar store and its size accounting."""

import pytest

from repro.measurement.snapshot import (
    DomainObservation,
    MEASUREMENTS_PER_DOMAIN_DAY,
)
from repro.measurement.storage import ColumnStore, StorageError
from repro.store import SegmentStore, StoreManifest, build_segment

from tests.store.cells import segment_roundtrip, stored_cells


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


class TestStore:
    def test_append_and_read_back(self):
        store = ColumnStore()
        rows = [observation(i) for i in range(10)]
        store.append("com", 0, rows)
        got = list(store.rows("com", 0))
        assert got == rows

    def test_missing_partition_is_empty(self):
        assert list(ColumnStore().rows("com", 9)) == []
        assert ColumnStore().row_count("com", 9) == 0

    def test_partitions_sorted(self):
        store = ColumnStore()
        store.append("net", 1, [observation(0, day=1)])
        store.append("com", 0, [observation(1)])
        assert store.partitions() == [("com", 0), ("net", 1)]

    def test_append_accumulates(self):
        store = ColumnStore()
        store.append("com", 0, [observation(0)])
        store.append("com", 0, [observation(1)])
        assert store.row_count("com", 0) == 2

    def test_encoded_partition_roundtrip(self):
        store = ColumnStore()
        store.append("com", 0, [observation(i) for i in range(20)])
        decoded = stored_cells(store, "com", 0)
        assert decoded["domain"] == [f"d{i}.com" for i in range(20)]
        assert decoded == store.partition_columns("com", 0)

    def test_partition_stats(self):
        store = ColumnStore()
        store.append("com", 0, [observation(i) for i in range(5)])
        stats = store.partition_stats("com", 0)
        assert stats.rows == 5
        assert stats.data_points == 5 * MEASUREMENTS_PER_DOMAIN_DAY
        assert stats.encoded_bytes > 0

    def test_total_stats_filters_by_source(self):
        store = ColumnStore()
        store.append("com", 0, [observation(i) for i in range(5)])
        store.append("net", 0, [observation(i) for i in range(3)])
        assert store.total_stats("com").rows == 5
        assert store.total_stats().rows == 8

    def test_save_and_load_roundtrip(self, tmp_path):
        store = ColumnStore()
        store.append("com", 0, [observation(i) for i in range(8)])
        store.append("net", 3, [observation(i, day=3) for i in range(4)])
        written = store.save(str(tmp_path))
        assert any(path.endswith("manifest.json") for path in written)
        loaded = ColumnStore.load(str(tmp_path))
        assert loaded.partitions() == store.partitions()
        assert list(loaded.rows("com", 0)) == list(store.rows("com", 0))
        assert list(loaded.rows("net", 3)) == list(store.rows("net", 3))

    def test_saved_layout(self, tmp_path):
        import os

        store = ColumnStore()
        store.append("com", 7, [observation(0, day=7)])
        store.save(str(tmp_path))
        assert os.path.exists(tmp_path / "segments" / "g0-000000.rseg")

    def test_legacy_store_is_rejected_naming_migrate(self, v1_store):
        v1 = v1_store.directory
        for opener in (ColumnStore.load, SegmentStore, StoreManifest.load):
            with pytest.raises(StorageError) as caught:
                opener(v1)
            message = str(caught.value)
            assert f"`repro store migrate {v1} NEW_DIR`" in message
            assert "ColumnStore.load" not in message

    def test_stats_report_exact_segment_file_size(self, tmp_path):
        import os

        store = ColumnStore()
        store.append("com", 0, [observation(i) for i in range(16)])
        store.append("net", 2, [observation(i, day=2) for i in range(7)])
        written = store.save(str(tmp_path))
        sizes = {
            path: os.path.getsize(path)
            for path in written
            if path.endswith(".rseg")
        }
        keyed = dict(zip(store.partitions(), sorted(sizes)))
        for (source, day), path in keyed.items():
            stats = store.partition_stats(source, day)
            assert stats.encoded_bytes == sizes[path]
        assert store.total_stats().encoded_bytes == sum(sizes.values())

    def test_loaded_stats_match(self, tmp_path):
        store = ColumnStore()
        store.append("com", 0, [observation(i) for i in range(6)])
        store.save(str(tmp_path))
        loaded = ColumnStore.load(str(tmp_path))
        assert (
            loaded.partition_stats("com", 0).data_points
            == store.partition_stats("com", 0).data_points
        )

    def test_encoding_cache_invalidated_on_append(self):
        store = ColumnStore()
        store.append("com", 0, [observation(0)])
        first = store.partition_stats("com", 0).encoded_bytes
        store.append("com", 0, [observation(1)])
        second = store.partition_stats("com", 0).encoded_bytes
        assert second != first
