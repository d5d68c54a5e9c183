"""The store's batch path is value-identical to its row path."""

import os

import pytest

from repro.batch.batch import BatchBuilder, ObservationBatch
from repro.measurement.snapshot import DomainObservation
from repro.store import SegmentStore


def observation(index, day=0):
    return DomainObservation(
        day=day,
        domain=f"d{index}.com",
        tld="com",
        ns_names=(f"ns1.h{index % 3}.net",),
        apex_addrs=(f"198.51.100.{index + 1}",),
        www_cnames=(f"d{index}.cdn.example.net",) if index % 2 else (),
        www_addrs=(f"203.0.113.{index + 1}",),
        apex_addrs6=(f"2001:db8::{index + 1:x}",) if index % 3 else (),
        asns=frozenset({64500, 64500 + index % 4}),
    )


@pytest.fixture()
def rows():
    return [observation(i, day=2) for i in range(15)]


def segment_bytes(store):
    """The bytes of the store's one segment file."""
    (meta,) = store.manifest.segments
    with open(os.path.join(store.directory, meta.file), "rb") as handle:
        return handle.read()


@pytest.fixture()
def row_store(rows, tmp_path):
    store = SegmentStore(str(tmp_path / "rows"), create=True)
    store.append("com", 2, rows)
    return store


@pytest.fixture()
def batch_store(rows, tmp_path):
    store = SegmentStore(str(tmp_path / "batch"), create=True)
    store.append_batch("com", 2, ObservationBatch.from_rows(rows))
    return store


class TestAppendBatch:
    def test_rows_identical_to_row_append(self, row_store, batch_store):
        assert list(batch_store.rows("com", 2)) == list(
            row_store.rows("com", 2)
        )

    def test_encoded_partitions_byte_identical(
        self, row_store, batch_store
    ):
        """Table 1's ``estimated_bytes`` must not depend on which append
        path landed a partition."""
        assert segment_bytes(batch_store) == segment_bytes(row_store)

    def test_stats_identical(self, row_store, batch_store):
        assert batch_store.partition_stats(
            "com", 2
        ) == row_store.partition_stats("com", 2)


class TestBatchReads:
    def test_batch_rematerialises_rows(self, row_store, rows):
        batch = row_store.batch("com", 2)
        assert batch.rows() == rows

    def test_batches_covers_every_partition_in_order(self, rows, tmp_path):
        store = SegmentStore(str(tmp_path), create=True)
        store.append_partitions([
            ("com", 1, rows[:5]), ("net", 1, rows[5:9]), ("com", 2, rows[9:])
        ])
        seen = [
            (source, day, batch.rows())
            for source, day, batch in store.batches()
        ]
        assert [(s, d) for s, d, _ in seen] == list(store.partitions())
        assert seen == [
            (source, day, list(store.rows(source, day)))
            for source, day in store.partitions()
        ]

    def test_shared_builder_interns_across_partitions(self, rows, tmp_path):
        store = SegmentStore(str(tmp_path), create=True)
        # The same domains on the next day.
        store.append_partitions([("com", 1, rows), ("com", 2, rows)])
        builder = BatchBuilder()
        first = store.batch("com", 1, builder=builder)
        second = store.batch("com", 2, builder=builder)
        assert first.names is second.names
        # Same domains → same interned ids across the two partitions.
        assert first.domains == second.domains

    def test_batch_survives_save_load(self, rows, tmp_path):
        SegmentStore(str(tmp_path), create=True).append("com", 2, rows)
        with SegmentStore(str(tmp_path)) as loaded:
            assert loaded.batch("com", 2).rows() == rows
