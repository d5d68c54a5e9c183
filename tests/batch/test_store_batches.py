"""The store's batch path is value-identical to its row path."""

import pytest

from repro.batch.batch import BatchBuilder, ObservationBatch
from repro.measurement.storage import ColumnStore
from repro.measurement.snapshot import DomainObservation


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


@pytest.fixture()
def row_store(rows):
    store = ColumnStore()
    store.append("com", 2, rows)
    return store


@pytest.fixture()
def batch_store(rows):
    store = ColumnStore()
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
        assert batch_store.segment_bytes(
            "com", 2
        ) == row_store.segment_bytes("com", 2)

    def test_stats_identical(self, row_store, batch_store):
        assert batch_store.partition_stats(
            "com", 2
        ) == row_store.partition_stats("com", 2)


class TestBatchReads:
    def test_batch_rematerialises_rows(self, row_store, rows):
        batch = row_store.batch("com", 2)
        assert batch.rows() == rows

    def test_batches_covers_every_partition_in_order(self, rows):
        store = ColumnStore()
        store.append("com", 1, rows[:5])
        store.append("net", 1, rows[5:9])
        store.append("com", 2, rows[9:])
        seen = [
            (source, day, batch.rows())
            for source, day, batch in store.batches()
        ]
        assert [(s, d) for s, d, _ in seen] == list(store.partitions())
        assert seen == [
            (source, day, list(store.rows(source, day)))
            for source, day in store.partitions()
        ]

    def test_shared_builder_interns_across_partitions(self, rows):
        store = ColumnStore()
        store.append("com", 1, rows)
        store.append("com", 2, rows)  # same domains next day
        builder = BatchBuilder()
        first = store.batch("com", 1, builder=builder)
        second = store.batch("com", 2, builder=builder)
        assert first.names is second.names
        # Same domains → same interned ids across the two partitions.
        assert first.domains == second.domains

    def test_batch_survives_save_load(self, rows, tmp_path):
        store = ColumnStore()
        store.append("com", 2, rows)
        store.save(str(tmp_path))
        loaded = ColumnStore.load(str(tmp_path))
        assert loaded.batch("com", 2).rows() == rows
