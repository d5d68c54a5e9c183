"""v1 → segment store migration, against the checked-in v1 fixture."""

import json
import os

import pytest

from repro.measurement.snapshot import DomainObservation
from repro.store import SegmentStore, StorageError
from repro.store.migrate import directory_bytes, migrate_store


def observation(domain, day, tld="com"):
    return DomainObservation(
        day=day,
        domain=domain,
        tld=tld,
        ns_names=(f"ns1.{domain}.",),
        apex_addrs=("192.0.2.7",),
        www_cnames=("edge.prot.example.",),
        www_addrs=("198.51.100.9",),
        asns=frozenset({64500, 64501}),
    )


def populated_store(directory, days=4):
    store = SegmentStore(directory, create=True)
    store.append_partitions(
        (source, day, rows)
        for day in range(days)
        for source, rows in (
            ("com", [observation(f"a{i}.com", day) for i in range(5)]),
            ("nl", [observation(f"b{i}.nl", day, tld="nl") for i in range(2)]),
        )
    )
    return store


def rows_of(store):
    return {key: list(store.rows(*key)) for key in store.partitions()}


class TestMigrate:
    def test_v1_roundtrips_exactly(self, v1_store, tmp_path):
        report = migrate_store(v1_store.directory, str(tmp_path / "v2"))
        with SegmentStore(str(tmp_path / "v2")) as migrated:
            assert rows_of(migrated) == v1_store.rows
        assert report.partitions == 4
        assert report.rows == 5 + 5 + 5 + 2
        assert report.skipped == []

    def test_fixture_covers_the_awkward_rows(self, v1_store):
        rows = [row for part in v1_store.rows.values() for row in part]
        assert any(not r.apex_addrs and r.apex_addrs6 for r in rows)
        assert any(not r.www_cnames for r in rows)
        assert any(len(r.asns) > 1 for r in rows)
        assert any(not r.domain.isascii() for r in rows)

    def test_report_byte_accounting(self, v1_store, tmp_path):
        v1, v2 = v1_store.directory, tmp_path / "v2"
        report = migrate_store(v1, str(v2))
        assert report.source_bytes == directory_bytes(v1)
        assert report.target_bytes == directory_bytes(str(v2))
        assert report.segments == len(os.listdir(v2 / "segments"))

    def test_compact_fanout_merges_segments(self, v1_store, tmp_path):
        v2 = tmp_path / "v2"
        report = migrate_store(v1_store.directory, str(v2), compact_fanout=4)
        assert report.segments < 4
        with SegmentStore(str(v2)) as migrated:
            assert rows_of(migrated) == v1_store.rows

    def test_compact_writes_run_fragments_that_round_trip(self, tmp_path):
        """A sorted history migrated with ``compact_fanout`` lands as run
        fragments and reads back day for day; the v1 fixture's days are
        not in domain order, so they stay one-day fragments."""
        populated_store(str(tmp_path / "old")).close()
        new = str(tmp_path / "new")
        migrate_store(str(tmp_path / "old"), new, compact_fanout=2)
        with SegmentStore(str(tmp_path / "old")) as old, \
                SegmentStore(new) as migrated:
            assert rows_of(migrated) == rows_of(old)
            assert [migrated.stored_rows(s) for s in ("com", "nl")] == [5, 2]

    def test_v1_fixture_compacts_to_one_day_fragments(
        self, v1_store, tmp_path
    ):
        v2 = str(tmp_path / "v2")
        migrate_store(v1_store.directory, v2, compact_fanout=2)
        with SegmentStore(v2) as migrated:
            assert rows_of(migrated) == v1_store.rows
            assert sum(
                migrated.stored_rows(source) for source in ("com", "nl")
            ) == 17

    def test_skip_damaged_v1_partition(self, v1_store, tmp_path):
        v1, v2 = v1_store.directory, tmp_path / "v2"
        v1_store.damage("com", 4, "ns_names", "bitflip")
        with pytest.raises(StorageError, match="checksum mismatch"):
            migrate_store(v1, str(tmp_path / "strict"))
        report = migrate_store(v1, str(v2), on_error="skip")
        assert [(s, d) for s, d, _ in report.skipped] == [("com", 4)]
        with SegmentStore(str(v2)) as migrated:
            expected = dict(v1_store.rows)
            expected.pop(("com", 4))
            assert rows_of(migrated) == expected

    def test_row_count_mismatch_is_caught(self, v1_store, tmp_path):
        manifest_path = os.path.join(v1_store.directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest[0]["rows"] += 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StorageError, match="row count mismatch"):
            migrate_store(v1_store.directory, str(tmp_path / "v2"))

    def test_v2_source_rewrites_harmlessly(self, tmp_path):
        v2a, v2b = tmp_path / "a", tmp_path / "b"
        store = populated_store(str(v2a))
        report = migrate_store(str(v2a), str(v2b))
        assert report.partitions == 8
        with SegmentStore(str(v2b)) as rewritten:
            assert rows_of(rewritten) == rows_of(store)

    def test_refuses_a_target_that_already_holds_a_store(
        self, v1_store, tmp_path
    ):
        """Migrating twice into one directory used to append every
        partition a second time (``row_count`` doubled)."""
        v2 = str(tmp_path / "v2")
        migrate_store(v1_store.directory, v2)
        with pytest.raises(StorageError, match="already holds a store"):
            migrate_store(v1_store.directory, v2)
        with SegmentStore(v2) as migrated:
            assert migrated.row_count("com", 3) == 5
        with pytest.raises(StorageError, match="already holds a store"):
            migrate_store(v1_store.directory, v1_store.directory)
