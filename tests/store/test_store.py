"""SegmentStore behaviour: appends, lazy reads, compaction, pruning."""

import json
import os

import pytest

from repro.batch.batch import BatchBuilder, ObservationBatch
from repro.core.pipeline import detect_store
from repro.core.references import SignatureCatalog
from repro.measurement.snapshot import DomainObservation
from repro.sketch.build import sketch_from_store
from repro.store import SegmentStore, StorageError
from repro.store.manifest import StoreManifest
from repro.stream.feed import StoreReplayFeed
from tests.store.cells import row_columns, stored_cells


def observation(index, day=0, tld="com"):
    return DomainObservation(
        day=day,
        domain=f"d{index}.{tld}",
        tld=tld,
        ns_names=("ns1.hostco-dns.com", "ns2.hostco-dns.com"),
        apex_addrs=(f"10.0.{index % 4}.{index % 200 + 1}",),
        www_cnames=("cdn.front.net",) if index % 3 == 0 else (),
        www_addrs=(f"10.1.0.{index % 200 + 1}",),
        asns=frozenset({64500 + index % 3, 64510}),
    )


def day_rows(day, count=6, tld="com"):
    return [observation(i, day=day, tld=tld) for i in range(count)]


def populated(tmp_path, days=3):
    store = SegmentStore(str(tmp_path), create=True)
    for day in range(days):
        store.append("com", day, day_rows(day))
        store.append("nl", day, day_rows(day, count=2, tld="nl"))
    return store


class TestAppendAndRead:
    def test_rows_roundtrip(self, tmp_path):
        store = populated(tmp_path)
        assert list(store.rows("com", 1)) == day_rows(1)
        assert store.row_count("nl", 2) == 2
        store.close()

    def test_partitions_sorted(self, tmp_path):
        store = populated(tmp_path, days=2)
        assert store.partitions() == [
            ("com", 0), ("com", 1), ("nl", 0), ("nl", 1)
        ]
        store.close()

    def test_reopen_sees_appends(self, tmp_path):
        populated(tmp_path).close()
        with SegmentStore(str(tmp_path)) as store:
            assert store.row_count("com", 0) == 6

    def test_missing_manifest_requires_create(self, tmp_path):
        with pytest.raises(StorageError, match="create=True"):
            SegmentStore(str(tmp_path / "empty"))

    def test_invalid_on_error_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="on_error"):
            SegmentStore(str(tmp_path), on_error="ignore", create=True)

    def test_append_batch_matches_append(self, tmp_path):
        rows = day_rows(0, count=8)
        boxed = SegmentStore(str(tmp_path / "a"), create=True)
        boxed.append("com", 0, rows)
        batched = SegmentStore(str(tmp_path / "b"), create=True)
        batched.append_batch("com", 0, boxed.batch("com", 0))
        assert list(batched.rows("com", 0)) == list(boxed.rows("com", 0))
        boxed.close()
        batched.close()

    def test_awkward_rows_roundtrip(self, tmp_path):
        """An IPv6-only apex, no ``www`` CNAME, several origin ASes and
        a non-ASCII name read back as landed, before and after reopen."""
        rows = [
            DomainObservation(
                day=4, domain="bücher.com", tld="com",
                ns_names=("ns1.bücher.com",), apex_addrs=(),
                apex_addrs6=("2001:db8::7",), asns=frozenset({64500}),
            ),
            DomainObservation(
                day=4, domain="multi.com", tld="com", ns_names=(),
                apex_addrs=("192.0.2.9",), www_addrs=("192.0.2.10",),
                www_addrs6=("2001:db8::a",),
                asns=frozenset({64500, 64501, 4200000000}),
            ),
        ]
        with SegmentStore(str(tmp_path), create=True) as store:
            store.append("com", 4, rows)
            assert list(store.rows("com", 4)) == rows
        with SegmentStore(str(tmp_path)) as store:
            assert list(store.rows("com", 4)) == rows
            assert stored_cells(store, "com", 4) == row_columns(rows)

    def test_store_rewrites_partition_by_partition(self, tmp_path):
        """Each partition read back and landed into a new store, one
        segment apiece, reads as the bulk-loaded original."""
        original = populated(tmp_path / "a", days=4)
        with SegmentStore(str(tmp_path / "b"), create=True) as copy:
            for source, day in original.partitions():
                copy.append_batch(source, day, original.batch(source, day))
            assert copy.partitions() == original.partitions()
            for key in original.partitions():
                assert list(copy.rows(*key)) == list(original.rows(*key))
                assert copy.columns(*key) == original.columns(*key)
        original.close()

    def test_append_partitions_bulk_loads_one_segment(self, tmp_path):
        bulk = SegmentStore(str(tmp_path / "bulk"), create=True)
        bulk.append_partitions(
            [
                ("com", day, day_rows(day))
                for day in range(5)
            ]
            + [("nl", 0, day_rows(0, count=2, tld="nl"))]
        )
        assert len(os.listdir(tmp_path / "bulk" / "segments")) == 1
        assert bulk.partitions() == [
            ("com", 0), ("com", 1), ("com", 2), ("com", 3), ("com", 4),
            ("nl", 0),
        ]
        assert list(bulk.rows("com", 3)) == day_rows(3)
        bulk.append_partitions([])
        assert len(os.listdir(tmp_path / "bulk" / "segments")) == 1
        bulk.close()

    def test_duplicate_partition_appends_concatenate(self, tmp_path):
        store = SegmentStore(str(tmp_path), create=True)
        store.append("com", 0, day_rows(0, count=3))
        store.append("com", 0, day_rows(0, count=2))
        assert store.row_count("com", 0) == 5
        assert len(list(store.rows("com", 0))) == 5
        store.close()


class TestBatch:
    def test_batch_matches_column_store(self, tmp_path):
        rows = day_rows(0, count=10)
        segment_store = SegmentStore(str(tmp_path), create=True)
        segment_store.append("com", 0, rows)
        ours = segment_store.batch("com", 0)
        theirs = ObservationBatch.from_rows(rows)
        assert len(ours) == len(theirs)
        assert [ours.row(i) for i in range(len(ours))] == [
            theirs.row(i) for i in range(len(theirs))
        ]
        segment_store.close()

    def test_batches_share_builder(self, tmp_path):
        store = populated(tmp_path, days=2)
        builder = BatchBuilder()
        seen = list(store.batches(builder=builder))
        assert [(s, d) for s, d, _ in seen] == store.partitions()
        assert all(batch.names is seen[0][2].names for _, _, batch in seen)
        store.close()

    def test_store_replay_feed_accepts_segment_store(self, tmp_path):
        store = populated(tmp_path, days=2)
        partitions = list(StoreReplayFeed(store).days())
        assert [(p.source, p.day) for p in partitions] == [
            ("com", 0), ("nl", 0), ("com", 1), ("nl", 1)
        ]
        assert list(partitions[0].observations) == day_rows(0)
        store.close()


class TestCompaction:
    def test_compact_merges_generation(self, tmp_path):
        store = populated(tmp_path, days=9)
        before = {key: list(store.rows(*key)) for key in store.partitions()}
        written = store.compact(fanout=4)
        assert written
        assert store.partitions() == sorted(before)
        after = {key: list(store.rows(*key)) for key in store.partitions()}
        assert after == before
        store.close()

    def test_compact_removes_source_segments(self, tmp_path):
        store = populated(tmp_path, days=8)
        segments_dir = tmp_path / "segments"
        assert len(os.listdir(segments_dir)) == 16
        store.compact(fanout=4)
        on_disk = set(os.listdir(segments_dir))
        referenced = {
            os.path.basename(meta.file)
            for meta in store.manifest.segments
        }
        assert on_disk == referenced
        assert len(on_disk) < 16
        store.close()

    def test_compact_below_fanout_is_noop(self, tmp_path):
        store = populated(tmp_path, days=2)
        assert store.compact(fanout=8) == []
        store.close()

    def test_compacted_store_reopens(self, tmp_path):
        store = populated(tmp_path, days=8)
        store.compact(fanout=4)
        store.close()
        with SegmentStore(str(tmp_path)) as reopened:
            assert reopened.row_count("com", 5) == 6
            assert list(reopened.rows("nl", 7)) == day_rows(
                7, count=2, tld="nl"
            )

    def test_manifest_prunes_by_day_and_source(self, tmp_path):
        store = populated(tmp_path, days=8)
        store.compact(fanout=4)
        store.append("com", 20, day_rows(20))
        manifest = store.manifest
        fresh = manifest.select(sources=("com",), start=20, end=20)
        assert len(fresh) == 1
        assert fresh[0].generation == 0
        old = manifest.select(sources=("com",), start=3, end=3)
        assert all(meta.day_min <= 3 <= meta.day_max for meta in old)
        assert not manifest.select(sources=("com",), start=50, end=50)
        store.close()


class TestDeltaFragments:
    def test_days_that_repeat_the_base_land_as_deltas(self, tmp_path):
        """Day 0 lands in full; days 1–3, each one domain apart from
        it, land as deltas against it and read back as landed."""
        landed = {
            day: [observation(i, day) for i in range(day, day + 6)]
            for day in range(4)
        }
        with SegmentStore(str(tmp_path), create=True) as store:
            for day, rows in landed.items():
                store.append("com", day, rows)
            refs = [
                (ref.day, ref.base, ref.rows)
                for meta in store.manifest.segments
                for ref in store._reader(meta).partitions
            ]
            assert refs == [(0, None, 6), (1, 0, 1), (2, 0, 2), (3, 0, 3)]
            assert store.stored_rows("com") == 12
            for day, rows in landed.items():
                assert store.row_count("com", day) == 6
                assert list(store.rows("com", day)) == rows
        with SegmentStore(str(tmp_path)) as reopened:
            reopened.append("com", 4, [observation(9, 4)])
            (meta,) = reopened.manifest.select(start=4, end=4)
            (ref,) = reopened._reader(meta).partitions
            assert (ref.base, ref.rows) == (0, 1)
            assert list(reopened.rows("com", 4)) == [observation(9, 4)]

    def test_late_fragment_in_a_bulk_segment_after_a_delta(self, tmp_path):
        """A late fragment for the base day lands after a delta in one
        ``append_partitions`` segment: the delta keeps reading through
        the old base, the next day deltas against the late fragment."""
        rows = {4: day_rows(4, count=3), 5: day_rows(5, count=4)}
        late = [observation(9, 4)]
        with SegmentStore(str(tmp_path), create=True) as store:
            store.append("com", 4, rows[4])
            store.append_partitions([("com", 5, rows[5]), ("com", 4, late)])
            store.append("com", 6, day_rows(6, count=2))
            expected = [rows[4] + late, rows[5], day_rows(6, count=2)]
            for _ in range(2):
                assert [
                    list(store.rows("com", day)) for day in (4, 5, 6)
                ] == expected
                store.compact(fanout=2)


class TestManifestCommit:
    def text(self, directory):
        with open(os.path.join(directory, "manifest.json")) as handle:
            return handle.read()

    def test_saved_text_is_json_with_indent_one(self, tmp_path):
        """A commit joins each entry's cached text; the bytes are still
        ``json.dumps(to_dict(), indent=1)``, the empty manifest too."""
        empty = StoreManifest()
        assert empty.to_json() == json.dumps(empty.to_dict(), indent=1)
        assert empty.to_json().endswith('"segments": []\n}')
        store = populated(tmp_path, days=5)
        for step in range(3):
            manifest = store.manifest
            assert self.text(str(tmp_path)) == json.dumps(
                manifest.to_dict(), indent=1
            )
            assert StoreManifest.load(str(tmp_path)) == manifest
            if step == 0:
                store.compact(fanout=4)
            else:
                store.append("org", 30 + step, day_rows(30, tld="org"))
        store.close()

    def test_index_and_sequence_follow_commits(self, tmp_path):
        store = populated(tmp_path, days=5)
        store.compact(fanout=4)
        store.append("com", 20, day_rows(20))
        kept = store.manifest
        fresh = StoreManifest.load(str(tmp_path))
        assert kept.next_sequence() == fresh.next_sequence() == 12
        assert kept.partitions() == fresh.partitions()
        for source, day in fresh.partitions():
            assert kept.row_count(source, day) == fresh.row_count(
                source, day
            )
            assert [meta.file for meta in kept.holding(source, day)] == [
                meta.file for meta in fresh.holding(source, day)
            ]
        store.close()


def damaged(tmp_path):
    """Three landed days, one bit flipped in the first segment
    (``com`` day 0, the base that ``com`` days 1 and 2 are deltas
    against, so all three are lost)."""
    populated(tmp_path, days=3).close()
    target = sorted(
        str(p) for p in (tmp_path / "segments").iterdir()
    )[0]
    blob = bytearray(open(target, "rb").read())
    blob[len(blob) // 2] ^= 1
    with open(target, "wb") as handle:
        handle.write(bytes(blob))
    return str(tmp_path)


#: What :func:`damaged` costs a lenient read: the base and its deltas.
COM_DAYS = [("com", 0), ("com", 1), ("com", 2)]


def survivors(tmp_path):
    """A store holding only what :func:`damaged` leaves readable."""
    store = SegmentStore(str(tmp_path / "survivors"), create=True)
    for day in range(3):
        store.append("nl", day, day_rows(day, count=2, tld="nl"))
    return store


def skipped_keys(store):
    return [(source, day) for source, day, _ in store.skipped_partitions]


class TestLenientReads:
    def test_damaged_segment_skips_its_partitions(self, tmp_path):
        directory = damaged(tmp_path)
        with SegmentStore(directory, on_error="skip") as lenient:
            for source, day in lenient.partitions():
                lenient.batch(source, day)
            assert skipped_keys(lenient) == COM_DAYS
        with SegmentStore(directory) as strict:
            with pytest.raises(StorageError):
                for source, day in strict.partitions():
                    strict.batch(source, day)

    def test_detection_records_the_skip_once(self, tmp_path):
        """The pass reads through the caller's store, so the skips land
        there, once per partition; the partitions left detect as a
        store that never held the damaged ones."""
        directory = damaged(tmp_path)
        catalog = SignatureCatalog.paper_table2()
        with SegmentStore(directory, on_error="skip") as lenient:
            result = detect_store(lenient, ("com", "nl"), catalog, 30)
            assert skipped_keys(lenient) == COM_DAYS
        with survivors(tmp_path) as intact:
            assert result == detect_store(intact, ("com", "nl"), catalog, 30)

    def test_sketch_rebuild_records_the_skip_once(self, tmp_path):
        directory = damaged(tmp_path)
        with SegmentStore(directory, on_error="skip") as lenient:
            plane = sketch_from_store(lenient)
            assert skipped_keys(lenient) == COM_DAYS
        with survivors(tmp_path) as intact:
            assert plane.state_digest() == (
                sketch_from_store(intact).state_digest()
            )
