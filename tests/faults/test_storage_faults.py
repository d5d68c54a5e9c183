"""Segment-read faults: corruption helpers and the hardened store load."""

import hashlib
import os

import pytest

from repro.batch.batch import BatchBuilder
from repro.faults.inject import corrupt_blob, corrupt_store_files
from repro.faults.plan import FaultPlan, FaultSpec
from repro.measurement.snapshot import DomainObservation
from repro.store import SegmentReader, SegmentStore, StorageError
from repro.store.manifest import StoreManifest


def observation(domain, day, tld="com"):
    return DomainObservation(
        day=day,
        domain=domain,
        tld=tld,
        ns_names=(f"ns1.{domain}.",),
        apex_addrs=("192.0.2.1",),
        asns=frozenset({64500}),
    )


def landed_rows():
    """(source, day) → rows, in sorted partition order."""
    return {
        (source, day): (
            [observation(f"a{i}.com", day) for i in range(4)]
            if source == "com"
            else [observation(f"b{i}.nl", day, tld="nl") for i in range(2)]
        )
        for source in ("com", "nl")
        for day in range(3)
    }


def populated_store(directory):
    """:func:`landed_rows` in *directory*, one segment per partition,
    appended in sorted partition order."""
    with SegmentStore(str(directory), create=True) as store:
        for (source, day), rows in landed_rows().items():
            store.append(source, day, rows)


def rows_of(store):
    return {
        key: list(store.rows(*key)) for key in store.partitions()
    }


def load(directory, on_error="raise"):
    """Every row of the store at *directory*, read eagerly."""
    with SegmentStore(str(directory), on_error=on_error) as store:
        return rows_of(store), store.skipped_partitions


class TestCorruptBlob:
    def test_truncate_halves(self):
        blob = bytes(range(16))
        assert corrupt_blob(blob, "truncate") == blob[:8]

    def test_bitflip_is_deterministic_and_single_bit(self):
        blob = bytes(range(64))
        mutated = corrupt_blob(blob, "bitflip", salt="com/1")
        assert mutated == corrupt_blob(blob, "bitflip", salt="com/1")
        assert mutated != blob
        diffs = [
            (a ^ b) for a, b in zip(blob, mutated) if a != b
        ]
        assert len(diffs) == 1
        assert bin(diffs[0]).count("1") == 1

    def test_different_salts_differ(self):
        blob = bytes(range(64))
        assert corrupt_blob(blob, "bitflip", salt="com/1") != corrupt_blob(
            blob, "bitflip", salt="nl/2"
        )

    def test_empty_blob_untouched(self):
        assert corrupt_blob(b"", "truncate") == b""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="corruption kind"):
            corrupt_blob(b"xy", "melt")


class TestCorruptStoreFiles:
    def plan(self, kind, keys=None):
        return FaultPlan(
            seed=11,
            specs=(
                FaultSpec("storage.segment_read", kind, keys=keys),
            ),
        )

    def test_missing_removes_segment_file(self, tmp_path):
        populated_store(tmp_path)
        affected = corrupt_store_files(
            str(tmp_path), self.plan("missing", keys=("com/1",)).injector()
        )
        # Sorted partition order: ("com", 1) is the second segment.
        assert affected == [
            str(tmp_path / "segments" / "g0-000001.rseg")
        ]
        assert not os.path.exists(affected[0])

    def test_bitflip_touches_one_segment_file(self, tmp_path):
        populated_store(tmp_path)
        affected = corrupt_store_files(
            str(tmp_path), self.plan("bitflip", keys=("nl/0",)).injector()
        )
        assert len(affected) == 1
        assert affected[0].endswith(".rseg")

    def test_foreign_manifest_is_refused(self, foreign_store):
        with pytest.raises(StorageError, match="not a format-2 segment"):
            corrupt_store_files(
                foreign_store, self.plan("bitflip").injector()
            )


class TestHardenedLoad:
    def damage(self, directory, kind, keys):
        plan = FaultPlan(
            seed=11,
            specs=(FaultSpec("storage.segment_read", kind, keys=keys),),
        )
        return corrupt_store_files(str(directory), plan.injector())

    @pytest.mark.parametrize("kind", ["truncate", "bitflip", "missing"])
    def test_damage_raises_typed_error(self, tmp_path, kind):
        populated_store(tmp_path)
        self.damage(tmp_path, kind, keys=("com/1",))
        with pytest.raises(StorageError):
            load(tmp_path)

    @pytest.mark.parametrize("kind", ["truncate", "bitflip", "missing"])
    def test_lenient_load_drops_only_damaged_partition(
        self, tmp_path, kind
    ):
        populated_store(tmp_path)
        self.damage(tmp_path, kind, keys=("com/1",))
        rows, skipped = load(tmp_path, on_error="skip")
        assert [
            (source, day) for source, day, _reason in skipped
        ] == [("com", 1)]
        # The manifest still lists the partition; none of its rows read.
        expected = landed_rows()
        expected[("com", 1)] = []
        assert rows == expected

    @pytest.mark.parametrize("kind", ["truncate", "bitflip", "missing"])
    def test_damaged_base_costs_every_day_read_through_it(
        self, tmp_path, kind
    ):
        """``com`` day 0 is the base of the deltas of days 1 and 2: a
        lenient read loses all three, each recorded once, and ``nl``
        reads intact; a strict read raises."""
        populated_store(tmp_path)
        self.damage(tmp_path, kind, keys=("com/0",))
        rows, skipped = load(tmp_path, on_error="skip")
        assert [(source, day) for source, day, _ in skipped] == [
            ("com", 0), ("com", 1), ("com", 2)
        ]
        expected = landed_rows()
        for day in range(3):
            expected[("com", day)] = []
        assert rows == expected
        with pytest.raises(StorageError):
            load(tmp_path)

    def test_checksum_mismatch_is_named(self, tmp_path):
        populated_store(tmp_path)
        self.damage(tmp_path, "bitflip", keys=("com/0",))
        with pytest.raises(StorageError, match="checksum mismatch"):
            load(tmp_path)

    def test_clean_roundtrip_is_exact(self, tmp_path):
        populated_store(tmp_path)
        rows, skipped = load(tmp_path)
        assert skipped == []
        assert rows == landed_rows()

    def test_invalid_on_error_rejected(self, tmp_path):
        populated_store(tmp_path)
        with pytest.raises(ValueError, match="on_error"):
            load(tmp_path, on_error="ignore")


#: sha256 of every file :func:`populated_store` writes, taken when an
#: in-memory store still saved these partitions with an encoder of its
#: own — except ``com`` and ``nl`` days 1–2 and ``manifest.json``,
#: re-pinned when appends began landing a day that repeats its
#: source's base as a delta fragment: those four days repeat day 0, so
#: they land as deltas (``.rseg`` version 4, no changed row, no ended
#: domain), and the manifest records their smaller sizes. Full days
#: keep their bytes.
SAVED_SHA256 = {
    "manifest.json":
        "63ac4a8cd9a6c44d891e4689df1d20caaad8464620d0afd1c8a141ff1b539b3e",
    "segments/g0-000000.rseg":
        "d147e9c8cd7b09e2a0465de8e995e8c3db969c258c6c71f69bee41a10508f224",
    "segments/g0-000001.rseg":
        "a1da9531e52398a7f9d85624e54ff95cd07abfda0e5adb231589142e064bf79b",
    "segments/g0-000002.rseg":
        "c7505fcf96762b5f91c3757c81b187fb1887f8321673ec598da116cfb80bee2b",
    "segments/g0-000003.rseg":
        "a5033ef03129e10210df66fad4d9beae1e0e68e56a2983c64590272378f1a614",
    "segments/g0-000004.rseg":
        "7f14f3a4e079c589fc5e46a4b84dd5c2dbc286073f1c69d776fc5598e4c04e0f",
    "segments/g0-000005.rseg":
        "7b72415e23af6c73766553d0d09d8d15a362c461c3692f276ccd69f88f43e0a5",
}


def file_digests(root, paths):
    """sha256 per file, keyed by its ``/``-separated path under *root*."""
    digests = {}
    for path in paths:
        with open(path, "rb") as handle:
            digests[
                os.path.relpath(path, root).replace(os.sep, "/")
            ] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def test_saved_bytes_are_pinned(tmp_path):
    """Appending the partitions one by one writes the same file names
    and bytes a whole-store save of them once did."""
    populated_store(tmp_path)
    written = [
        os.path.join(root, name)
        for root, _dirs, files in os.walk(tmp_path)
        for name in files
    ]
    assert file_digests(tmp_path, written) == SAVED_SHA256


#: sha256 of every file of :func:`compacted_store`, taken when
#: compaction began storing runs: com [0, 5) and [6, 8) and nl [0, 8)
#: as run fragments, com day 5 joined from its two fragments.
COMPACTED_SHA256 = {
    "manifest.json":
        "3bae6081e8b4f64175e3dc3d4c4766f77fbb9ca7e5b52fa9016574c54a80f2bf",
    "segments/g1-000017.rseg":
        "cd0632bd3ac8305e6569649e5b7e62135788a8744586a3b08631719d8ac1ab1a",
}


def compacted_landings():
    """``(source, day, rows)`` in the order :func:`compacted_store`
    lands them."""
    landings = []
    for day in range(8):
        landings.append(
            ("com", day, [observation(f"a{i}.com", day) for i in range(4)])
        )
        landings.append(("nl", day, [
            observation(f"b{i}.nl", day, tld="nl") for i in range(2)
        ]))
    landings.append(
        ("com", 5, [observation(f"late{i}.com", 5) for i in range(3)])
    )
    return landings


def compacted_store(directory):
    """Eight days of com + nl landed through ``append_batch`` from one
    shared builder, a late second fragment for com day 5 (the one
    partition compaction has to join), then ``compact(fanout=4)``."""
    builder = BatchBuilder()
    with SegmentStore(directory, create=True) as store:
        for source, day, rows in compacted_landings():
            store.append_batch(source, day, builder.build(rows))
        store.compact(fanout=4)


def test_compacted_bytes_are_pinned(tmp_path):
    """Moving verified pages through compaction writes the same file
    names and bytes as re-encoding them did."""
    compacted_store(str(tmp_path))
    written = [
        os.path.join(root, name)
        for root, _dirs, files in os.walk(tmp_path)
        for name in files
    ]
    assert file_digests(tmp_path, written) == COMPACTED_SHA256


def test_compacted_store_reads_its_landed_rows(tmp_path):
    """Whatever bytes compaction writes, every day of the compacted
    store reads back as landed, row for row and in order."""
    compacted_store(str(tmp_path))
    landed = {}
    for source, day, rows in compacted_landings():
        landed.setdefault((source, day), []).extend(rows)
    with SegmentStore(str(tmp_path)) as store:
        assert store.partitions() == sorted(landed)
        for key, rows in landed.items():
            assert list(store.rows(*key)) == rows
            assert store.batch(*key).rows() == rows
            assert store.row_count(*key) == len(rows)


class TestCrashBeforeTheDeltaIsRecorded:
    """A crash between a delta's segment publish and its manifest
    record strands an unreferenced file; the manifest is the commit
    point."""

    def day_rows(self):
        # a0.com ends, a4.com starts: a delta with one row, one ended.
        return [observation(f"a{i}.com", 3) for i in range(1, 5)]

    def test_reopened_store_reads_as_before_then_lands_the_delta(
        self, tmp_path, monkeypatch
    ):
        populated_store(tmp_path)
        before, _ = load(tmp_path)
        manifest = os.path.join(str(tmp_path), "manifest.json")
        with open(manifest, "rb") as handle:
            manifest_before = handle.read()

        def crash(self, directory):
            raise OSError("crashed before the manifest swap")

        with SegmentStore(str(tmp_path)) as store:
            monkeypatch.setattr(StoreManifest, "save", crash)
            with pytest.raises(OSError, match="crashed"):
                store.append("com", 3, self.day_rows())
            monkeypatch.undo()
        stranded = os.path.join(str(tmp_path), "segments", "g0-000006.rseg")
        with SegmentReader(stranded) as reader:
            assert [ref.base for ref in reader.partitions] == [0]
        with open(manifest, "rb") as handle:
            assert handle.read() == manifest_before
        # Garbage in the stranded file would fail any read of it.
        with open(stranded, "wb") as handle:
            handle.write(b"not a segment")
        assert load(tmp_path) == (before, [])
        with SegmentStore(str(tmp_path)) as store:
            store.append("com", 3, self.day_rows())
        with SegmentReader(stranded) as reader:
            (ref,) = reader.partitions
            assert (ref.base, ref.rows) == (0, 1)
        rows, skipped = load(tmp_path)
        assert skipped == []
        assert rows == {**before, ("com", 3): self.day_rows()}
