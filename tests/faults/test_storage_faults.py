"""Segment-read faults: corruption helpers and the hardened store load."""

import hashlib
import json
import os

import pytest

from repro.batch.batch import BatchBuilder
from repro.faults.inject import corrupt_blob, corrupt_store_files
from repro.faults.plan import FaultPlan, FaultSpec
from repro.measurement.snapshot import DomainObservation
from repro.store import SegmentStore, StorageError
from repro.store.migrate import migrate_store


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

    def test_legacy_store_is_refused(self, v1_store):
        with pytest.raises(StorageError, match="repro store migrate"):
            corrupt_store_files(
                v1_store.directory, self.plan("bitflip").injector()
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

    def test_checksum_mismatch_is_named(self, tmp_path):
        populated_store(tmp_path)
        self.damage(tmp_path, "bitflip", keys=("com/0",))
        with pytest.raises(StorageError, match="checksum mismatch"):
            load(tmp_path)

    @pytest.mark.parametrize("kind", ["truncate", "bitflip", "missing"])
    def test_legacy_lenient_load_drops_only_damaged_partition(
        self, v1_store, tmp_path, kind
    ):
        """The v1 reader (now only behind ``migrate_store``) drops a
        damaged partition whole — never a wrong row."""
        v1_store.damage("com", 4, "www_addrs6", kind)
        with pytest.raises(StorageError):
            migrate_store(v1_store.directory, str(tmp_path / "strict"))
        v2 = str(tmp_path / "v2")
        report = migrate_store(v1_store.directory, v2, on_error="skip")
        assert [
            (source, day) for source, day, _reason in report.skipped
        ] == [("com", 4)]
        expected = dict(v1_store.rows)
        expected.pop(("com", 4))
        with SegmentStore(v2) as migrated:
            assert rows_of(migrated) == expected

    def test_legacy_manifest_without_checksums_loads(
        self, v1_store, tmp_path
    ):
        manifest_path = os.path.join(v1_store.directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        for entry in manifest:
            del entry["checksums"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        v2 = str(tmp_path / "v2")
        migrate_store(v1_store.directory, v2)
        with SegmentStore(v2) as migrated:
            assert rows_of(migrated) == v1_store.rows

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
#: own.
SAVED_SHA256 = {
    "manifest.json":
        "a536ad09279e1c85ee51e8f10fcca84deefb11361858b62db89889467121c0ce",
    "segments/g0-000000.rseg":
        "d147e9c8cd7b09e2a0465de8e995e8c3db969c258c6c71f69bee41a10508f224",
    "segments/g0-000001.rseg":
        "47de5d30b8cfdc9bf6e48f8cb21d49f2a50e6d7deb213d10f9308470b2b241f2",
    "segments/g0-000002.rseg":
        "fa220a679aef3d0b85db102381bece1b273e57a5b7f529c12947a38bcdbdb514",
    "segments/g0-000003.rseg":
        "a5033ef03129e10210df66fad4d9beae1e0e68e56a2983c64590272378f1a614",
    "segments/g0-000004.rseg":
        "73a93dd0625b6a5202d5f19c7cc766dbe78821f6e87e14b13740ccbeeb63c8ac",
    "segments/g0-000005.rseg":
        "44aaa2a3f1fc8ce07d29e14c1353aacd5463ac16c8d2b24e4719fcf60c78d351",
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
