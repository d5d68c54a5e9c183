"""The store's write side: a page is encoded once, moved by compaction
only after it verifies, and published through synced renames.

* compaction over damaged input fails typed, names the file and leaves
  the store exactly as it was;
* a compacted segment is byte-for-byte what a naive day-by-day model
  of the merge — decode every input, coalesce unchanged days into
  runs, re-encode the cells — writes;
* pool ids never leak into bytes: a batch cut from a big shared pool
  lands the same bytes as its rows;
* the manifest — the commit point — is synced before it is renamed.
"""

import dataclasses
import os
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batch.batch import BatchBuilder
from repro.measurement.snapshot import DomainObservation
from repro.store import SegmentReader, SegmentStore, StorageError, build_segment
from repro.store.codecs import COLUMN_ORDER, FLAG_ZLIB, KIND_STR, encode_column
from repro.store.segment import encode_columns, layout_segment
from repro.store.store import batch_columns


def observation(index, day=0, tld="com"):
    return DomainObservation(
        day=day,
        domain=f"d{index}.{tld}",
        tld=tld,
        ns_names=("ns1.hostco-dns.com", "ns2.hostco-dns.com"),
        apex_addrs=(f"10.0.{index % 4}.{index % 200 + 1}",),
        www_cnames=("cdn.front.net",) if index % 3 == 0 else (),
        www_addrs=(f"10.1.0.{index % 200 + 1}",),
        apex_addrs6=(f"2001:db8::{index:x}",) if index % 2 else (),
        asns=frozenset({64500 + index % 3, 64510}),
    )


def day_rows(day, count=6, tld="com"):
    return [observation(i, day=day, tld=tld) for i in range(count)]


def row_cells(rows):
    """Rows as storage column lists, in plain Python — independent of
    the store's own shredder."""
    columns = {
        name: [list(getattr(row, name)) for row in rows]
        for name in COLUMN_ORDER
        if name not in ("domain", "tld", "asns")
    }
    columns["domain"] = [row.domain for row in rows]
    columns["tld"] = [row.tld for row in rows]
    columns["asns"] = [sorted(row.asns) for row in rows]
    return columns


def segment_files(directory):
    return sorted(os.listdir(os.path.join(directory, "segments")))


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def write_bytes(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


# -- compaction over damaged input ---------------------------------------------


def landed(tmp_path, twice=None):
    """Four days of com + nl, gen-0 segment each; *twice* names a
    ``(source, day)`` that gets a second fragment."""
    directory = str(tmp_path)
    with SegmentStore(directory, create=True) as store:
        for day in range(4):
            store.append("com", day, day_rows(day))
            store.append("nl", day, day_rows(day, count=2, tld="nl"))
        if twice is not None:
            store.append(*twice, day_rows(twice[1], count=3, tld=twice[0]))
    return directory


def segment_of(directory, source, day):
    """Path of the first gen-0 segment holding ``(source, day)``."""
    with SegmentStore(directory) as store:
        for meta in store.manifest.segments:
            if (source, day) in [(s, d) for s, d, _ in meta.partitions]:
                return os.path.join(directory, meta.file)
    raise AssertionError(f"{source}/{day} not landed")


def flip_page_byte(path, column="ns_names"):
    with SegmentReader(path) as reader:
        ref = reader.partitions[0].columns[column]
    blob = bytearray(read_bytes(path))
    blob[ref.offset + ref.length // 2] ^= 0x10
    write_bytes(path, bytes(blob))


def replace_page(path, column, kind, codec, page):
    """Rewrite the segment at *path* with one column's page swapped for
    *page* — every CRC, offset and the footer valid, only the page body
    malformed."""
    blob = read_bytes(path)
    partitions = []
    for ref in SegmentReader.from_bytes(blob).partitions:
        pages = {
            name: (
                stored.kind,
                stored.codec,
                blob[stored.offset:stored.offset + stored.length],
            )
            for name, stored in ref.columns.items()
        }
        pages[column] = (kind, codec, page)
        partitions.append((ref.source, ref.day, ref.end, ref.rows, pages))
    write_bytes(path, layout_segment(partitions))


def plain_domain_page(rows):
    """The uncompressed ``domain`` page of *rows*: ``(codec, body)``."""
    codec, page = encode_column(KIND_STR, [row.domain for row in rows])
    if codec & FLAG_ZLIB:
        codec, page = codec & ~FLAG_ZLIB, zlib.decompress(page)
    return codec, bytearray(page)


def assert_compaction_refused(directory, damaged, match, skipped, named=True):
    """``compact()`` raises (naming *damaged*, where the read side's
    own error does), changes nothing on disk, and a lenient reopen
    still serves everything but the ``(source, day)``s of *skipped*."""
    manifest_path = os.path.join(directory, "manifest.json")
    manifest_before = read_bytes(manifest_path)
    files_before = segment_files(directory)
    with SegmentStore(directory) as store:
        with pytest.raises(StorageError, match=match) as caught:
            store.compact(fanout=4)
    assert (os.path.basename(damaged) in str(caught.value)) == named
    assert read_bytes(manifest_path) == manifest_before
    assert segment_files(directory) == files_before
    assert not [name for name in files_before if name.endswith(".tmp")]
    with SegmentStore(directory, on_error="skip") as lenient:
        for source, day in lenient.partitions():
            rows = list(lenient.rows(source, day))
            if (source, day) in skipped:
                continue
            count = 2 if source == "nl" else 6
            assert rows == day_rows(day, count=count, tld=source)


class TestCompactionOverDamagedInput:
    def test_flipped_byte_in_a_moved_page(self, tmp_path):
        directory = landed(tmp_path)
        damaged = segment_of(directory, "com", 2)
        flip_page_byte(damaged)
        assert_compaction_refused(
            directory, damaged, "checksum mismatch", [("com", 2)]
        )

    def test_flipped_byte_in_a_joined_fragment(self, tmp_path):
        directory = landed(tmp_path, twice=("com", 1))
        damaged = segment_of(directory, "com", 1)
        flip_page_byte(damaged)
        assert_compaction_refused(
            directory, damaged, "checksum mismatch", [("com", 1)]
        )

    @pytest.mark.parametrize(
        "damage, match",
        [
            ("width", "bad index width 3 in column page"),
            ("index", "dictionary index out of range in page"),
            ("rows", "row count mismatch for column 'domain'"),
        ],
    )
    @pytest.mark.parametrize("twice", [None, ("nl", 3)])
    def test_valid_crc_malformed_body(self, tmp_path, damage, match, twice):
        """A page whose checksum holds but whose body does not decode
        is refused by the moved path (*twice* is None) with the very
        error the join path — the decode every merge used to run —
        raises."""
        directory = landed(tmp_path, twice=twice)
        damaged = segment_of(directory, "nl", 3)
        rows = day_rows(3, count=2, tld="nl")
        codec, body = plain_domain_page(rows[:1] if damage == "rows" else rows)
        if damage == "width":
            body[8] = 3
        elif damage == "index":
            body[-1] = 200
        replace_page(damaged, "domain", KIND_STR, codec, bytes(body))
        assert_compaction_refused(
            directory, damaged, match, [("nl", 3)], named=damage == "rows"
        )

    def test_wrong_kind_is_not_moved(self, tmp_path):
        """A stored page that decodes under its recorded kind, but
        whose kind is not the column's, is not copied forward."""
        directory = landed(tmp_path)
        damaged = segment_of(directory, "com", 0)
        codec, page = encode_column(KIND_STR, ["x"] * 6)
        replace_page(damaged, "ns_names", KIND_STR, codec, page)
        manifest_before = read_bytes(os.path.join(directory, "manifest.json"))
        with SegmentStore(directory) as store:
            with pytest.raises(StorageError, match="g0-000000"):
                store.compact(fanout=4)
        assert read_bytes(
            os.path.join(directory, "manifest.json")
        ) == manifest_before
        assert len(segment_files(directory)) == 8

    @pytest.mark.parametrize("damage", ["truncated", "footer"])
    def test_unopenable_input_raises_before_any_write(
        self, tmp_path, damage
    ):
        directory = landed(tmp_path)
        damaged = segment_of(directory, "com", 3)
        blob = read_bytes(damaged)
        if damage == "truncated":
            write_bytes(damaged, blob[: len(blob) // 2])
        else:
            write_bytes(damaged, blob[:-4] + b"XXXX")
        assert_compaction_refused(
            directory, damaged, "segment|footer", [("com", 3)]
        )

    def test_missing_column_is_not_moved(self, tmp_path):
        """``com`` day 0 is the base of ``com`` days 1–3, so a lenient
        read loses all four."""
        directory = landed(tmp_path)
        damaged = segment_of(directory, "com", 0)
        columns = row_cells(day_rows(0))
        del columns["www_addrs6"]
        write_bytes(damaged, build_segment([("com", 0, columns)]))
        assert_compaction_refused(
            directory, damaged, "missing column 'www_addrs6'",
            [("com", day) for day in range(4)],
        )


# -- move ≡ re-encode ----------------------------------------------------------

texts = st.text(
    # Surrogates included: the codecs encode with surrogatepass.
    alphabet=st.characters(
        min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()
    ),
    max_size=12,
)
ipv6 = st.from_regex(r"2001:db8(:[0-9a-f]{1,4}){1,6}", fullmatch=True)
text_tuples = st.lists(texts, max_size=3).map(tuple)
observations = st.builds(
    DomainObservation,
    day=st.just(0),
    domain=texts,
    tld=st.sampled_from(["com", "nl", "рф"]),
    ns_names=text_tuples,
    apex_addrs=text_tuples,
    www_cnames=text_tuples,
    www_addrs=st.just(()),
    apex_addrs6=st.lists(ipv6, max_size=2).map(tuple),
    www_addrs6=st.lists(ipv6, max_size=2).map(tuple),
    asns=st.frozensets(st.integers(0, 2**32 - 1), max_size=3),
)
partition_rows = st.lists(observations, max_size=5).flatmap(
    # Repeated rows: long runs are what the RLE index codec is for.
    lambda rows: st.lists(st.sampled_from(rows), max_size=12)
    if rows else st.just([])
)
appends = st.lists(
    st.tuples(
        st.sampled_from(["com", "nl", "ålexa"]),
        st.integers(min_value=0, max_value=3),
        partition_rows,
    ),
    min_size=1,
    max_size=14,
)


def model_fragment(source, day, rows):
    """A landed partition in the model: ``(source, start, end, runs)``,
    a run being ``(cells in COLUMN_ORDER, start, end)``."""
    columns = row_cells(rows)
    cells = list(zip(*(columns[name] for name in COLUMN_ORDER)))
    return source, day, day + 1, [(row, day, day + 1) for row in cells]


def model_bytes(fragments):
    """Segment bytes of model fragments, each encoded from its cells."""
    encoded = []
    for source, start, end, runs in fragments:
        columns = {
            name: [run[0][index] for run in runs]
            for index, name in enumerate(COLUMN_ORDER)
        }
        if end > start + 1:
            columns["start"] = [run[1] for run in runs]
            columns["end"] = [run[2] for run in runs]
        _, _, _, rows, pages = encode_columns(source, start, columns)
        encoded.append((source, start, end, rows, pages))
    return layout_segment(encoded)


def reference_compact(segments, fanout):
    """The decode → coalesce → re-encode merge over a model of the
    store, day by day: *segments* is ``[(generation, [fragment, ...]),
    ...]`` in manifest order (:func:`model_fragment`). Same tiering
    policy as ``compact``; every merged fragment is rebuilt from cells.
    A day joins a run stretch when one fragment covers it and that
    fragment spans days or lists the day's domains strictly increasing;
    other days are joined in manifest order."""
    while True:
        tiers = {}
        for segment in segments:
            tiers.setdefault(segment[0], []).append(segment)
        group = next(
            (tiers[g] for g in sorted(tiers) if len(tiers[g]) >= fanout),
            None,
        )
        if group is None:
            return segments
        fragments = [fragment for _, held in group for fragment in held]
        merged = []
        for source in sorted({fragment[0] for fragment in fragments}):
            own = [f for f in fragments if f[0] == source]

            def cover(day):
                return [f for f in own if f[1] <= day < f[2]]

            def rows_on(fragment, day):
                return [row for row, s, e in fragment[3] if s <= day < e]

            def coalescable(day):
                held = cover(day)
                if len(held) != 1:
                    return False
                domains = [row[0] for row in rows_on(held[0], day)]
                return held[0][2] - held[0][1] > 1 or all(
                    a < b for a, b in zip(domains, domains[1:])
                )

            days = sorted({d for f in own for d in range(f[1], f[2])})
            stretches = []
            for day in days:
                if not coalescable(day):
                    merged.append((source, day, day + 1, [
                        (row, day, day + 1)
                        for f in cover(day) for row in rows_on(f, day)
                    ]))
                elif stretches and stretches[-1][-1] == day - 1:
                    stretches[-1].append(day)
                else:
                    stretches.append([day])
            for stretch in stretches:
                runs = {}
                for day in stretch:
                    for row in rows_on(cover(day)[0], day):
                        held = runs.setdefault(row[0], [])
                        if held and held[-1][2] == day and held[-1][0] == row:
                            held[-1][2] = day + 1
                        else:
                            held.append([row, day, day + 1])
                merged.append((source, stretch[0], stretch[-1] + 1, [
                    tuple(run) for domain in sorted(runs)
                    for run in runs[domain]
                ]))
        merged.sort(key=lambda fragment: (fragment[1], fragment[0]))
        generation = group[0][0]
        segments = [
            segment for segment in segments if segment[0] != generation
        ] + [(generation + 1, merged)]


class TestMoveEqualsReencode:
    @given(appends=appends, fanout=st.integers(min_value=2, max_value=4))
    @settings(max_examples=60, deadline=None)
    @example(
        appends=[("com", 0, [observation(1)]), ("com", 1, [observation(1)])],
        fanout=4,
    )
    def test_compacted_bytes_equal_reencoded_cells(
        self, tmp_path_factory, appends, fanout
    ):
        directory = str(tmp_path_factory.mktemp("store"))
        model = []
        with SegmentStore(directory, create=True) as store:
            for step, (source, day, rows) in enumerate(appends):
                store.append(source, day, rows)
                model.append((0, [model_fragment(source, day, rows)]))
                if step % 5 == 4:
                    # Compacting as history grows is what builds a
                    # second tier out of earlier runs.
                    store.compact(fanout=fanout)
                    model = reference_compact(model, fanout)
            store.compact(fanout=fanout)
            model = reference_compact(model, fanout)
            stored = [
                (meta.generation, read_bytes(
                    os.path.join(directory, meta.file)
                ))
                for meta in store.manifest.segments
            ]
            landed = {}
            for source, day, rows in appends:
                landed.setdefault((source, day), []).extend(
                    dataclasses.replace(row, day=day) for row in rows
                )
            for key, rows in landed.items():
                assert list(store.rows(*key)) == rows
        assert [generation for generation, _ in stored] == [
            generation for generation, _ in model
        ]
        for (_, data), (_, fragments) in zip(stored, model):
            # A delta lands a day's changes, not the day's bytes; it
            # reads back as the day (above). Compaction writes none.
            if not any(
                ref.base is not None
                for ref in SegmentReader.from_bytes(data).partitions
            ):
                assert data == model_bytes(fragments)

    def test_two_tiers_and_a_joined_day(self, tmp_path):
        """The deterministic case the property must also cover: ≥
        fanout gen-0 segments four times over, so gen-1 runs are
        themselves merged (every page moved a second time), with one
        day appended twice and one empty partition."""
        directory = str(tmp_path)
        model = []
        with SegmentStore(directory, create=True) as store:
            for day in range(16):
                landings = [("com", day, day_rows(day))]
                if day == 5:
                    landings.append(("com", 5, day_rows(5, count=3)))
                if day == 9:
                    landings.append(("nl", 9, []))
                for source, day_, rows in landings:
                    store.append(source, day_, rows)
                    model.append((0, [model_fragment(source, day_, rows)]))
                if day % 4 == 3:
                    store.compact(fanout=4)
                    model = reference_compact(model, 4)
            assert [m.generation for m in store.manifest.segments] == [2]
            (meta,) = store.manifest.segments
            assert read_bytes(os.path.join(directory, meta.file)) == (
                model_bytes(model[0][1])
            )
            assert list(store.rows("com", 5)) == day_rows(5) + day_rows(
                5, count=3
            )


class TestIdsNeverLeakIntoBytes:
    def test_batch_from_a_big_shared_pool_lands_its_rows_bytes(
        self, tmp_path
    ):
        builder = BatchBuilder()
        for junk in range(3000):
            builder.names.intern(f"unreferenced-{junk}.example")
            builder.addresses.intern(f"198.51.{junk % 256}.{junk // 256}")
        rows = day_rows(0, count=40)
        # Interned in reverse first, so the batch's pool ids run
        # against its own first-seen order.
        builder.build(reversed(rows))
        batch = builder.build(rows)
        assert batch.domains[0] > batch.domains[-1] >= 3000

        by_batch = SegmentStore(str(tmp_path / "batch"), create=True)
        by_batch.append_batch("com", 0, batch)
        by_rows = SegmentStore(str(tmp_path / "rows"), create=True)
        by_rows.append("com", 0, list(batch.rows()))
        landed_bytes = [
            read_bytes(
                os.path.join(store.directory, store.manifest.segments[0].file)
            )
            for store in (by_batch, by_rows)
        ]
        by_batch.close()
        by_rows.close()
        assert landed_bytes[0] == landed_bytes[1]
        assert landed_bytes[0] == build_segment(
            [("com", 0, batch_columns(batch))]
        )
        assert landed_bytes[0] == build_segment([("com", 0, row_cells(rows))])
        assert batch_columns(batch) == row_cells(rows)


# -- durability of the commit point --------------------------------------------


class TestManifestIsSyncedBeforeItIsPublished:
    @pytest.fixture
    def events(self, monkeypatch):
        """``("fsync", inode)``, ``("replace", source inode, target
        name)`` and ``("remove", name)`` in call order."""
        log = []
        real_fsync, real_replace, real_remove = (
            os.fsync, os.replace, os.remove
        )

        def fsync(fd):
            log.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(source, target):
            log.append(
                ("replace", os.stat(source).st_ino, os.path.basename(target))
            )
            real_replace(source, target)

        def remove(path):
            log.append(("remove", os.path.basename(path)))
            real_remove(path)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "remove", remove)
        return log

    @staticmethod
    def published(events):
        """Names renamed into place, in order — after asserting each
        one's temporary file was synced first."""
        names = []
        for position, event in enumerate(events):
            if event[0] == "replace":
                _, inode, target = event
                assert ("fsync", inode) in events[:position], (
                    f"{target} was renamed into place before its "
                    f"temporary file was synced"
                )
                names.append(target)
        return names

    def test_append(self, tmp_path, events):
        with SegmentStore(str(tmp_path), create=True) as store:
            store.append("com", 0, day_rows(0))
        assert self.published(events) == ["g0-000000.rseg", "manifest.json"]

    def test_compaction(self, tmp_path, events):
        directory = landed(tmp_path)
        del events[:]
        with SegmentStore(directory) as store:
            store.compact(fanout=4)
        assert self.published(events) == ["g1-000008.rseg", "manifest.json"]
        # Inputs are unlinked only after the manifest that drops them
        # is in place.
        kinds = [event[0] for event in events]
        assert kinds.count("remove") == 8
        assert kinds.index("remove") > len(kinds) - 1 - kinds[::-1].index(
            "replace"
        )
