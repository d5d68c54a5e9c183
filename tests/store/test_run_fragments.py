"""Differential oracle: a compacted store reads exactly like the daily one.

Hypothesis generates small landing histories — domains appearing and
disappearing, a reference changing mid-history, days a source did not
land, a late second fragment, a duplicate domain, a rank-ordered source
and empty partitions. Each history is landed three times. The reference
store lands it in descending day order (landing order kept within a
day), so no day of it can repeat an earlier landed day of its source.
The daily store lands it forward through ``append``, fresh pools on
every call, and is left as it landed. The compacted store lands it
forward through ``append_batch`` from one shared builder, is closed and
reopened at a drawn landing index, and is compacted (between days and
at the end) at a fanout of 2 to 8. Every ``(source, day)`` of the daily
and compacted stores must read back as the reference store's, row for
row and in the same order, and every whole-history pass — detection,
the sketch rebuild and the engine replay — must give the same answer.
Under a config whose space-saving summaries evict, the sketch rebuild
of either store must also equal the row-by-row reference fold over its
days in sorted partition order.
"""

import dataclasses
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.batch.batch import BatchBuilder
from repro.core.pipeline import detect_store
from repro.core.references import BatchMatcher, SignatureCatalog
from repro.measurement.scheduler import SCOPE_OF_SOURCE
from repro.measurement.snapshot import DomainObservation
from repro.sketch.build import sketch_from_store
from repro.sketch.plane import SketchPlane, provider_slds_of
from repro.store import SegmentReader, SegmentStore, StorageError
from repro.stream.checkpoint import state_digest
from repro.stream.engine import StreamEngine
from repro.stream.feed import StoreReplayFeed
from tests.sketch import reference_fold
from tests.sketch.test_fold_reference import EVICTING

HORIZON = 12
SOURCES = ("com", "net", "nl", "alexa")

#: Reference profiles a domain can hold on a day: none, CloudFlare by
#: NS, by CNAME or by origin AS, Akamai by NS, none on three other
#: hosters (NS and CNAME) or a fourth, Incapsula by CNAME with Neustar
#: by NS, Level 3 by origin AS with CenturyLink by NS. Six providers
#: and five third-party hosters, more than ``EVICTING``'s space-saving
#: summaries hold.
PROFILES = (
    (("ns1.hostco-dns.com",), (), (64500,)),
    (("ns1.cloudflare.com", "ns2.cloudflare.com"), (), (64500,)),
    (("ns1.hostco-dns.com",), ("x.cdn.cloudflare.net",), (64500,)),
    (("ns1.hostco-dns.com",), (), (13335,)),
    (("a1-64.akam.net",), (), (20940, 64500)),
    (("ns1.otherhost.org", "ns2.thirdco.com"), ("www.webfarm.net",),
     (64500,)),
    (("dns1.spare-dns.info",), (), (64501,)),
    (("ns1.ultradns.com",), ("x.incapdns.net",), (19551,)),
    (("ns1.savvis.net",), (), (3356,)),
)


def observation(name, tld, day, profile):
    ns_names, cnames, asns = PROFILES[profile]
    return DomainObservation(
        day=day,
        domain=f"{name}.{tld}",
        tld=tld,
        ns_names=ns_names,
        apex_addrs=(f"192.0.2.{profile + 1}",),
        www_cnames=cnames,
        www_addrs=(f"198.51.100.{profile + 1}",) if cnames else (),
        asns=frozenset(asns),
    )


@st.composite
def histories(draw):
    """``(landings, fanout, compact_every, reopen_at)``: landings are
    ``(source, day, rows)`` in landing order."""
    names = [f"d{index}" for index in range(draw(st.integers(1, 5)))]
    days = draw(st.integers(2, HORIZON))
    landings = []
    late = []
    for source in draw(
        st.lists(st.sampled_from(SOURCES), min_size=1, max_size=3,
                 unique=True)
    ):
        tld = "com" if source == "alexa" else source
        # Per domain: the day it appears, the day it goes, and a
        # reference that changes once, mid-history.
        spans = {
            name: (
                draw(st.integers(0, days)),
                draw(st.integers(0, days)),
                draw(st.integers(0, days)),
                draw(st.integers(0, len(PROFILES) - 1)),
                draw(st.integers(0, len(PROFILES) - 1)),
            )
            for name in names
        }
        for day in range(days):
            if draw(st.integers(0, 5)) == 0:
                continue  # the source did not land this day
            present = [
                (name, before if day < switch else after)
                for name, (start, end, switch, before, after) in (
                    spans.items()
                )
                if start <= day < end
            ]
            rows = [
                observation(name, tld, day, profile)
                for name, profile in present
            ]
            if source == "alexa":
                rows = draw(st.permutations(rows))  # rank order
            elif present and draw(st.integers(0, 9)) == 0:
                # A duplicate domain: a second, reference-free row.
                rows.append(observation(present[-1][0], tld, day, 0))
            landings.append((source, day, rows))
            if draw(st.integers(0, 7)) == 0:
                late.append((
                    draw(st.integers(1, 4)),
                    (source, day, [
                        observation(f"late{index}", tld, day, 1)
                        for index in range(draw(st.integers(1, 2)))
                    ]),
                ))
    # Land day-major, as daily measurement does; a late fragment lands
    # some days after its own day.
    landings.sort(key=lambda landing: landing[1])
    for lag, (source, day, rows) in late:
        at = next(
            (
                index for index, landing in enumerate(landings)
                if landing[1] >= day + lag
            ),
            len(landings),
        )
        landings.insert(at, (source, day, rows))
    fanout = draw(st.integers(2, 8))
    compact_every = draw(st.sampled_from((None, 2, 3, 5)))
    reopen_at = draw(st.integers(1, max(1, len(landings))))
    return landings, fanout, compact_every, reopen_at


def land(directory, landings):
    """*landings* through ``append``: fresh pools on every call."""
    store = SegmentStore(directory, create=True)
    for source, day, rows in landings:
        store.append(source, day, rows)
    return store


def land_compacted(directory, landings, fanout, compact_every, reopen_at):
    """*landings* through ``append_batch`` from one shared builder, the
    store closed and reopened before landing ``landings[reopen_at]``,
    compacted every *compact_every* landed days and at the end."""
    builder = BatchBuilder()
    store = SegmentStore(directory, create=True)
    landed_days = set()
    for index, (source, day, rows) in enumerate(landings):
        if index == reopen_at:
            store.close()
            store = SegmentStore(directory)
        store.append_batch(source, day, builder.build(rows))
        landed_days.add(day)
        if compact_every and len(landed_days) % compact_every == 0:
            store.compact(fanout=fanout)
    store.compact(fanout=fanout)
    return store


def descending(landings):
    """*landings* in descending day order, landing order kept within a
    day."""
    return sorted(landings, key=lambda landing: -landing[1])


def day_exact(store):
    return [
        (
            key,
            store.row_count(*key),
            store.batch(*key).rows(),
            list(store.rows(*key)),
        )
        for key in store.partitions()
    ]


def whole_history(store):
    """Detection per scope, the sketch plane and the replayed engine."""
    catalog = SignatureCatalog.paper_table2()
    landed = {source for source, _ in store.partitions()}
    digests = []
    for scope in sorted(set(SCOPE_OF_SOURCE.values())):
        sources = sorted(
            source for source in landed if SCOPE_OF_SOURCE[source] == scope
        )
        digests.append(detect_store(store, sources, catalog, HORIZON))
    digests.append(sketch_from_store(store, catalog=catalog).state_digest())
    engine = StreamEngine(HORIZON)
    engine.ingest_feed(StoreReplayFeed(store).days(), skip_gaps=True)
    digests.append(state_digest(engine))
    return digests


@given(history=histories())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_compacted_store_reads_like_the_daily_store(history):
    landings, fanout, compact_every, reopen_at = history
    assume(landings)
    with tempfile.TemporaryDirectory() as reference_dir, \
            tempfile.TemporaryDirectory() as daily_dir, \
            tempfile.TemporaryDirectory() as compact_dir:
        with land(reference_dir, descending(landings)) as reference, land(
            daily_dir, landings
        ) as daily, land_compacted(
            compact_dir, landings, fanout, compact_every, reopen_at
        ) as compacted:
            expected_days = day_exact(reference)
            expected_history = whole_history(reference)
            for store in (daily, compacted):
                assert store.partitions() == reference.partitions()
                assert day_exact(store) == expected_days
                assert whole_history(store) == expected_history


def reference_sketch(store, config):
    """The row-by-row reference fold of every ``store.batch(source,
    day)``, in sorted partition order."""
    catalog = SignatureCatalog.paper_table2()
    plane = SketchPlane(
        config,
        scope_names=SCOPE_OF_SOURCE.values(),
        provider_slds=provider_slds_of(catalog),
    )
    matcher = BatchMatcher(catalog)
    for source, day in sorted(store.partitions()):
        batch = store.batch(source, day)
        reference_fold.fold_batch(
            plane, SCOPE_OF_SOURCE[source], day, batch,
            matcher.match_rows(batch),
        )
    return plane


def dump(plane):
    return json.dumps(plane.to_dict(), sort_keys=True)


def runs_by_day(store):
    """Every ``(source, day)``'s rows as ``source_runs`` holds them, in
    batch order, as the daily rows they state."""
    found = {}
    for source in sorted({source for source, _ in store.partitions()}):
        days = [day for held, day in store.partitions() if held == source]
        for batch, ends in store.source_runs(source, days):
            for row, end in enumerate(ends):
                for day in range(batch.days[row], end):
                    found.setdefault((source, day), []).append(
                        dataclasses.replace(batch.row(row), day=day)
                    )
    return found


def daily_rows(store):
    return {
        key: rows for key in store.partitions()
        if (rows := store.batch(*key).rows())
    }


@given(history=histories())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sketch_rebuild_folds_like_the_row_by_row_reference(history):
    """Both space-saving summaries can evict under ``EVICTING``, so an
    update out of the daily rows' order shows in the bytes."""
    landings, fanout, compact_every, reopen_at = history
    assume(landings)
    with tempfile.TemporaryDirectory() as daily_dir, \
            tempfile.TemporaryDirectory() as compact_dir:
        with land(daily_dir, landings) as daily, land_compacted(
            compact_dir, landings, fanout, compact_every, reopen_at
        ) as compacted:
            expected = dump(reference_sketch(daily, EVICTING))
            for store in (daily, compacted):
                assert runs_by_day(store) == daily_rows(store)
                assert dump(
                    sketch_from_store(store, config=EVICTING)
                ) == expected


def runs_store(directory):
    """Six days of com and nl, one com domain changing its reference on
    day 3, and a rank-ordered alexa source, compacted: com and nl hold
    one run fragment each, alexa one-day fragments."""
    with SegmentStore(directory, create=True) as store:
        for day in range(6):
            store.append("com", day, [
                observation(f"d{index}", "com", day,
                            4 if index == 0 and day >= 3 else index)
                for index in range(4)
            ])
            store.append("nl", day, [
                observation(f"d{index}", "nl", day, 1) for index in range(2)
            ])
            store.append("alexa", day, [
                observation(f"d{index}", "com", day, 1)
                for index in (2, 0, 1)
            ])
        store.compact(fanout=4)


def run_fragment(directory, source):
    """``(segment path, the source's run fragment)`` of *directory*."""
    with SegmentStore(directory) as store:
        (meta,) = store.manifest.segments
        path = os.path.join(directory, meta.file)
    with SegmentReader(path) as reader:
        (ref,) = [
            ref for ref in reader.partitions
            if ref.source == source and ref.end > ref.day + 1
        ]
    return path, ref


class TestRunFragments:
    def test_compaction_coalesces_what_stays_exact(self, tmp_path):
        runs_store(str(tmp_path))
        with SegmentStore(str(tmp_path)) as store:
            (meta,) = store.manifest.segments
            with SegmentReader(os.path.join(str(tmp_path), meta.file)) as (
                reader
            ):
                spans = sorted(
                    (ref.source, ref.day, ref.end, ref.rows)
                    for ref in reader.partitions
                )
            # d0.com changes once: 4 domains, 5 runs. Alexa's rank
            # order keeps every day a one-day fragment.
            assert spans == sorted(
                [("com", 0, 6, 5), ("nl", 0, 6, 2)]
                + [("alexa", day, day + 1, 3) for day in range(6)]
            )
            assert store.stored_rows("com") == 5
            assert store.total_stats("com").rows == 24
            assert [
                row.domain for row in store.rows("alexa", 4)
            ] == ["d2.com", "d0.com", "d1.com"]

    def test_sorted_history_compacts_into_runs(self, tmp_path):
        """Four unchanged days of two sources, one segment per
        partition, compact at fanout 2 into one run per domain and
        read back day for day."""
        days = {
            (source, day): [
                observation(f"d{index}", source, day, 1)
                for index in range(count)
            ]
            for day in range(4)
            for source, count in (("com", 5), ("nl", 2))
        }
        with SegmentStore(str(tmp_path), create=True) as store:
            for key, rows in sorted(days.items()):
                store.append(*key, rows)
            assert store.compact(fanout=2)
        with SegmentStore(str(tmp_path)) as store:
            assert {
                key: list(store.rows(*key)) for key in store.partitions()
            } == days
            assert [store.stored_rows(s) for s in ("com", "nl")] == [5, 2]

    def test_source_runs_place_fragments_in_manifest_order(self, tmp_path):
        """Day 2 is held by an older segment's one-day fragment and by a
        newer segment's run fragment that starts on day 1, so the older
        fragment is met later but its rows come first on day 2."""

        def rows(day, names, profile=0):
            return [observation(name, "com", day, profile) for name in names]

        with SegmentStore(str(tmp_path), create=True) as store:
            store.append("com", 0, rows(0, ["d0", "d1"]))
            store.append("com", 1, rows(1, ["d0", "d1"]))
            store.append("com", 1, rows(1, ["late0"], 1))
            store.append("com", 2, rows(2, ["d0", "d1"]))
            store.compact(fanout=3)
            store.append("com", 1, rows(1, ["late1"], 1))
            store.append("com", 2, rows(2, ["late1"], 1))
            store.append("com", 3, rows(3, ["d0", "d1"]))
            store.compact(fanout=3)
            older, newer = store.manifest.segments
            with SegmentReader(str(tmp_path / newer.file)) as reader:
                assert [(ref.day, ref.end) for ref in reader.partitions] == [
                    (1, 4)
                ]
            assert [row.domain for row in store.rows("com", 2)] == [
                "d0.com", "d1.com", "late1.com"
            ]
            assert runs_by_day(store) == daily_rows(store)

    def test_day_reads_keep_one_decoded_fragment_per_source(self, tmp_path):
        """Reads without a shared builder decode the run fragment per
        call, but keep only the latest decode, not one per day."""
        runs_store(str(tmp_path))
        with SegmentStore(str(tmp_path)) as store:
            for day in range(6):
                assert len(store.batch("com", day)) == 4
            assert [len(entries) for entries in (
                store._decoded.values()
            )] == [1]

    def test_stats_charge_each_day_a_share(self, tmp_path):
        runs_store(str(tmp_path))
        path, ref = run_fragment(str(tmp_path), "com")
        with SegmentStore(str(tmp_path)) as store:
            shares = [
                store.partition_stats("com", day).encoded_bytes
                for day in range(6)
            ]
            assert sum(shares) == ref.page_bytes
            assert max(shares) - min(shares) <= 1
            assert store.total_stats().encoded_bytes == os.path.getsize(
                path
            )

    def test_bitflipped_run_page_skips_each_day_once(self, tmp_path):
        directory = str(tmp_path)
        runs_store(directory)
        path, ref = run_fragment(directory, "com")
        page = ref.columns["ns_names"]
        with open(path, "r+b") as handle:
            handle.seek(page.offset + page.length // 2)
            byte = handle.read(1)[0]
            handle.seek(page.offset + page.length // 2)
            handle.write(bytes([byte ^ 0x10]))
        expected = [("com", day) for day in range(6)]
        catalog = SignatureCatalog.paper_table2()

        def skipped(store):
            return [(source, day) for source, day, _ in (
                store.skipped_partitions
            )]

        with SegmentStore(directory, on_error="skip") as lenient:
            for key in lenient.partitions():
                lenient.batch(*key)
            assert skipped(lenient) == expected
            assert len(lenient.batch("nl", 2)) == 2
        with SegmentStore(directory, on_error="skip") as lenient:
            list(StoreReplayFeed(lenient).days())
            assert skipped(lenient) == expected
        with SegmentStore(directory, on_error="skip") as lenient:
            detect_store(lenient, ("com",), catalog, HORIZON)
            assert skipped(lenient) == expected
        with SegmentStore(directory, on_error="skip") as lenient:
            sketch_from_store(lenient)
            assert skipped(lenient) == expected
        with SegmentStore(directory) as strict:
            with pytest.raises(StorageError):
                strict.batch("com", 0)
