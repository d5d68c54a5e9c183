"""One partition kernel, every door.

A landed partition is matched by :class:`BatchMatcher` and folded by
``StreamEngine._apply`` / ``SketchPlane.fold_runs`` whatever produced
it: the engine folds it as one-day runs, the sketch rebuild folds each
source's stored runs once. These tests land the same few days of
``tiny_world`` once and walk
every way in — whole-history ``process_batch``, an engine fed from the
store, from the segment-native replay feed, from row-built partitions
(the shape fault shims hand over) and from partitions a checkpoint
decoded, and the sketch rebuild — asserting one
``DetectionResult`` and one digest. Detection folds through one
accumulator that takes a domain's days in any order, so a store landed
or read backwards detects the same.
"""

import pytest

from repro.batch.batch import BatchBuilder, ObservationBatch
from repro.core.detection import SegmentDetector
from repro.core.pipeline import AdoptionStudy
from repro.core.references import BatchMatcher, SignatureCatalog
from repro.measurement.scheduler import (
    ALL_SOURCES,
    GTLD_SOURCES,
    SCOPE_OF_SOURCE,
    DayPartition,
)
from repro.measurement.snapshot import DomainObservation
from repro.sketch import SketchConfig
from repro.sketch.build import sketch_from_store
from repro.store.store import SegmentStore
from repro.stream.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.stream.engine import StreamEngine
from repro.stream.feed import SegmentReplayFeed, StoreReplayFeed
from repro.world.timeline import CCTLD_START_DAY

#: Four days on which all five sources land.
DAYS = range(CCTLD_START_DAY, CCTLD_START_DAY + 4)


@pytest.fixture(scope="module")
def segments(tiny_world):
    return AdoptionStudy(tiny_world).collect_segments()


@pytest.fixture(scope="module")
def landed(tiny_world, segments, tmp_path_factory):
    """The days' partitions, landed from the segment-native feed."""
    store = SegmentStore(
        str(tmp_path_factory.mktemp("landed")), create=True
    )
    feed = SegmentReplayFeed(tiny_world, segments)
    store.append_partitions(
        (part.source, part.day, part.observations)
        for part in feed.days(start=DAYS.start, end=DAYS.stop)
    )
    yield store
    store.close()


def _row_built(part):
    return DayPartition(
        source=part.source,
        day=part.day,
        zone_size=part.zone_size,
        observations=list(part.observations),
    )


def _partitions(door, tiny_world, segments, landed):
    if door == "store":
        return StoreReplayFeed(landed).days()
    replay = SegmentReplayFeed(tiny_world, segments).days(
        start=DAYS.start, end=DAYS.stop
    )
    if door == "segments":
        return replay
    assert door == "rows"
    return (_row_built(part) for part in replay)


def _engine(tiny_world, partitions):
    engine = StreamEngine(tiny_world.horizon, sketches=SketchConfig())
    assert engine.ingest_feed(partitions) == len(DAYS) * len(ALL_SOURCES)
    return engine


def _engine_through_checkpoint(tiny_world, partitions, path):
    """Every partition after the first day waits out of order in the
    quarantine buffer, goes through a checkpoint, and is applied —
    decoded — by the restored engine once the first day lands."""
    partitions = list(partitions)
    windows = {source: (DAYS.start, DAYS.stop) for source in ALL_SOURCES}
    engine = StreamEngine(
        tiny_world.horizon, windows=windows, sketches=SketchConfig()
    )
    late = [part for part in partitions if part.day > DAYS.start]
    assert engine.ingest_feed(late) == 0
    save_checkpoint(engine, path)
    restored = load_checkpoint(path)
    first = [part for part in partitions if part.day == DAYS.start]
    assert restored.ingest_feed(first) == len(partitions)
    return restored


@pytest.fixture(scope="module")
def reference_engine(tiny_world, segments, landed):
    return _engine(
        tiny_world, _partitions("store", tiny_world, segments, landed)
    )


class TestEveryDoor:
    @pytest.mark.parametrize("door", ["segments", "rows"])
    def test_engines_reach_one_state(
        self, door, tiny_world, segments, landed, reference_engine
    ):
        engine = _engine(
            tiny_world, _partitions(door, tiny_world, segments, landed)
        )
        assert state_digest(engine) == state_digest(reference_engine)

    def test_checkpoint_decoded_partitions_reach_it_too(
        self, tiny_world, segments, landed, reference_engine, tmp_path
    ):
        engine = _engine_through_checkpoint(
            tiny_world,
            _partitions("segments", tiny_world, segments, landed),
            str(tmp_path / "buffered.ckpt"),
        )
        # Same scopes, cursors' zone sizes and sketch plane; the engines
        # differ only in the windows one of them was configured with.
        ours, reference = engine.to_dict(), reference_engine.to_dict()
        assert ours.pop("windows") != reference.pop("windows")
        assert ours == reference

    @pytest.mark.parametrize("scope", ["gtld", "nl", "alexa"])
    def test_process_batch_on_the_concat_equals_the_engine(
        self, scope, tiny_world, landed, reference_engine
    ):
        detector = SegmentDetector(
            SignatureCatalog.paper_table2(), tiny_world.horizon
        )
        detector.process_batch(
            ObservationBatch.concat(
                [
                    landed.batch(source, day)
                    for source, day in landed.partitions()
                    if SCOPE_OF_SOURCE[source] == scope
                ]
            )
        )
        result = detector.result()
        assert result.domains_seen > 0
        assert result == reference_engine.detection(scope)

    def test_store_rebuild_equals_the_engine_plane(
        self, landed, reference_engine
    ):
        assert (
            sketch_from_store(landed).state_digest()
            == reference_engine.sketches.state_digest()
        )


class TestPartitionAtATime:
    def test_store_landed_or_read_backwards_detects_the_same(
        self, tiny_world, landed, tmp_path
    ):
        study = AdoptionStudy(tiny_world)
        expected = study.detect_from_store(landed, GTLD_SOURCES)
        assert expected.domains_seen > 0 and expected.intervals
        directory = str(tmp_path / "reversed")
        with SegmentStore(directory, create=True) as store:
            store.append_partitions(
                (source, day, list(landed.rows(source, day)))
                for source, day in reversed(landed.partitions())
            )
            assert study.detect_from_store(store, GTLD_SOURCES) == expected
            detector = SegmentDetector(study.catalog, tiny_world.horizon)
            backwards = store.manifest.partitions(sources=GTLD_SOURCES)[::-1]
            for batch, ends in store.spans(backwards, BatchBuilder()):
                detector.process_runs(batch, ends)
            assert detector.result() == expected
            assert store.skipped_partitions == []


class TestSegmentNativeFeed:
    def test_partitions_equal_segment_at_row_for_row(
        self, tiny_world, segments
    ):
        """The batch the feed builds from interned segment columns is
        the boxed expansion ``segment.at(day)``, row for row, in order —
        out-of-order days and the Alexa ranking included."""
        feed = SegmentReplayFeed(tiny_world, segments)

        def expected(source, day):
            if source == "alexa":
                names = tiny_world.alexa_list(day)
            else:
                names = [
                    name
                    for name in segments
                    if tiny_world.domains[name].tld == source
                ]
            return [
                segment.at(day)
                for name in names
                for segment in segments.get(name, ())
                if segment.start <= day < segment.end
            ]

        last = tiny_world.horizon - 1
        for day in (DAYS.start, last, DAYS.start + 1, 0, DAYS.start):
            for source in feed.sources:
                start, end = feed.window(source)
                if not start <= day < end:
                    continue
                part = feed.partition(source, day)
                rows = expected(source, day)
                assert rows, (source, day)
                assert list(part.observations) == rows
                assert part.zone_size == len(part) == len(rows)


class CountingCatalog:
    """Counts ``match`` calls on the paper catalog."""

    def __init__(self):
        self._inner = SignatureCatalog.paper_table2()
        self.calls = 0

    def match(self, observation):
        self.calls += 1
        return self._inner.match(observation)


class TestMatcherMemo:
    def test_one_match_per_text_signature_across_pools(self):
        """Pool ids are builder-local; the memo is keyed by text, so a
        second batch on fresh pools costs no catalog call."""

        def row(domain, ns, asn, day=0):
            return DomainObservation(
                day=day,
                domain=domain,
                tld="com",
                ns_names=(ns,),
                apex_addrs=("192.0.2.1",),
                asns=frozenset({asn}),
            )

        first = ObservationBatch.from_rows(
            [
                row("a.com", "ns1.cloudflare.com.", 13335),
                row("b.com", "ns1.cloudflare.com.", 13335),
                row("c.com", "ns1.hostco.net.", 64500),
            ]
        )
        # Fresh pools, interned in another order: different ids.
        second = ObservationBatch.from_rows(
            [
                row("d.com", "ns1.hostco.net.", 64500, day=1),
                row("e.com", "ns1.cloudflare.com.", 13335, day=1),
                row("f.com", "ns1.cloudflare.com.", 64500, day=1),
            ]
        )
        assert first.names is not second.names
        assert first.match_key(0) != second.match_key(1)
        catalog = CountingCatalog()
        matcher = BatchMatcher(catalog)
        matched = matcher.match_rows(first)
        assert catalog.calls == 2
        assert matched[0] is matched[1] and "CloudFlare" in matched[0]
        assert matched[2] == {}
        matched = matcher.match_rows(second)
        # Only (cloudflare NS, AS 64500) is a new signature.
        assert catalog.calls == 3
        assert [sorted(m) for m in matched] == [
            [], ["CloudFlare"], ["CloudFlare"],
        ]
