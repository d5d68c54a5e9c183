"""Segment-store identity: mmap reads change nothing downstream.

The on-disk :class:`SegmentStore` is a storage engine swap — same
columns, same batches, same detection. For three fixed worlds this
suite lands the study's daily partitions into both stores and pins
whole-history :meth:`AdoptionStudy.detect_from_store`, the streamed
engine's state digest, and the canonical JSON export across the
in-memory and on-disk (fresh and compacted) paths.
"""

import json

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.measurement.storage import ColumnStore
from repro.parallel.backend import resolve_backend
from repro.reporting.export import study_to_dict
from repro.store import SegmentStore
from repro.stream.checkpoint import state_digest
from repro.stream.engine import StreamEngine
from repro.stream.feed import SegmentReplayFeed, StoreReplayFeed

SCALE = 300000
SEEDS = (3, 7, 11)


@pytest.fixture(scope="module", params=SEEDS)
def seeded(request, tmp_path_factory):
    """(world, study, results, column store, segment store) per seed."""
    from repro.world.scenario import ScenarioConfig, build_paper_world

    world = build_paper_world(
        ScenarioConfig(scale=SCALE, seed=request.param)
    )
    study = AdoptionStudy(world)
    results = study.run()
    assert any(results.detection_gtld.any_use_combined)
    directory = tmp_path_factory.mktemp(f"store-{request.param}")
    column_store = ColumnStore()
    segment_store = SegmentStore(str(directory), create=True)
    feed = SegmentReplayFeed(world, results.segments)
    pending = []
    for part in feed.days():
        rows = list(part.observations)
        column_store.append(part.source, part.day, rows)
        pending.append((part.source, part.day, rows))
        if len(pending) >= 250:  # bulk-land: several multi-part segments
            segment_store.append_partitions(pending)
            pending = []
    segment_store.append_partitions(pending)
    yield world, study, results, column_store, segment_store
    segment_store.close()


def _canonical(results) -> str:
    return json.dumps(study_to_dict(results), sort_keys=True)


class TestSegmentStoreIdentity:
    def test_detect_from_store_matches_column_store(self, seeded):
        _, study, results, column_store, segment_store = seeded
        sources = ("com", "net", "org")
        from_disk = study.detect_from_store(segment_store, sources)
        assert from_disk == study.detect_from_store(column_store, sources)
        assert from_disk == results.detection_gtld

    def test_streamed_engine_state_digest_identical(self, seeded):
        world, _, results, column_store, segment_store = seeded
        windows = SegmentReplayFeed(world, results.segments).windows()

        from_memory = StreamEngine(world.horizon, windows=windows)
        from_memory.ingest_feed(StoreReplayFeed(column_store).days())
        from_disk = StreamEngine(world.horizon, windows=windows)
        from_disk.ingest_feed(StoreReplayFeed(segment_store).days())

        assert state_digest(from_disk) == state_digest(from_memory)
        assert from_disk.detection("gtld") == results.detection_gtld

    def test_workers2_export_byte_identical(self, seeded):
        world, _, results, _, _ = seeded
        parallel = AdoptionStudy(world).run(
            backend=resolve_backend(workers=2, shard_count=4)
        )
        assert _canonical(parallel) == _canonical(results)

    def test_compacted_store_detection_identical(
        self, seeded, tmp_path_factory
    ):
        world, study, results, _, segment_store = seeded
        directory = tmp_path_factory.mktemp("compacted")
        by_day = {}
        for source, day in segment_store.partitions():
            by_day.setdefault(day, []).append(source)
        with SegmentStore(str(directory), create=True) as compacted:
            # One commit per day, not per partition: every commit
            # rewrites the whole manifest. Still hundreds of gen-0
            # segments for ``compact`` to merge.
            for day, sources in sorted(by_day.items()):
                compacted.append_partitions(
                    (source, day, list(segment_store.rows(source, day)))
                    for source in sources
                )
            assert compacted.compact(fanout=8)
            detected = study.detect_from_store(
                compacted, ("com", "net", "org")
            )
        assert detected == results.detection_gtld
