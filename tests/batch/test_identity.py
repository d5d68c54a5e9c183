"""Cross-mode byte-identity of the batch-first pipeline, three seeds.

The columnar plane is only allowed to change *how* data moves, never
*what* comes out. For three fixed worlds this suite pins the canonical
JSON export (the bytes ``repro study --output`` writes) across serial
and ``workers=2`` runs, and pins the streamed engine — fed columnar
partitions replayed from a landed :class:`ColumnStore`, including a
kill/checkpoint/resume cycle — plus whole-history
:meth:`AdoptionStudy.detect_from_store` against the serial detection
results.
"""

import json
import os

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.measurement.storage import ColumnStore
from repro.parallel.backend import resolve_backend
from repro.reporting.export import study_to_dict
from repro.stream.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.stream.engine import StreamEngine
from repro.stream.feed import SegmentReplayFeed, StoreReplayFeed

SCALE = 300000
SEEDS = (3, 7, 11)
#: Kill/resume split point: mid-study, with every scope active.
KILL_DAY = 400


@pytest.fixture(scope="module", params=SEEDS)
def seeded(request):
    """(world, study, results, landed store) for one fixed seed."""
    from repro.world.scenario import ScenarioConfig, build_paper_world

    world = build_paper_world(
        ScenarioConfig(scale=SCALE, seed=request.param)
    )
    study = AdoptionStudy(world)
    results = study.run()
    assert any(results.detection_gtld.any_use_combined)
    # Land the daily partitions the study's segments compress — the
    # store then holds each domain's complete history per source.
    store = ColumnStore()
    feed = SegmentReplayFeed(world, results.segments)
    for part in feed.days():
        store.append(part.source, part.day, list(part.observations))
    return world, study, results, store


def _canonical(results) -> str:
    return json.dumps(study_to_dict(results), sort_keys=True)


class TestThreeSeedIdentity:
    def test_workers2_export_byte_identical(self, seeded):
        world, _, results, _ = seeded
        parallel = AdoptionStudy(world).run(
            backend=resolve_backend(workers=2, shard_count=4)
        )
        assert _canonical(parallel) == _canonical(results)

    def test_streamed_batches_match_serial_detection(self, seeded):
        world, _, results, store = seeded
        feed = SegmentReplayFeed(world, results.segments)
        engine = StreamEngine(world.horizon, windows=feed.windows())
        engine.ingest_feed(StoreReplayFeed(store).days())
        assert engine.detection("gtld") == results.detection_gtld
        assert (
            engine.detection("alexa").any_use_combined
            == results.detection_alexa.any_use_combined
        )

    def test_kill_resume_streams_to_identical_state(self, seeded, tmp_path):
        world, _, results, store = seeded
        windows = SegmentReplayFeed(world, results.segments).windows()

        straight = StreamEngine(world.horizon, windows=windows)
        straight.ingest_feed(StoreReplayFeed(store).days())

        interrupted = StreamEngine(world.horizon, windows=windows)
        interrupted.ingest_feed(StoreReplayFeed(store).days(end=KILL_DAY))
        path = os.path.join(str(tmp_path), "stream.ckpt")
        save_checkpoint(interrupted, path)
        del interrupted  # the "kill": only the checkpoint survives

        resumed = load_checkpoint(path)
        start = min(
            resumed.resume_day(source) for source in resumed.sources
        )
        assert start == KILL_DAY
        resumed.ingest_feed(StoreReplayFeed(store).days(start=start))

        assert state_digest(resumed) == state_digest(straight)
        assert resumed.detection("gtld") == results.detection_gtld

    def test_detect_from_store_matches_serial_detection(self, seeded):
        _, study, results, store = seeded
        detected = study.detect_from_store(store, ("com", "net", "org"))
        assert detected == results.detection_gtld
