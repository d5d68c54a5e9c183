"""Cross-mode byte-identity of the sketch plane, three seeds.

The plane is a commutative fold over observation facts, so every way of
producing it must land on the same bytes: the live engine maintaining
it row by row, the serial store rebuild, the ``workers=2`` sharded
rebuild merged shard by shard, and an engine killed mid-history and
resumed from its checkpoint. ``SketchPlane.state_digest`` hashes the
canonical serialized form, so digest equality is byte equality.
"""

from __future__ import annotations

import os

from repro.parallel.backend import resolve_backend
from repro.sketch import SketchConfig
from repro.sketch.build import (
    sketch_from_store,
    sketch_from_store_sharded,
)
from repro.stream.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.stream.engine import StreamEngine
from repro.stream.feed import SegmentReplayFeed, StoreReplayFeed

from tests.sketch.conftest import KILL_DAY


def _engine_plane(world, results, store):
    """A live engine fed the replayed history, plane enabled."""
    windows = SegmentReplayFeed(world, results.segments).windows()
    engine = StreamEngine(
        world.horizon, windows=windows, sketches=SketchConfig()
    )
    engine.ingest_feed(StoreReplayFeed(store).days())
    return engine


class TestThreeSeedSketchIdentity:
    def test_engine_matches_serial_store_rebuild(self, sketch_seeded):
        world, _, results, store = sketch_seeded
        engine = _engine_plane(world, results, store)
        rebuilt = sketch_from_store(store)
        assert engine.sketches is not None
        assert (
            engine.sketches.state_digest() == rebuilt.state_digest()
        )

    def test_sharded_rebuild_is_byte_identical(self, sketch_seeded):
        _, _, _, store = sketch_seeded
        serial = sketch_from_store(store)
        sharded = sketch_from_store_sharded(
            store, backend=resolve_backend(workers=2, shard_count=4)
        )
        assert sharded.state_digest() == serial.state_digest()
        assert sharded.to_dict() == serial.to_dict()

    def test_kill_resume_plane_is_byte_identical(
        self, sketch_seeded, tmp_path
    ):
        world, _, results, store = sketch_seeded
        windows = SegmentReplayFeed(world, results.segments).windows()

        straight = StreamEngine(
            world.horizon, windows=windows, sketches=SketchConfig()
        )
        straight.ingest_feed(StoreReplayFeed(store).days())

        interrupted = StreamEngine(
            world.horizon, windows=windows, sketches=SketchConfig()
        )
        interrupted.ingest_feed(
            StoreReplayFeed(store).days(end=KILL_DAY)
        )
        path = os.path.join(str(tmp_path), "sketch.ckpt")
        save_checkpoint(interrupted, path)
        del interrupted  # the "kill": only the checkpoint survives

        resumed = load_checkpoint(path)
        assert resumed.sketches is not None
        start = min(
            resumed.resume_day(source) for source in resumed.sources
        )
        assert start == KILL_DAY
        resumed.ingest_feed(StoreReplayFeed(store).days(start=start))

        # The whole engine — counters AND plane — lands on one state.
        assert state_digest(resumed) == state_digest(straight)
        assert straight.sketches is not None
        assert (
            resumed.sketches.state_digest()
            == straight.sketches.state_digest()
        )

    def test_space_saving_streams_stay_exact(self, sketch_seeded):
        """In-world key universes never overflow the summaries, so the
        rankings are exact — the regime the byte-identity relies on."""
        _, _, _, store = sketch_seeded
        plane = sketch_from_store(store)
        for name in sorted(plane.scopes):
            scope = plane.scope(name)
            assert scope.provider_topk.exact
            assert scope.third_party.exact
