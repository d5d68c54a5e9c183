"""The backend byte-identity matrix (acceptance for the backend layer).

Three fixed worlds × every shipped backend — serial, and the local pool
at one and two workers — must produce:

* byte-identical canonical study exports through ``AdoptionStudy.run``,
* byte-identical stream-engine state digests when the run's segments
  replay through :class:`StreamEngine`,
* byte-identical sketch-plane state digests through the sharded store
  rebuild, and
* equal whole-history detection through store manifest slices,

all pinned against the serial baselines. The slice tests also prove
detection runs partition-by-partition from disk: a slice yields one
partition's kept rows at a time, never the whole-history batch. A
worker lost mid-pass over a landed store is
``tests/faults/test_executor_retry.py``'s ``TestStoreBackedWorkerDeath``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.parallel.backend import LocalPoolBackend, SerialBackend
from repro.reporting.export import study_to_dict
from repro.sketch.build import sketch_from_store
from repro.store import SegmentStore
from repro.stream.checkpoint import state_digest
from repro.stream.engine import StreamEngine
from repro.stream.feed import SegmentReplayFeed

SCALE = 400000
SEEDS = (5, 17, 31)
SOURCES = ("com", "net", "org")

VARIANTS = {
    "serial": lambda: SerialBackend(),
    "pool-w1": lambda: LocalPoolBackend(workers=1),
    "pool-w2": lambda: LocalPoolBackend(workers=2),
}


def _canonical(results) -> str:
    return json.dumps(study_to_dict(results), sort_keys=True)


def _stream_digest(world, segments) -> str:
    feed = SegmentReplayFeed(world, segments)
    engine = StreamEngine(world.horizon, windows=feed.windows())
    engine.ingest_feed(feed.days())
    return state_digest(engine)


@pytest.fixture(scope="module", params=SEEDS)
def baseline(request, tmp_path_factory):
    """Serial ground truth per seed: study, landed store, digests."""
    from repro.world.scenario import ScenarioConfig, build_paper_world

    world = build_paper_world(
        ScenarioConfig(scale=SCALE, seed=request.param)
    )
    study = AdoptionStudy(world)
    results = study.run()
    assert any(results.detection_gtld.any_use_combined)
    directory = tmp_path_factory.mktemp(f"backends-{request.param}")
    store = SegmentStore(str(directory), create=True)
    pending = []
    for part in SegmentReplayFeed(world, results.segments).days():
        pending.append((part.source, part.day, list(part.observations)))
        if len(pending) >= 250:
            store.append_partitions(pending)
            pending = []
    store.append_partitions(pending)
    truth = {
        "export": _canonical(results),
        "stream": _stream_digest(world, results.segments),
        "sketch": sketch_from_store(
            store, sources=SOURCES
        ).state_digest(),
    }
    yield world, study, results, store, truth
    store.close()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_backend_matrix_byte_identity(baseline, variant):
    """Exports and stream/sketch digests across the whole matrix."""
    world, _, _, store, truth = baseline
    run = AdoptionStudy(world).run(
        backend=VARIANTS[variant]()
    )
    assert _canonical(run) == truth["export"]
    assert _stream_digest(world, run.segments) == truth["stream"]
    sharded = sketch_from_store(
        store, sources=SOURCES, backend=VARIANTS[variant]()
    )
    assert sharded.state_digest() == truth["sketch"]


#: Slice detection re-decodes the partition list once per slice, so
#: the variant pins shard_count explicitly to keep the pass cheap.
DETECT_VARIANTS = {
    "serial": lambda: SerialBackend(shard_count=2),
}


@pytest.mark.parametrize("variant", sorted(DETECT_VARIANTS))
def test_detect_from_slices_equal(baseline, variant):
    _, study, results, store, _ = baseline
    detected = study.detect_from_store(
        store, SOURCES, backend=DETECT_VARIANTS[variant]()
    )
    assert detected == results.detection_gtld


class TestManifestSlices:
    def test_domain_slices_cover_disjointly(self, baseline):
        _, _, _, store, _ = baseline
        slices = store.manifest_slices(2, sources=SOURCES)
        assert [s.domain_shard for s in slices] == [(0, 2), (1, 2)]
        partitions = slices[0].partitions
        assert partitions == tuple(sorted(partitions))
        partition_rows = [
            len(store.batch(source, day)) for source, day in partitions
        ]
        sizes = []
        for manifest_slice in slices:
            assert manifest_slice.partitions == partitions
            with manifest_slice.open() as sliced:
                kept = [
                    len(batch) for batch, _ in manifest_slice.batches(sliced)
                ]
            # One partition's kept rows at a time.
            assert max(kept) <= max(partition_rows)
            sizes.append(sum(kept))
        total = sum(partition_rows)
        # Disjoint hash shards that sum to the full history.
        assert sum(sizes) == total
        assert all(0 < size < total for size in sizes)

    def test_rejects_bad_split(self, baseline):
        _, _, _, store, _ = baseline
        with pytest.raises(ValueError):
            store.manifest_slices(0)
