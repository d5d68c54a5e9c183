"""The backend byte-identity matrix (acceptance for the backend layer).

Three fixed worlds × every shipped backend — serial, and the local pool
at one and two workers — must produce:

* byte-identical canonical study exports through ``AdoptionStudy.run``,
  and
* byte-identical stream-engine state digests when the run's segments
  replay through :class:`StreamEngine`,

all pinned against the serial baselines. A worker lost mid-run is
``tests/faults/test_executor_retry.py``'s ``TestStudyWorkerDeath``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.parallel.backend import LocalPoolBackend, SerialBackend
from repro.reporting.export import study_to_dict
from repro.stream.checkpoint import state_digest
from repro.stream.engine import StreamEngine
from repro.stream.feed import SegmentReplayFeed

SCALE = 400000
SEEDS = (5, 17, 31)

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
def baseline(request):
    """Serial ground truth per seed: the world and its digests."""
    from repro.world.scenario import ScenarioConfig, build_paper_world

    world = build_paper_world(
        ScenarioConfig(scale=SCALE, seed=request.param)
    )
    results = AdoptionStudy(world).run()
    assert any(results.detection_gtld.any_use_combined)
    truth = {
        "export": _canonical(results),
        "stream": _stream_digest(world, results.segments),
    }
    return world, truth


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_backend_matrix_byte_identity(baseline, variant):
    """Exports and stream digests across the whole matrix."""
    world, truth = baseline
    run = AdoptionStudy(world).run(
        backend=VARIANTS[variant]()
    )
    assert _canonical(run) == truth["export"]
    assert _stream_digest(world, run.segments) == truth["stream"]
