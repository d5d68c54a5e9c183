"""The conformance matrix's baseline and the digests it is pinned by.

One seed's **baseline** is the serial, in-order, in-process reading of
the paper world:

* ``AdoptionStudy.run()`` gives the canonical export and the gTLD
  detection;
* the study's daily partitions, landed in a fresh :class:`SegmentStore`
  and replayed in landing order through a sketch-enabled
  :class:`StreamEngine`, give the engine state (scopes, cursors and
  plane) and the sketch plane;
* the three MapReduce jobs over ten days of gTLD partitions give their
  outputs and map-side counters.

Each is reduced to a SHA-256 digest. ``tests/fixtures/golden/
conformance.json`` pins them per seed (``tests/fixtures/golden/regen.py``
writes it). ``CELLS`` are the other ways to the same numbers;
:func:`check_cell` runs one on a seed's shared :class:`Conformance`
(once per session, however many test ids check it) and holds every
digest it produces to the pin. ``tests/integration/test_conformance.py``
is the matrix that checks them all.

Run as a module to print one seed's baseline digests as JSON; the
hash-seed cells run exactly this in a child process::

    PYTHONPATH=src python -m tests.conformance 7
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile
from dataclasses import asdict
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.batch.batch import BatchBuilder, ObservationBatch
from repro.core.detection import DetectionResult, SegmentDetector
from repro.core.pipeline import AdoptionStudy, StudyResults
from repro.core.references import SignatureCatalog
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.jobs import (
    daily_detection_job,
    ns_sld_frequency_job,
    reference_count_job,
)
from repro.measurement.scheduler import GTLD_SOURCES
from repro.reporting.export import study_to_dict
from repro.sketch import SketchConfig, SketchPlane
from repro.sketch.build import sketch_from_store
from repro.store import SegmentStore
from repro.stream.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.stream.engine import StreamEngine
from repro.stream.feed import SegmentReplayFeed, StoreReplayFeed
from repro.world.scenario import ScenarioConfig, build_paper_world
from repro.world.world import World

SCALE = 300000
SEEDS = (3, 7, 11)
#: Kill/resume split point: mid-study, with every scope active.
KILL_DAY = 400
#: Days landed per ``append_partitions`` call. Every commit rewrites the
#: whole manifest, so one commit per day would be quadratic.
DAYS_PER_COMMIT = 10
MAPREDUCE_DAYS = range(30, 40)

PINNED_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "fixtures", "golden", "conformance.json",
)

_CATALOG = SignatureCatalog.paper_table2()
MAPREDUCE_JOBS = {
    "daily-detection": lambda: daily_detection_job(_CATALOG),
    "reference-count": lambda: reference_count_job(_CATALOG),
    "ns-sld-frequency": ns_sld_frequency_job,
}

Digests = List[Tuple[str, str]]


class Baseline(NamedTuple):
    world: World
    study: AdoptionStudy
    results: StudyResults
    windows: Dict[str, Tuple[int, int]]
    #: Every partition the study measured, as landed.
    store: SegmentStore


def build_baseline(seed: int, directory: str) -> Baseline:
    """The baseline of *seed*, its partitions landed in a fresh store at
    *directory*."""
    world = build_paper_world(ScenarioConfig(scale=SCALE, seed=seed))
    study = AdoptionStudy(world)
    results = study.run()
    feed = SegmentReplayFeed(world, results.segments)
    store = SegmentStore(directory, create=True)
    for _, chunk in itertools.groupby(
        feed.days(), key=lambda part: part.day // DAYS_PER_COMMIT
    ):
        store.append_partitions(
            (part.source, part.day, part.observations) for part in chunk
        )
    return Baseline(world, study, results, feed.windows(), store)


def sha256_json(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def export_digest(results: StudyResults) -> str:
    """The bytes ``repro study --output`` writes, hashed."""
    return sha256_json(study_to_dict(results))


def detection_digest(result: DetectionResult) -> str:
    return sha256_json(
        {
            "horizon": result.horizon,
            "providers": {
                name: {
                    "total": series.total,
                    "by_ref": {
                        ref.value: counts
                        for ref, counts in series.by_ref.items()
                    },
                }
                for name, series in result.providers.items()
            },
            "any_use_by_tld": result.any_use_by_tld,
            "any_use_combined": result.any_use_combined,
            "intervals": sorted(
                [domain, provider, [[i.start, i.end] for i in intervals]]
                for (domain, provider), intervals in result.intervals.items()
            ),
            "combo_days": result.combo_days,
            "domains_seen": result.domains_seen,
        }
    )


def replay(
    base: Baseline,
    store: SegmentStore,
    keys: Optional[Iterable[Tuple[str, int]]] = None,
    end: Optional[int] = None,
) -> StreamEngine:
    """A sketch-enabled engine fed *store*'s partitions: in landing
    order up to *end*, or in the order *keys* lists them."""
    engine = StreamEngine(
        base.world.horizon, windows=base.windows, sketches=SketchConfig()
    )
    feed = StoreReplayFeed(store)
    if keys is None:
        keys = feed.keys(end=end)
    engine.ingest_feed(feed.partition(source, day) for source, day in keys)
    return engine


def engine_digests(engine: StreamEngine) -> Digests:
    assert engine.sketches is not None
    return [
        ("engine", state_digest(engine)),
        ("sketch", engine.sketches.state_digest()),
        ("detection", detection_digest(engine.detection("gtld"))),
    ]


def mapreduce_records(store: SegmentStore) -> ObservationBatch:
    return ObservationBatch.concat(
        [
            store.batch(source, day)
            for day in MAPREDUCE_DAYS
            for source in GTLD_SOURCES
        ]
    )


def mapreduce_digests(records: ObservationBatch) -> Digests:
    digests = []
    for name, make_job in MAPREDUCE_JOBS.items():
        engine = MapReduceEngine(partitions=8)
        outputs = engine.run(make_job(), records)
        assert engine.last_counters is not None
        counters = asdict(engine.last_counters)
        # The pins were taken without this counter.
        del counters["pairs_after_combine"]
        digests.append(
            (
                f"mapreduce:{name}",
                sha256_json({"outputs": outputs, "counters": counters}),
            )
        )
    return digests


def baseline_digests(seed: int) -> Dict[str, str]:
    """Every pinned digest of *seed*, computed the baseline way (its
    store in a temporary directory)."""
    with tempfile.TemporaryDirectory() as directory:
        base = build_baseline(seed, directory)
        with base.store:
            digests = dict(engine_digests(replay(base, base.store)))
            digests.update(mapreduce_digests(mapreduce_records(base.store)))
    digests["export"] = export_digest(base.results)
    assert digests["detection"] == detection_digest(
        base.results.detection_gtld
    )
    return digests


def load_pinned() -> Dict[str, Dict[str, str]]:
    """seed (as text) → digest name → pinned digest."""
    with open(PINNED_PATH) as handle:
        pinned: Dict[str, Dict[str, str]] = json.load(handle)
    return pinned


class Conformance(NamedTuple):
    """One seed of the conformance matrix, shared by every cell."""

    seed: int
    base: Baseline
    #: The baseline's segments after one compaction pass.
    compacted: SegmentStore
    #: Scratch space for cells that write files.
    directory: str
    #: cell → the digests it produced on this seed.
    produced: Dict[str, Digests]


def _run(c: Conformance) -> Digests:
    results = c.base.results
    return [
        ("export", export_digest(results)),
        ("detection", detection_digest(results.detection_gtld)),
    ]


def _detect(c: Conformance, store: SegmentStore) -> Tuple[str, str]:
    detected = c.base.study.detect_from_store(store, GTLD_SOURCES)
    return ("detection", detection_digest(detected))


def _kill_resume(c: Conformance) -> Digests:
    interrupted = replay(c.base, c.base.store, end=KILL_DAY)
    path = os.path.join(c.directory, "engine.ckpt")
    save_checkpoint(interrupted, path)
    del interrupted  # the "kill": only the checkpoint survives
    resumed = load_checkpoint(path)
    start = min(resumed.resume_day(source) for source in resumed.sources)
    assert start == KILL_DAY
    resumed.ingest_feed(StoreReplayFeed(c.base.store).days(start=start))
    return engine_digests(resumed)


def _sketch(plane: SketchPlane) -> Digests:
    # Fold order cannot show in the bytes while space-saving is exact.
    for name in sorted(plane.scopes):
        assert plane.scope(name).provider_topk.exact
        assert plane.scope(name).third_party.exact
    return [("sketch", plane.state_digest())]


def _reversed(c: Conformance) -> Digests:
    keys = list(StoreReplayFeed(c.base.store).keys())[::-1]
    detector = SegmentDetector(c.base.study.catalog, c.base.world.horizon)
    backwards = c.base.store.manifest.partitions(sources=GTLD_SOURCES)[::-1]
    for batch, ends in c.base.store.spans(backwards, BatchBuilder()):
        detector.process_runs(batch, ends)
    return engine_digests(replay(c.base, c.base.store, keys=keys)) + [
        ("detection", detection_digest(detector.result()))
    ]


#: Each cell changes one axis of the baseline and yields (digest name,
#: digest) pairs.
CELLS: Dict[str, Callable[[Conformance], Digests]] = {
    "path-run": _run,
    "path-detect-from-store": lambda c: [_detect(c, c.base.store)],
    "path-engine-replay": lambda c: engine_digests(
        replay(c.base, c.base.store)
    ),
    "path-kill-resume": _kill_resume,
    "path-sketch-serial": lambda c: _sketch(sketch_from_store(c.base.store)),
    "path-mapreduce": lambda c: mapreduce_digests(
        mapreduce_records(c.base.store)
    ),
    "store-compacted": lambda c: [_detect(c, c.compacted)] + _sketch(
        sketch_from_store(c.compacted)
    ),
    "order-reversed": _reversed,
}


def check_cell(c: Conformance, cell: str) -> None:
    """Hold every digest *cell* produces on *c*'s seed to the pin. The
    cell runs once per seed; later checks read what it produced."""
    if cell not in c.produced:
        c.produced[cell] = CELLS[cell](c)
    produced = c.produced[cell]
    pinned = load_pinned()[str(c.seed)]
    assert produced == [(name, pinned[name]) for name, _ in produced]


if __name__ == "__main__":
    print(json.dumps(baseline_digests(int(sys.argv[1])), sort_keys=True))
