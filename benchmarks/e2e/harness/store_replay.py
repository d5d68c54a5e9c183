"""``store_replay`` — the analyst's path.

Set-up lands a few days (five sources) in a segment store and compacts
it. A repetition then opens the store, runs the whole-history columnar
detection (``detect_from_store``), rebuilds the sketch plane
(``sketch_from_store``) and replays the store through a fresh
``StreamEngine`` with no sketches and no swapper: the read side of the
codecs ``daily_ingest`` writes with.
"""

from __future__ import annotations

import gc
from typing import Tuple

from harness.calib import Calibrator
from harness.common import (
    SETUP_REPS,
    Outcome,
    build_world,
    finish_trace,
    measure_traced,
    median_setup,
    peak_rss_mib,
    remove_dir,
    timed_reps,
    work_dir,
)
from harness.landing import (
    LANDING_SPANS,
    START_DAY,
    Landing,
    land_day,
    land_day_traced,
)
from harness.stats import median
from harness.trace import Tracer

NAME = "store_replay"

#: Paper counts divided by this: ~5.4k domains, ~4.8k rows per day.
SCALE = 32000
#: Days landed by the set-up.
DAYS = 8
MIN_REPS = 5

LAYER_SPANS = (
    "store.open",
    "measurement.init",
    "store.scan",
    "batch.concat",
    "core.detect_batch",
    "sketch.rebuild",
    "stream.replay",
)


def _setup(scale: int, seed: int, days: int) -> Tuple[object, str, int]:
    """Land *days* days, compact, close: (world, store directory, rows)."""
    world = build_world(scale, seed)
    directory = work_dir(NAME)
    landing = Landing(world, directory, with_engine=False)
    for day in range(START_DAY, START_DAY + days):
        land_day(landing, day)
    landing.store.compact()
    landing.close()
    return world, directory, landing.rows


def _teardown(product: Tuple[object, str, int]) -> None:
    remove_dir(product[1])


def one_call(world: object, directory: str) -> Tuple[object, object, object]:
    """The untraced repetition: (detection, sketch plane, engine)."""
    from repro.core.pipeline import GTLDS, AdoptionStudy
    from repro.sketch.build import sketch_from_store
    from repro.store.store import SegmentStore
    from repro.stream.engine import StreamEngine
    from repro.stream.feed import StoreReplayFeed

    with SegmentStore(directory) as store:
        detection = AdoptionStudy(world).detect_from_store(store, GTLDS)
        plane = sketch_from_store(store)
        engine = StreamEngine(world.horizon)
        engine.ingest_feed(StoreReplayFeed(store).days())
    return detection, plane, engine


def traced_call(
    world: object, directory: str, tracer: Tracer
) -> Tuple[object, object, object]:
    """The same repetition, ``detect_from_store`` taken apart."""
    from repro.batch.batch import BatchBuilder, ObservationBatch
    from repro.core.detection import SegmentDetector
    from repro.core.pipeline import GTLDS, AdoptionStudy
    from repro.sketch.build import sketch_from_store
    from repro.store.store import SegmentStore
    from repro.stream.engine import StreamEngine
    from repro.stream.feed import StoreReplayFeed

    span = tracer.span
    with span("harness.rep"):
        with span("store.open"):
            store = SegmentStore(directory)
        with store:
            with span("measurement.init"):
                study = AdoptionStudy(world)
            with span("store.scan"):
                builder = BatchBuilder()
                parts = [
                    store.batch(source, day, builder=builder)
                    for source, day in store.partitions()
                    if source in GTLDS
                ]
            with span("batch.concat"):
                batch = ObservationBatch.concat(parts)
            with span("core.detect_batch"):
                detector = SegmentDetector(study.catalog, world.horizon)
                detector.process_batch(batch)
                detection = detector.result()
            with span("sketch.rebuild"):
                plane = sketch_from_store(store)
            with span("stream.replay"):
                engine = StreamEngine(world.horizon)
                engine.ingest_feed(StoreReplayFeed(store).days())
    return detection, plane, engine


def _rep_ok(product: Tuple[object, object, object], plane_digest: str) -> bool:
    detection, plane, engine = product
    return (
        detection == engine.detection("gtld")
        and plane.state_digest() == plane_digest
    )


def run(
    seed: int,
    seconds: float,
    scale: int = SCALE,
    days: int = DAYS,
    min_reps: int = MIN_REPS,
    setup_reps: int = SETUP_REPS,
) -> Outcome:
    """The untraced pass: every end-to-end metric."""
    outcome = Outcome(NAME)
    with Calibrator() as calibrator:
        setup = median_setup(
            calibrator,
            lambda: _setup(scale, seed, days),
            _teardown,
            reps=setup_reps,
        )
        world, directory, rows = setup.product
        try:
            warm = one_call(world, directory)
            plane_digest = warm[1].state_digest()
            first_ok = _rep_ok(warm, plane_digest)
            del warm
            timings = []
            for measured in timed_reps(
                calibrator,
                lambda: one_call(world, directory),
                seconds,
                min_reps,
            ):
                outcome.attempted += 1
                if not _rep_ok(measured.value, plane_digest):
                    outcome.failed += 1
                timings.append(measured.timing)
                del measured
        finally:
            _teardown(setup.product)
    outcome.check(
        "detect_from_store equals the replayed engine's detection",
        first_ok and outcome.failed == 0,
    )
    outcome.digests["sketch_plane_sha256"] = plane_digest
    wall = median([t.norm for t in timings])
    outcome.metrics.update({
        "setup_s": setup.seconds,
        "peak_rss_mib": peak_rss_mib(),
        "op_latency_p50_ms": wall * 1e3,
        "throughput_per_s": rows / wall,
    })
    outcome.notes.update({
        "reps": len(timings),
        "rows": rows,
        "days": days,
        "setup_reps": setup.reps,
        "raw_setup_s": setup.raw_seconds,
        "raw_op_latency_p50_ms": median([t.raw for t in timings]) * 1e3,
    })
    return outcome


def run_traced(
    seed: int, seconds: float, scale: int = SCALE, days: int = DAYS
) -> Outcome:
    """The traced pass: every per-layer metric of this workload."""
    from repro.store.store import SegmentStore

    del seconds  # one untraced and one traced repetition
    outcome = Outcome(NAME, attempted=2)
    landing_tracer = Tracer(NAME, rep=0)
    tracer = Tracer(NAME, rep=1)
    directory = work_dir(NAME)
    try:
        with Calibrator() as calibrator:
            build = calibrator.measure(lambda: build_world(scale, seed))
            world = build.value
            landing = Landing(world, directory, with_engine=False)

            def land() -> None:
                with landing_tracer.span("harness.setup"):
                    for day in range(START_DAY, START_DAY + days):
                        land_day_traced(landing, day, landing_tracer)
                    with landing_tracer.span("store.compact"):
                        landing.store.compact()

            landed = measure_traced(calibrator, landing_tracer, land).timing
            segments = len(landing.store.manifest.segments)
            total = landing.store.total_stats()
            landing.close()

            one_call(world, directory)  # warm-up
            gc.collect()
            untraced = calibrator.measure(
                lambda: one_call(world, directory)
            )
            traced = measure_traced(
                calibrator,
                tracer,
                lambda: traced_call(world, directory, tracer),
            )

            def day_read() -> int:
                with SegmentStore(directory) as store:
                    return len(store.batch("com", START_DAY + days // 2))

            day_read_timing = calibrator.measure(day_read).timing
    finally:
        remove_dir(directory)

    plane_digest = untraced.value[1].state_digest()
    outcome.digests["sketch_plane_sha256"] = plane_digest
    if not outcome.check(
        "traced decomposition reproduces detection and sketch plane",
        traced.value[0] == untraced.value[0]
        and _rep_ok(traced.value, plane_digest)
        and _rep_ok(untraced.value, plane_digest),
    ):
        outcome.failed += 1

    outcome.notes["rows"] = total.rows
    ledger = finish_trace(
        outcome,
        [(landing_tracer, landed), (tracer, traced.timing)],
        untraced.timing,
        LAYER_SPANS + LANDING_SPANS + ("store.compact",),
        seed,
    )
    for name in LANDING_SPANS:
        if name in ledger:  # per landed day; no engine, no swapper here
            outcome.metrics[name + "_s"] = ledger[name] / days
    for name in LAYER_SPANS:
        if name != "measurement.init":
            outcome.metrics[name + "_s"] = ledger[name]
    outcome.metrics.update({
        "world.build_s": build.timing.norm,
        "store.compact_s": ledger["store.compact"],
        "store.segments_after_compact": segments,
        "store.bytes_per_row": total.encoded_bytes / total.rows,
        "store.day_read_ms": day_read_timing.norm * 1e3,
    })
    return outcome
