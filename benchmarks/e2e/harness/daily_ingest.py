"""``daily_ingest`` — the operator's path.

Per day, for each of the five sources: ``PartitionFeed.partition`` ->
``SegmentStore.append_batch`` -> ``StreamEngine.ingest`` (engine built
with sketches), then ``SnapshotSwapper.rebuild_if_advanced()``. The day
is the sample. After the last day, one ``store.compact()``.

The number of days is a fixed function of ``--seconds`` (not of how fast
the box happens to be), because the engine's state, the index build and
the memory peak all grow with the days landed.
"""

from __future__ import annotations

import gc
from typing import List, Tuple

from harness import probes
from harness.calib import Calibrator, Timing
from harness.common import (
    SETUP_REPS,
    Outcome,
    build_world,
    finish_trace,
    measure_traced,
    median_setup,
    peak_rss_mib,
    remove_dir,
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

NAME = "daily_ingest"

#: Paper counts divided by this: ~10.9k domains, ~9.7k rows per day.
SCALE = 16000
#: Days landed per second of ``--seconds``; sized so the timed pass
#: takes about ``--seconds`` when the box is in a slow epoch.
DAYS_PER_SECOND = 1.5
MIN_DAYS = 8
#: Days of the traced pass (and of the untraced pass it is compared to).
TRACE_DAYS = 8

LAYER_SPANS = LANDING_SPANS + ("store.compact",)


def days_for(seconds: float) -> int:
    return max(MIN_DAYS, int(seconds * DAYS_PER_SECOND))


def _setup(scale: int, seed: int) -> Tuple[object, str, Landing]:
    world = build_world(scale, seed)
    directory = work_dir(NAME)
    return world, directory, Landing(world, directory, with_engine=True)


def _teardown(product: Tuple[object, str, Landing]) -> None:
    _, directory, landing = product
    landing.close()
    remove_dir(directory)


def _check_landing(
    outcome: Outcome, landing: Landing, days: int
) -> None:
    from repro.measurement.scheduler import ALL_SOURCES

    store, engine = landing.store, landing.engine
    stored = sum(
        store.row_count(source, day) for source, day in store.partitions()
    )
    outcome.check(
        "rows landed equal rows measured",
        stored == landing.rows and landing.rows > 0,
        f"{stored} stored, {landing.rows} measured",
    )
    expected = days * len(ALL_SOURCES)
    applied = landing.outcomes.get("applied", 0)
    outcome.attempted = landing.partitions
    outcome.failed = landing.partitions - applied
    pending = sum(
        len(engine.pending_days(source)) for source in ALL_SOURCES
    )
    outcome.check(
        "no dropped or quarantined partition",
        applied == expected == engine.partitions_applied
        and engine.partitions_dropped == 0
        and pending == 0,
        f"{applied}/{expected} applied, {pending} pending, "
        f"{engine.partitions_dropped} dropped",
    )


def _bytes_per_row(store: object) -> float:
    total = store.total_stats()
    return total.encoded_bytes / total.rows


def run(
    seed: int,
    seconds: float,
    scale: int = SCALE,
    days: int = 0,
    setup_reps: int = SETUP_REPS,
) -> Outcome:
    """The untraced pass: every end-to-end metric."""
    from repro.stream.checkpoint import state_digest

    days = days or days_for(seconds)
    outcome = Outcome(NAME)
    with Calibrator() as calibrator:
        setup = median_setup(
            calibrator,
            lambda: _setup(scale, seed),
            _teardown,
            reps=setup_reps,
        )
        landing = setup.product[2]
        try:
            # Warm-up day: the engine's match cache fills.
            land_day(landing, START_DAY)
            warm_rows = landing.rows
            day_timings: List[Timing] = []
            for day in range(START_DAY + 1, START_DAY + days):
                gc.collect()
                measured = calibrator.measure(
                    lambda: land_day(landing, day)
                )
                day_timings.append(measured.timing)
            gc.collect()
            compaction = calibrator.measure(landing.store.compact).timing
            rss = peak_rss_mib()
            _check_landing(outcome, landing, days)
            outcome.digests["engine_state_sha256"] = state_digest(
                landing.engine
            )
            bytes_per_row = _bytes_per_row(landing.store)
        finally:
            _teardown(setup.product)
    timed_rows = landing.rows - warm_rows
    total = sum(t.norm for t in day_timings) + compaction.norm
    outcome.metrics.update({
        "setup_s": setup.seconds,
        "peak_rss_mib": rss,
        "op_latency_p50_ms": median([t.norm for t in day_timings]) * 1e3,
        "throughput_per_s": timed_rows / total,
    })
    outcome.notes.update({
        "day_samples": len(day_timings),
        "rows": landing.rows,
        "store_bytes_per_row": bytes_per_row,
        "compact_s": compaction.norm,
        "setup_reps": setup.reps,
        "raw_setup_s": setup.raw_seconds,
        "raw_op_latency_p50_ms": median(
            [t.raw for t in day_timings]
        ) * 1e3,
        "raw_timed_s": sum(t.raw for t in day_timings) + compaction.raw,
    })
    return outcome


def run_traced(
    seed: int,
    seconds: float,
    scale: int = SCALE,
    days: int = TRACE_DAYS,
) -> Outcome:
    """The traced pass: every per-layer metric of this workload."""
    from repro.serve.protocol import canonical_json
    from repro.stream.checkpoint import dump_state, state_digest

    del seconds  # the traced pass has a fixed size
    outcome = Outcome(NAME)
    tracer = Tracer(NAME)
    span_days = range(START_DAY, START_DAY + days)
    with Calibrator() as calibrator:
        build = calibrator.measure(lambda: build_world(scale, seed))
        world = build.value

        # A world of its own for each pass: landing a day fills the
        # world's pfx2as snapshot and longest-match caches, and both
        # passes must find them as cold as ``run()`` does.
        plain_dir = work_dir(NAME)
        plain = Landing(
            build_world(scale, seed), plain_dir, with_engine=True
        )
        traced_dir = work_dir(NAME)
        traced = Landing(world, traced_dir, with_engine=True)
        try:
            def untraced_pass() -> None:
                for day in span_days:
                    land_day(plain, day)
                plain.store.compact()

            def traced_pass() -> None:
                with tracer.span("harness.rep"):
                    for day in span_days:
                        land_day_traced(traced, day, tracer)
                    with tracer.span("store.compact"):
                        traced.store.compact()

            gc.collect()
            untraced_timing = calibrator.measure(untraced_pass).timing
            traced_timing = measure_traced(
                calibrator, tracer, traced_pass
            ).timing

            _check_landing(outcome, traced, days)
            digest = state_digest(traced.engine)
            outcome.digests["engine_state_sha256"] = digest
            if not outcome.check(
                "traced pass reproduces the engine state digest",
                digest == state_digest(plain.engine),
            ):
                outcome.failed += 1
            checkpoint = calibrator.measure(
                lambda: dump_state(traced.engine)
            )
            plane_bytes = len(
                canonical_json(traced.engine.sketches.to_dict())
            )
            segments = len(traced.store.manifest.segments)
            bytes_per_row = _bytes_per_row(traced.store)
            lpm = probes.lpm_lookup_us(calibrator, world, probes.PROBE_DAY)
            name_parse = probes.name_parse_us(
                calibrator, world, probes.PROBE_DAY
            )
        finally:
            plain.close()
            traced.close()
            remove_dir(plain_dir)
            remove_dir(traced_dir)

    outcome.notes["days"] = days
    ledger = finish_trace(
        outcome,
        [(tracer, traced_timing)],
        untraced_timing,
        LAYER_SPANS,
        seed,
    )

    def layer(name: str) -> float:
        return ledger[name] / days

    outcome.metrics.update({
        "world.build_s": build.timing.norm,
        "measurement.listing_s": layer("measurement.listing"),
        "measurement.probe_day_s": layer("measurement.probe_day"),
        "batch.build_s": layer("batch.build"),
        "measurement.enrich_batch_s": layer("measurement.enrich_batch"),
        "measurement.enrich_lookups": traced.enricher.lookups,
        "store.append_s": layer("store.append"),
        "stream.apply_s": layer("stream.apply"),
        "serve.index_build_s": layer("serve.index_build"),
        "store.compact_s": layer("store.compact") * days,
        "store.segments_after_compact": segments,
        "store.bytes_per_row": bytes_per_row,
        "stream.checkpoint_s": checkpoint.timing.norm,
        "stream.state_bytes": len(checkpoint.value),
        "sketch.plane_bytes": plane_bytes,
        "routing.lpm_lookup_cold_us": lpm[0],
        "routing.lpm_lookup_warm_us": lpm[1],
        "dnscore.name_parse_us": name_parse,
    })
    return outcome
