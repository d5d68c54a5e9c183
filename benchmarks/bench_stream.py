"""Streaming ingest — one day's increment vs recomputing the history.

The point of the incremental engine: when day N lands, updating the
aggregates costs O(day N's observations), while the batch pipeline pays
O(full history) to produce the same numbers. The benchmark times the
single-day increment against a from-scratch gTLD detection over the same
world and records the ratio in ``extra_info`` of the benchmark JSON.
"""

import time

from repro.core.pipeline import AdoptionStudy
from repro.core.references import SignatureCatalog
from repro.stream.engine import GTLD_SOURCES, StreamEngine
from repro.stream.feed import SegmentReplayFeed

GTLDS = set(GTLD_SOURCES)


def test_single_day_increment_vs_full_recompute(
    benchmark, bench_world, bench_segments
):
    horizon = bench_world.horizon
    last_day = horizon - 1
    catalog = SignatureCatalog.paper_table2()

    feed = SegmentReplayFeed(bench_world, bench_segments)
    warm = StreamEngine(
        horizon, catalog=catalog, windows=feed.windows()
    )
    warm.ingest_feed(feed.days(end=last_day))
    payload = warm.to_dict()
    final_partitions = [
        feed.partition(source, last_day) for source in feed.sources
    ]

    def setup():
        # A fresh clone per round: ingesting the same day twice would be
        # rejected as a duplicate.
        return (StreamEngine.from_dict(payload, catalog=catalog),), {}

    def increment(engine):
        for partition in final_partitions:
            engine.ingest(partition)
        return engine.any_adoption(day=last_day)

    streamed_final = benchmark.pedantic(
        increment, setup=setup, rounds=5, iterations=1
    )

    study = AdoptionStudy(bench_world, catalog)
    gtld_names = [
        name
        for name, timeline in bench_world.domains.items()
        if name in bench_segments and timeline.tld in GTLDS
    ]
    start = time.perf_counter()
    batch = study.detect(bench_segments, gtld_names)
    full_seconds = time.perf_counter() - start

    # Same numbers, amortised cost.
    assert streamed_final == batch.any_use_combined[last_day]

    increment_seconds = benchmark.stats.stats.mean
    speedup = full_seconds / increment_seconds
    benchmark.extra_info["full_recompute_seconds"] = round(full_seconds, 6)
    benchmark.extra_info["single_day_seconds"] = round(
        increment_seconds, 6
    )
    benchmark.extra_info["speedup"] = round(speedup, 1)
    print(
        f"\nsingle-day increment {increment_seconds * 1e3:.2f} ms vs "
        f"full recompute {full_seconds * 1e3:.1f} ms — {speedup:.0f}x"
    )
    assert speedup > 5
