"""repro.batch — columnar vs per-row data plane, measured.

Two measurements over the same landed :class:`SegmentStore` history
(one gTLD source, a 60-day window):

* the detect phase — boxing every row into ``DomainObservation``,
  matching it through the catalog and stating it to ``ScopeState``
  against columnar ``SegmentDetector.process_batch`` over one
  concatenated batch. The
  ≥2× bar is asserted unconditionally: both sides are serial, so core
  count cannot excuse a miss;
* peak working-set RSS — forked children materialise the boxed row
  history vs the columnar batch and report their ``ru_maxrss`` growth;
  the reduction lands in ``extra_info``.

The workload world is sized independently of the shared bench fixtures
(``REPRO_BENCH_BATCH_SCALE``, default 40000 → ~3k domains): the row
path is the slow side being measured, and a larger world would spend
CI minutes proving the same ratio.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import time

from repro.batch.batch import BatchBuilder, ObservationBatch
from repro.core.detection import ScopeState, SegmentDetector
from repro.core.pipeline import AdoptionStudy
from repro.store import SegmentStore
from repro.stream.feed import SegmentReplayFeed
from repro.world.scenario import ScenarioConfig, build_paper_world

import pytest

BATCH_BENCH_SCALE = int(
    os.environ.get("REPRO_BENCH_BATCH_SCALE", "40000")
)
BATCH_BENCH_SEED = 2016
SOURCE = "com"
DAYS = 60


@pytest.fixture(scope="module")
def batch_bench(tmp_path_factory):
    """(study, landed store) for the columnar-plane workload."""
    world = build_paper_world(
        ScenarioConfig(scale=BATCH_BENCH_SCALE, seed=BATCH_BENCH_SEED)
    )
    study = AdoptionStudy(world)
    segments = study.collect_segments()
    store = SegmentStore(
        str(tmp_path_factory.mktemp("batches")), create=True
    )
    feed = SegmentReplayFeed(world, segments, sources=(SOURCE,))
    store.append_partitions(
        (part.source, part.day, part.observations)
        for part in feed.days(end=DAYS)
    )
    yield study, store
    store.close()


def _detect_rows(study, store):
    """The pre-columnar detect phase: box every row, match it through
    the catalog and state it to the accumulator as one day."""
    state = ScopeState(study.world.horizon)
    match = study.catalog.match
    for source, day in store.partitions():
        for row in store.rows(source, day):
            state.observe(
                row.domain, row.tld, row.day, match(row), row.day + 1
            )
    return state.result()


def _detect_batch(study, store):
    """The columnar detect phase: concat the landed partitions into one
    batch (shared pools) and run ``process_batch``."""
    builder = BatchBuilder()
    parts = [
        store.batch(source, day, builder=builder)
        for source, day in store.partitions()
    ]
    detector = SegmentDetector(study.catalog, study.world.horizon)
    detector.process_batch(ObservationBatch.concat(parts))
    return detector.result()


def test_batch_detect_speedup(benchmark, batch_bench):
    study, store = batch_bench
    total_rows = sum(
        store.row_count(source, day)
        for source, day in store.partitions()
    )

    started = time.perf_counter()
    row_result = _detect_rows(study, store)
    row_seconds = time.perf_counter() - started

    batch_result = benchmark.pedantic(
        lambda: _detect_batch(study, store), rounds=3, iterations=1
    )

    # Identity first: the speedup is worthless if the results differ.
    assert batch_result == row_result

    batch_seconds = benchmark.stats.stats.mean
    speedup = row_seconds / batch_seconds
    benchmark.extra_info["rows"] = total_rows
    benchmark.extra_info["row_seconds"] = round(row_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    # Serial vs serial: no core-count gate applies.
    assert speedup >= 2.0, (
        f"columnar detect only {speedup:.2f}x over the row path"
    )


def _child_rss_delta(build, store, queue):
    """Measure how far *build*'s working set pushes this process's peak
    RSS past the inherited baseline (KiB on Linux)."""
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    working_set = build(store)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    queue.put((peak - base, len(working_set)))


def _boxed_history(store):
    return [
        row
        for source, day in store.partitions()
        for row in store.rows(source, day)
    ]


def _columnar_history(store):
    builder = BatchBuilder()
    return ObservationBatch.concat(
        [
            store.batch(source, day, builder=builder)
            for source, day in store.partitions()
        ]
    )


def test_peak_rss_reduction(benchmark, batch_bench):
    """Forked children materialise the whole history each way; the
    parent reports the peak-RSS growth of each working set."""
    _, store = batch_bench
    context = multiprocessing.get_context("fork")

    def measure(build):
        queue = context.Queue()
        child = context.Process(
            target=_child_rss_delta, args=(build, store, queue)
        )
        child.start()
        delta_kib, rows = queue.get()
        child.join()
        assert child.exitcode == 0
        return delta_kib, rows

    boxed_kib, boxed_rows = measure(_boxed_history)
    batch_kib, batch_rows = benchmark.pedantic(
        lambda: measure(_columnar_history), rounds=1, iterations=1
    )
    assert batch_rows == boxed_rows

    benchmark.extra_info["rows"] = boxed_rows
    benchmark.extra_info["boxed_rss_kib"] = boxed_kib
    benchmark.extra_info["batch_rss_kib"] = batch_kib
    if batch_kib > 0:
        benchmark.extra_info["rss_reduction"] = round(
            boxed_kib / batch_kib, 2
        )
