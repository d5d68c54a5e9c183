"""Ablation — MapReduce engine vs direct aggregation for daily detection.

The Hadoop-style path models the paper's cluster job; direct dictionary
aggregation is the obvious single-process alternative. Both must agree.
"""

import pytest

from repro.core.references import SignatureCatalog
from repro.mapreduce.engine import run_job
from repro.mapreduce.jobs import daily_detection_job
from repro.measurement.scheduler import PartitionFeed

CATALOG = SignatureCatalog.paper_table2()
DAY = 100


@pytest.fixture(scope="module")
def day_rows(bench_world):
    feed = PartitionFeed(bench_world)
    rows = []
    for source in ("com", "net", "org"):
        rows.extend(feed.partition(source, DAY).observations)
    return rows


def direct_counts(rows):
    counts = {}
    for row in rows:
        for provider in CATALOG.match(row):
            key = (row.day, provider)
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_detection_via_mapreduce(benchmark, day_rows):
    outputs = benchmark(
        lambda: dict(run_job(daily_detection_job(CATALOG), day_rows))
    )
    assert outputs == direct_counts(day_rows)


def test_detection_via_direct_aggregation(benchmark, day_rows):
    outputs = benchmark(direct_counts, day_rows)
    assert sum(outputs.values()) > 0
