"""Equivalence: the Hadoop-style batch path equals the segment path.

The paper's pipeline is daily batch aggregation on a cluster; our fast
pipeline is streaming over run-length-compressed segments. On any given
day both must count exactly the same (domain, provider) references.
"""

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.core.references import SignatureCatalog
from repro.mapreduce.engine import run_job
from repro.mapreduce.jobs import daily_detection_job, reference_count_job
from repro.measurement.scheduler import PartitionFeed

CATALOG = SignatureCatalog.paper_table2()
SAMPLE_DAYS = (0, 5, 100, 266, 410, 549)


@pytest.fixture(scope="module")
def segment_detection(tiny_world):
    study = AdoptionStudy(tiny_world, CATALOG)
    names = [
        name
        for name, timeline in tiny_world.domains.items()
        if timeline.tld in ("com", "net", "org")
    ]
    return study.detect(study.collect_segments(names), names)


@pytest.fixture(scope="module")
def batch_counts(tiny_world):
    feed = PartitionFeed(tiny_world)
    observations = []
    for day in SAMPLE_DAYS:
        for source in ("com", "net", "org"):
            observations.extend(feed.partition(source, day).observations)
    totals = dict(run_job(daily_detection_job(CATALOG), observations))
    refs = dict(run_job(reference_count_job(CATALOG), observations))
    return totals, refs


def test_daily_totals_agree(segment_detection, batch_counts):
    totals, _ = batch_counts
    for day in SAMPLE_DAYS:
        for provider, series in segment_detection.providers.items():
            batch = totals.get((day, provider), 0)
            assert series.total[day] == batch, (day, provider)


def test_reference_breakdowns_agree(segment_detection, batch_counts):
    _, refs = batch_counts
    from repro.core.references import RefType

    for day in SAMPLE_DAYS:
        for provider, series in segment_detection.providers.items():
            for ref in RefType:
                streaming = (
                    series.by_ref[ref][day] if ref in series.by_ref else 0
                )
                batch = refs.get((day, provider, ref.value), 0)
                assert streaming == batch, (day, provider, ref)


def test_combined_any_use_agrees(tiny_world, segment_detection):
    """Cross-check the any-provider daily count against direct matching."""
    feed = PartitionFeed(tiny_world)
    for day in (0, 410):
        rows = []
        for source in ("com", "net", "org"):
            rows.extend(feed.partition(source, day).observations)
        direct = sum(1 for row in rows if CATALOG.match(row))
        assert segment_detection.any_use_combined[day] == direct
