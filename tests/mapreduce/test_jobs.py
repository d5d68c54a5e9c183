"""Tests for the predefined analysis jobs."""

import pytest

from repro.batch.batch import ObservationBatch
from repro.core.references import SignatureCatalog
from repro.mapreduce.engine import run_job
from repro.mapreduce.jobs import (
    daily_detection_job,
    ns_sld_frequency_job,
    reference_count_job,
)
from repro.measurement.scheduler import PartitionFeed
from repro.measurement.snapshot import DomainObservation


def observation(domain, day=0, ns=(), cnames=(), asns=frozenset()):
    return DomainObservation(
        day=day,
        domain=domain,
        tld="com",
        ns_names=ns,
        apex_addrs=("10.0.0.1",),
        www_cnames=cnames,
        asns=frozenset(asns),
    )


CATALOG = SignatureCatalog.paper_table2()

ROWS = [
    observation("a.com", ns=("kate.ns.cloudflare.com",), asns={13335}),
    observation("b.com", cnames=("x.incapdns.net",), asns={19551}),
    observation("c.com", ns=("ns1.hostco-dns.com",), asns={64500}),
    observation("a.com", day=1, ns=("kate.ns.cloudflare.com",),
                asns={13335}),
]


class TestDailyDetectionJob:
    def test_counts_per_day_provider(self):
        outputs = dict(run_job(daily_detection_job(CATALOG), ROWS))
        assert outputs[(0, "CloudFlare")] == 1
        assert outputs[(0, "Incapsula")] == 1
        assert outputs[(1, "CloudFlare")] == 1
        assert (0, "Akamai") not in outputs

    def test_unprotected_rows_emit_nothing(self):
        outputs = run_job(
            daily_detection_job(CATALOG),
            [observation("c.com", ns=("ns1.hostco-dns.com",), asns={64500})],
        )
        assert outputs == []


class TestReferenceCountJob:
    def test_per_reference_breakdown(self):
        outputs = dict(run_job(reference_count_job(CATALOG), ROWS))
        assert outputs[(0, "CloudFlare", "AS")] == 1
        assert outputs[(0, "CloudFlare", "NS")] == 1
        assert outputs[(0, "Incapsula", "CNAME")] == 1
        assert (0, "CloudFlare", "CNAME") not in outputs


class TestNsSldFrequencyJob:
    def test_frequency_threshold(self):
        rows = ROWS + [
            observation("d.com", ns=("ns2.hostco-dns.com",)),
        ]
        outputs = dict(run_job(ns_sld_frequency_job(min_count=2), rows))
        assert outputs["hostco-dns.com"] == 2
        assert outputs["cloudflare.com"] == 2
        assert "incapsecuredns.net" not in outputs


JOBS = {
    "daily-detection": lambda: daily_detection_job(CATALOG),
    "reference-count": lambda: reference_count_job(CATALOG),
    "ns-sld-frequency": ns_sld_frequency_job,
}


@pytest.mark.parametrize("job_name", sorted(JOBS))
def test_columnar_records_match_boxed_rows(tiny_world, job_name):
    """An ObservationBatch is mapped row view by row view, never boxed
    whole, and gives the boxed rows' outputs."""
    rows = []
    feed = PartitionFeed(tiny_world)
    for source in ("com", "net", "org"):
        rows.extend(feed.partition(source, 30).observations)
    batch = ObservationBatch.from_rows(rows)
    assert rows and run_job(JOBS[job_name](), batch) == run_job(
        JOBS[job_name](), rows
    )
