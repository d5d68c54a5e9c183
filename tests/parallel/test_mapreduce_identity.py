"""MapReduceEngine over a backend: outputs and counters are deterministic.

Two guarantees, both exercised against real measurement records:

* at a fixed shard count, outputs **and aggregated counters** are
  identical for any worker count (the chunking — and hence every
  per-chunk map+combine — doesn't depend on who executes it);
* across shard counts, and against the backend-less serial engine,
  outputs are identical (the jobs' combiners are associative sums, and
  chunk-order merging preserves per-key value order).
"""

from dataclasses import asdict

import pytest

from repro.batch.batch import ObservationBatch
from repro.core.references import SignatureCatalog
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.jobs import (
    daily_detection_job,
    ns_sld_frequency_job,
    reference_count_job,
)
from repro.measurement.scheduler import PartitionFeed
from repro.parallel.backend import LocalPoolBackend

CATALOG = SignatureCatalog.paper_table2()

JOBS = {
    "daily-detection": lambda: daily_detection_job(CATALOG),
    "reference-count": lambda: reference_count_job(CATALOG),
    "ns-sld-frequency": lambda: ns_sld_frequency_job(),
}


@pytest.fixture(scope="module")
def records(tiny_world):
    feed = PartitionFeed(tiny_world)
    rows = []
    for source in ("com", "net", "org"):
        rows.extend(feed.partition(source, 30).observations)
    return rows


@pytest.fixture(scope="module")
def serial_runs(records):
    runs = {}
    for name, make_job in JOBS.items():
        engine = MapReduceEngine(partitions=8)
        outputs = engine.run(make_job(), records)
        runs[name] = (outputs, asdict(engine.last_counters))
    return runs


@pytest.mark.parametrize("job_name", sorted(JOBS))
class TestAcrossWorkerCounts:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_outputs_match_serial_engine(
        self, records, serial_runs, job_name, workers
    ):
        engine = MapReduceEngine(
            partitions=8,
            backend=LocalPoolBackend(workers=workers, shard_count=6),
        )
        outputs = engine.run(JOBS[job_name](), records)
        assert outputs == serial_runs[job_name][0]

    def test_counters_independent_of_worker_count(self, records, job_name):
        counters = []
        for workers in (1, 2, 8):
            engine = MapReduceEngine(
                partitions=8,
                backend=LocalPoolBackend(workers=workers, shard_count=6),
            )
            engine.run(JOBS[job_name](), records)
            counters.append(asdict(engine.last_counters))
        assert counters[0] == counters[1] == counters[2]

    def test_map_side_counters_match_serial(
        self, records, serial_runs, job_name
    ):
        """records_read / pairs_emitted / reduce counters equal serial.

        ``pairs_after_combine`` legitimately differs (combine runs per
        chunk), so it is excluded here and pinned by the cross-worker
        test above instead.
        """
        engine = MapReduceEngine(
            partitions=8,
            backend=LocalPoolBackend(workers=2, shard_count=6),
        )
        engine.run(JOBS[job_name](), records)
        sharded = asdict(engine.last_counters)
        serial = dict(serial_runs[job_name][1])
        for counters in (sharded, serial):
            counters.pop("pairs_after_combine")
        assert sharded == serial


@pytest.mark.parametrize("job_name", sorted(JOBS))
@pytest.mark.parametrize("shard_count", [1, 3, 16])
def test_outputs_independent_of_shard_count(
    records, serial_runs, job_name, shard_count
):
    engine = MapReduceEngine(
        partitions=8,
        backend=LocalPoolBackend(workers=2, shard_count=shard_count),
    )
    outputs = engine.run(JOBS[job_name](), records)
    assert outputs == serial_runs[job_name][0]


@pytest.mark.parametrize("spec", ["serial", "cluster:2"])
@pytest.mark.parametrize("job_name", sorted(JOBS))
def test_outputs_identical_through_execution_backends(
    records, serial_runs, job_name, spec
):
    """The engine takes --backend-style specs as they are."""
    engine = MapReduceEngine(partitions=8, backend=spec)
    outputs = engine.run(JOBS[job_name](), records)
    assert outputs == serial_runs[job_name][0]
    sharded = asdict(engine.last_counters)
    serial = dict(serial_runs[job_name][1])
    for counters in (sharded, serial):
        counters.pop("pairs_after_combine")
    assert sharded == serial


@pytest.mark.parametrize("job_name", sorted(JOBS))
def test_columnar_records_chunk_without_boxing(
    records, serial_runs, job_name
):
    """An ObservationBatch is chunked as sub-batches; same outputs."""
    batch = ObservationBatch.from_rows(records)
    engine = MapReduceEngine(
        partitions=8, backend=LocalPoolBackend(workers=2, shard_count=3)
    )
    assert engine.run(JOBS[job_name](), batch) == serial_runs[job_name][0]
    backendless = MapReduceEngine(partitions=8)
    assert backendless.run(JOBS[job_name](), batch) == (
        serial_runs[job_name][0]
    )
