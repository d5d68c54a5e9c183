"""The map → combine → partition → reduce execution engine.

A :class:`Job` supplies a mapper (record → (key, value) pairs), a reducer
(key, values → results), and optionally a combiner (run per partition
before the shuffle, like Hadoop's map-side combine). The engine shuffles
pairs into a configurable number of partitions by key hash and reduces
each partition independently — the same dataflow a Hadoop job has, scaled
to one process.

Every run has one shape: records are split into contiguous chunks, each
chunk is mapped and combined through
:meth:`repro.parallel.backend.Backend.map_shards`, and the engine merges
the per-chunk shuffles **in chunk order** before the reduce. Without a
*backend* that is a single chunk mapped in this process; with one, the
backend's ``shard_count`` chunks run on its workers. Because chunks are
contiguous and merged in order, every per-key value list arrives at the
reducer in exactly the order a sequential pass would have produced — so
for a fixed chunk count the outputs and counters are independent of the
worker count and of which backend (pool or serial) runs the chunks,
and for associative combiners the outputs match the backend-less engine
byte for byte.

The job description travels through the backend's initializer, which
the ``fork`` start method inherits without pickling — so jobs built from
closures (every job in :mod:`repro.mapreduce.jobs`) work unchanged. Only
the record chunks and the (combined, hence small) shuffle results cross
the process boundary as pickles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.batch.batch import ObservationBatch
from repro.parallel.backend import (
    Backend,
    BackendSpec,
    SerialBackend,
    resolve_backend,
)
from repro.parallel.sharding import chunk_batches, chunk_records
from repro.world.ipam import stable_hash

R = TypeVar("R")  # input record
K = TypeVar("K")  # shuffle key
V = TypeVar("V")  # shuffle value
Out = TypeVar("Out")  # output

Mapper = Callable[[R], Iterable[Tuple[K, V]]]
Reducer = Callable[[K, List[V]], Iterable[Out]]
Combiner = Callable[[K, List[V]], List[V]]

#: partition index → key → values, the engine's shuffle representation.
Shuffle = List[Dict[K, List[V]]]


@dataclass
class Job(Generic[R, K, V, Out]):
    """A MapReduce job description."""

    name: str
    mapper: Mapper
    reducer: Reducer
    combiner: Optional[Combiner] = None


@dataclass
class JobCounters:
    """Hadoop-style job counters, for observability and tests."""

    records_read: int = 0
    pairs_emitted: int = 0
    pairs_after_combine: int = 0
    keys_reduced: int = 0
    outputs_written: int = 0

    def absorb(self, other: "JobCounters") -> None:
        """Add *other*'s counts into this one (worker aggregation)."""
        self.records_read += other.records_read
        self.pairs_emitted += other.pairs_emitted
        self.pairs_after_combine += other.pairs_after_combine
        self.keys_reduced += other.keys_reduced
        self.outputs_written += other.outputs_written

    @classmethod
    def merge(cls, parts: Sequence["JobCounters"]) -> "JobCounters":
        """Summed counters across per-shard map phases."""
        merged = cls()
        for part in parts:
            merged.absorb(part)
        return merged


def map_combine(
    job: Job, records: Iterable[R], partitions: int
) -> Tuple[Shuffle, JobCounters]:
    """The map + map-side-combine phase over one batch of records.

    This is the unit of work the engine ships to a backend worker, one
    call per chunk. Returns the partitioned shuffle and the map-side
    counters (``records_read``, ``pairs_emitted``,
    ``pairs_after_combine``).

    *records* is any iterable — in particular a columnar
    :class:`repro.batch.batch.ObservationBatch`, whose iteration yields
    lazy row views one at a time, so a worker never holds a boxed copy
    of its whole chunk.
    """
    counters = JobCounters()
    shuffled: Shuffle = [{} for _ in range(partitions)]
    for record in records:
        counters.records_read += 1
        for key, value in job.mapper(record):
            counters.pairs_emitted += 1
            bucket = shuffled[stable_hash(repr(key)) % partitions]
            bucket.setdefault(key, []).append(value)

    if job.combiner is not None:
        for bucket in shuffled:
            for key in list(bucket):
                bucket[key] = list(job.combiner(key, bucket[key]))
    counters.pairs_after_combine = sum(
        len(values) for bucket in shuffled for values in bucket.values()
    )
    return shuffled, counters


#: Per-worker-process job state (set by the backend initializer).
_WORKER_JOB: Optional[Job] = None
_WORKER_PARTITIONS: int = 0


def _init_map_worker(job: Job, partitions: int) -> None:
    global _WORKER_JOB, _WORKER_PARTITIONS
    _WORKER_JOB = job
    _WORKER_PARTITIONS = partitions


def _map_chunk(
    shard_index: int, chunk: Iterable[object]
) -> Tuple[Shuffle, JobCounters]:
    job = _WORKER_JOB
    assert job is not None, "worker initializer did not run"
    return map_combine(job, chunk, _WORKER_PARTITIONS)


class MapReduceEngine:
    """Runs jobs over in-process record iterables.

    *backend* (a :class:`~repro.parallel.backend.Backend` instance or a
    backend name) fans the map+combine phase out over that
    backend's ``shard_count`` chunks; without one the whole input is one
    chunk mapped in this process.
    """

    def __init__(
        self, partitions: int = 8, backend: Optional[BackendSpec] = None
    ):
        if partitions < 1:
            raise ValueError("at least one partition is required")
        self._partitions = partitions
        self._backend: Optional[Backend] = (
            None if backend is None else resolve_backend(backend)
        )
        self.last_counters: Optional[JobCounters] = None

    def run(self, job: Job, records: Iterable[R]) -> List[Out]:
        """Execute *job* over *records* and return all reducer outputs."""
        backend = self._backend
        chunks: Sequence[Iterable[R]]
        if backend is None:
            # One chunk, handed over as it came: never boxed into a row
            # list, never re-compacted.
            backend = SerialBackend()
            chunks = [records]
        elif isinstance(records, ObservationBatch):
            # A columnar batch is chunked as compacted sub-batches, so
            # what crosses the fork boundary is each chunk's interned
            # columns; workers iterate the rows lazily in map_combine.
            chunks = chunk_batches(records, backend.shard_count)
        else:
            chunks = chunk_records(list(records), backend.shard_count)
        parts = backend.map_shards(
            _map_chunk,
            chunks,
            initializer=_init_map_worker,
            initargs=(job, self._partitions),
        )
        counters = JobCounters.merge([part[1] for part in parts])
        shuffled: Shuffle = [{} for _ in range(self._partitions)]
        # Chunk-order merge: per-key value lists concatenate exactly as
        # a single sequential map pass would have appended them.
        for shard_shuffled, _ in parts:
            for index, bucket in enumerate(shard_shuffled):
                merged = shuffled[index]
                for key, values in bucket.items():
                    merged.setdefault(key, []).extend(values)
        # Reduce phase: keys within a partition in sorted order, like
        # Hadoop's sort-before-reduce.
        outputs: List[Out] = []
        for bucket in shuffled:
            for key in sorted(bucket, key=repr):
                counters.keys_reduced += 1
                for output in job.reducer(key, bucket[key]):
                    counters.outputs_written += 1
                    outputs.append(output)
        self.last_counters = counters
        return outputs


def run_job(
    job: Job, records: Iterable[R], partitions: int = 8
) -> List[Out]:
    """One-shot convenience wrapper around :class:`MapReduceEngine`."""
    return MapReduceEngine(partitions=partitions).run(job, records)
