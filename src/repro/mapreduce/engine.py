"""The map → combine → partition → reduce execution engine.

A :class:`Job` supplies a mapper (record → (key, value) pairs), a reducer
(key, values → results), and optionally a combiner (run per partition
before the shuffle, like Hadoop's map-side combine). The engine shuffles
pairs into a configurable number of partitions by key hash and reduces
each partition independently — the same dataflow a Hadoop job has, scaled
to one process: :func:`map_combine` runs once over the records as
given, then each partition's keys reduce in sorted order.
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
    Tuple,
    TypeVar,
)

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


def map_combine(
    job: Job, records: Iterable[R], partitions: int
) -> Tuple[Shuffle, JobCounters]:
    """The map + map-side-combine phase over *records*.

    Returns the partitioned shuffle and the map-side counters
    (``records_read``, ``pairs_emitted``, ``pairs_after_combine``).

    *records* is any iterable — in particular a columnar
    :class:`repro.batch.batch.ObservationBatch`, whose iteration yields
    lazy row views one at a time, so the input is never boxed whole.
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


class MapReduceEngine:
    """Runs jobs over in-process record iterables."""

    def __init__(self, partitions: int = 8):
        if partitions < 1:
            raise ValueError("at least one partition is required")
        self._partitions = partitions
        self.last_counters: Optional[JobCounters] = None

    def run(self, job: Job, records: Iterable[R]) -> List[Out]:
        """Execute *job* over *records* and return all reducer outputs."""
        shuffled, counters = map_combine(job, records, self._partitions)
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
