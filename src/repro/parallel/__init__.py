"""Deterministic sharded execution for the study and the MapReduce engine.

One contract across every piece — parallel results are **byte-identical**
to serial ones, for any backend, any worker count, and any shard count:

* :mod:`repro.parallel.sharding` — stable hash partitioning of names and
  contiguous chunking of record streams;
* :mod:`repro.parallel.backend` — the :class:`Backend` protocol whose
  ``map_shards`` is the one fan-out primitive every sharded pass runs
  through, its registry (``--backend`` / ``REPRO_BACKEND``), and the
  :class:`SerialBackend` / :class:`LocalPoolBackend` implementations
  (the fork process pool: worker count from ``REPRO_WORKERS``, serial
  in-process fallback at one worker, shard results collected in
  shard-index order);
* :mod:`repro.parallel.cluster` — :class:`ClusterBackend`, a simulated
  elastic multi-node cluster with deterministic placement, work
  stealing, and speculative re-execution on logical ticks;
* :mod:`repro.parallel.study` / :mod:`repro.parallel.detect` — the
  sharded measurement phase behind ``AdoptionStudy.run(backend=...)``
  and whole-history detection from segment store manifest slices.

See ``docs/PERFORMANCE.md`` for the architecture and tuning knobs.
"""

from repro.parallel.backend import (
    REPRO_BACKEND_ENV,
    REPRO_WORKERS_ENV,
    SHARDS_PER_WORKER,
    Backend,
    BackendError,
    BackendSpec,
    LocalPoolBackend,
    SerialBackend,
    backend_names,
    fork_available,
    register_backend,
    resolve_backend,
    resolve_workers,
)
from repro.parallel.cluster import (
    ClusterBackend,
    ClusterEvent,
    ClusterSchedule,
)
from repro.parallel.detect import detect_from_slices
from repro.parallel.sharding import chunk_records, partition_names, shard_of
from repro.parallel.study import StudyMeasurement, run_sharded_measurement

__all__ = [
    "Backend",
    "BackendError",
    "BackendSpec",
    "ClusterBackend",
    "ClusterEvent",
    "ClusterSchedule",
    "LocalPoolBackend",
    "REPRO_BACKEND_ENV",
    "REPRO_WORKERS_ENV",
    "SHARDS_PER_WORKER",
    "SerialBackend",
    "StudyMeasurement",
    "backend_names",
    "chunk_records",
    "detect_from_slices",
    "fork_available",
    "partition_names",
    "register_backend",
    "resolve_backend",
    "resolve_workers",
    "run_sharded_measurement",
    "shard_of",
]
