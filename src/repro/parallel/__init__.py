"""Deterministic sharded execution for the study and the MapReduce engine.

One contract across every piece — parallel results are **byte-identical**
to serial ones, for any backend, any worker count, and any shard count:

* :mod:`repro.parallel.sharding` — stable hash partitioning of names and
  contiguous chunking of record streams;
* :mod:`repro.parallel.backend` — the :class:`Backend` protocol whose
  ``map_shards`` is the one fan-out primitive every sharded pass runs
  through, its two implementations :class:`SerialBackend` and
  :class:`LocalPoolBackend` (the fork process pool: worker count from
  ``REPRO_WORKERS``, serial in-process fallback at one worker, shard
  results collected in shard-index order), and :func:`resolve_backend`,
  which picks one by name (``--backend`` / ``REPRO_BACKEND``);
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
    fork_available,
    resolve_backend,
    resolve_workers,
)
from repro.parallel.detect import detect_from_slices
from repro.parallel.sharding import chunk_records, partition_names, shard_of
from repro.parallel.study import StudyMeasurement, run_sharded_measurement

__all__ = [
    "Backend",
    "BackendError",
    "BackendSpec",
    "LocalPoolBackend",
    "REPRO_BACKEND_ENV",
    "REPRO_WORKERS_ENV",
    "SHARDS_PER_WORKER",
    "SerialBackend",
    "StudyMeasurement",
    "chunk_records",
    "detect_from_slices",
    "fork_available",
    "partition_names",
    "resolve_backend",
    "resolve_workers",
    "run_sharded_measurement",
    "shard_of",
]
