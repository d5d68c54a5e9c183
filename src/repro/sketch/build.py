"""Rebuild the sketch plane from a landed store, in process or sharded.

The plane a :class:`~repro.stream.engine.StreamEngine` maintains
incrementally is a pure commutative fold over ``(domain, day, matches)``
facts, so the same state can be rebuilt from history after the fact by
the same two calls the engine makes (:meth:`BatchMatcher.match_rows`,
:meth:`SketchPlane.fold_runs`) — and split across workers: each shard
folds a contiguous run of ``(source, day)`` partitions into its own
plane, and the parent merges the shard planes in shard-index order.
A source's days are read as runs through one builder
(:meth:`SegmentStore.source_runs`): each fragment decoded once, each run
matched and hashed once, and the order-sensitive top-K still fed the
daily rows' order. Because every sketch merge is an exact cell-wise sum
/ register max (and the space-saving summaries stay in their exact
regime, see ``docs/SKETCHES.md``), the merged plane is
**byte-identical** to the in-process fold and to the live engine plane
fed the same partitions — cells of the conformance matrix
(``tests/integration/test_conformance.py``) pin all three against one
digest per seed.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.batch.batch import BatchBuilder
from repro.core.references import BatchMatcher, SignatureCatalog
from repro.measurement.scheduler import SCOPE_OF_SOURCE
from repro.parallel.backend import BackendSpec, resolve_backend
from repro.parallel.sharding import chunk_records
from repro.sketch.plane import (
    SketchConfig,
    SketchPlane,
    provider_slds_of,
)
from repro.store.slices import ManifestSlice
from repro.store.store import SegmentStore

PartitionKey = Tuple[str, int]


def _fold_partitions(
    store: SegmentStore,
    catalog: SignatureCatalog,
    config: SketchConfig,
    partitions: Sequence[PartitionKey],
) -> SketchPlane:
    """A fresh plane with *partitions* folded in — matcher and fold are
    the ones ``StreamEngine._apply`` uses — each run of consecutive
    same-source keys as that source's stored runs. Every partition is
    read through one builder, so a string repeated across days is
    interned once per rebuild, not once per partition."""
    plane = SketchPlane(
        config,
        scope_names=dict.fromkeys(SCOPE_OF_SOURCE.values()),
        provider_slds=provider_slds_of(catalog),
    )
    matcher = BatchMatcher(catalog)
    builder = BatchBuilder()
    for source, keys in itertools.groupby(partitions, key=itemgetter(0)):
        days = [day for _, day in keys]
        for batch, ends in store.source_runs(source, days, builder):
            plane.fold_runs(
                SCOPE_OF_SOURCE[source], batch, ends,
                matcher.match_rows(batch),
            )
    return plane


#: Per-worker-process builder inputs (set by the pool initializer).
_WORKER_BUILD: Optional[Tuple[SignatureCatalog, SketchConfig]] = None


def _init_build_worker(
    catalog: SignatureCatalog, config: SketchConfig
) -> None:
    global _WORKER_BUILD
    _WORKER_BUILD = (catalog, config)


def _build_shard(
    shard_index: int, partition_run: ManifestSlice
) -> Tuple[Dict[str, object], List[Tuple[str, int, str]]]:
    """Fold one contiguous partition run through a store of the
    worker's own; returns the plane payload and the run's skips."""
    assert _WORKER_BUILD is not None, "worker initializer did not run"
    catalog, config = _WORKER_BUILD
    with partition_run.open() as store:
        plane = _fold_partitions(
            store, catalog, config, partition_run.partitions
        )
        return plane.to_dict(), store.skipped_partitions


def store_partitions(
    store: SegmentStore, sources: Optional[Sequence[str]] = None
) -> List[PartitionKey]:
    """The store's ``(source, day)`` keys, canonically ordered."""
    wanted = None if sources is None else set(sources)
    return sorted(
        (source, day)
        for source, day in store.partitions()
        if wanted is None or source in wanted
    )


def sketch_from_store(
    store: SegmentStore,
    config: Optional[SketchConfig] = None,
    sources: Optional[Sequence[str]] = None,
    catalog: Optional[SignatureCatalog] = None,
    backend: Optional[BackendSpec] = None,
) -> SketchPlane:
    """Fold every partition of *sources* into a plane, in canonical
    order.

    Without a *backend* the fold runs here, through *store*. With one
    (a :class:`~repro.parallel.backend.Backend` instance or spec),
    contiguous partition runs ship to its workers as manifest slices;
    shard planes merge in shard-index order through the exact merge
    hooks, byte-identical to the in-process fold, and partitions a
    lenient read dropped are recorded in *store*, in shard order.
    """
    catalog = catalog or SignatureCatalog.paper_table2()
    config = config or SketchConfig()
    partitions = store_partitions(store, sources)
    if backend is None:
        return _fold_partitions(store, catalog, config, partitions)
    executor = resolve_backend(backend)
    runs = [
        ManifestSlice(
            store.directory, tuple(chunk), (0, 1), on_error=store.on_error
        )
        for chunk in chunk_records(partitions, executor.shard_count)
    ]
    shards = executor.map_shards(
        _build_shard,
        runs,
        initializer=_init_build_worker,
        initargs=(catalog, config),
    )
    merged = _fold_partitions(store, catalog, config, ())
    for payload, skipped in shards:
        merged.merge(SketchPlane.from_dict(payload))
        store.record_skipped(skipped)
    return merged
