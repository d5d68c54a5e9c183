"""Sharded detection over a landed segment store.

The serial :meth:`AdoptionStudy.detect_from_store` folds the store one
partition at a time through one detector. This module is its
distributed form: the store hands each worker a
:class:`~repro.store.slices.ManifestSlice` — the full partition list
plus a domain hash shard — and the worker reads the history partition
by partition from disk, keeping only its shard's rows.

Sharding is by *domain*, not by partition. The accumulator
(:class:`repro.core.detection.ScopeState`) would take a domain's days in
any order and grouping, but the per-shard results have to *merge*:
:meth:`DetectionResult.merge` is an integer sum plus a disjoint union of
``(domain, provider)`` interval keys, so a domain's days must be
stitched into maximal intervals inside one worker. Merging in
shard-index order makes the result byte-identical to the serial pass —
for any backend, any shard count, and any cluster join/leave schedule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.detection import DetectionResult, SegmentDetector
from repro.core.references import SignatureCatalog
from repro.parallel.backend import BackendSpec, resolve_backend
from repro.store.slices import ManifestSlice
from repro.store.store import SegmentStore

#: Per-worker-process detector inputs (set by the pool initializer).
_WORKER_DETECT: Optional[Tuple[SignatureCatalog, int]] = None


def _init_detect_worker(catalog: SignatureCatalog, horizon: int) -> None:
    global _WORKER_DETECT
    _WORKER_DETECT = (catalog, horizon)


def _detect_shard(
    shard_index: int, manifest_slice: ManifestSlice
) -> DetectionResult:
    """Fold one domain shard's rows from its slice."""
    assert _WORKER_DETECT is not None, "worker initializer did not run"
    catalog, horizon = _WORKER_DETECT
    detector = SegmentDetector(catalog, horizon)
    batch = manifest_slice.load_batch()
    if len(batch):
        detector.process_batch(batch)
    return detector.result()


def detect_from_slices(
    store: SegmentStore,
    sources: Sequence[str],
    catalog: SignatureCatalog,
    horizon: int,
    backend: Optional[BackendSpec] = None,
) -> DetectionResult:
    """Distributed :meth:`AdoptionStudy.detect_from_store`.

    Byte-identical to the serial pass; no worker (and no merge step)
    ever materialises more than one partition plus its own domain
    shard's rows.
    """
    executor = resolve_backend(backend)
    slices = store.manifest_slices(executor.shard_count, sources=sources)
    parts: List[DetectionResult] = executor.map_shards(
        _detect_shard,
        slices,
        initializer=_init_detect_worker,
        initargs=(catalog, horizon),
    )
    return DetectionResult.merge(parts)
