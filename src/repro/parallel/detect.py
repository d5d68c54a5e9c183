"""Whole-history detection over a landed segment store.

:meth:`AdoptionStudy.detect_from_store` is this pass. The store hands
each worker a :class:`~repro.store.slices.ManifestSlice` — the full
partition list plus a domain hash shard — and the worker folds the
history fragment by fragment from disk, keeping only its shard's
rows; a compacted run reaches the accumulator as one ``[start, end)``
fact. Without a backend the pass is one slice on
:class:`~repro.parallel.backend.SerialBackend`: every row kept, one
fragment's batch alive at a time.

Sharding is by *domain*, not by partition. The accumulator
(:class:`repro.core.detection.ScopeState`) would take a domain's days in
any order and grouping, but the per-shard results have to *merge*:
:meth:`DetectionResult.merge` is an integer sum plus a disjoint union of
``(domain, provider)`` interval keys, so a domain's days must be
stitched into maximal intervals inside one worker. Merging in
shard-index order makes the result byte-identical for any backend, any
shard count, and any cluster join/leave schedule.

Each worker reads through a store of its own, so it hands back the
partitions a lenient (``on_error="skip"``) read dropped; the parent
records them in the caller's store in shard order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.detection import DetectionResult, SegmentDetector
from repro.core.references import SignatureCatalog
from repro.parallel.backend import BackendSpec, SerialBackend, resolve_backend
from repro.store.slices import ManifestSlice
from repro.store.store import SegmentStore

#: ``(source, day, reason)`` for partitions a lenient read dropped.
Skipped = List[Tuple[str, int, str]]

#: Per-worker-process detector inputs (set by the pool initializer).
_WORKER_DETECT: Optional[Tuple[SignatureCatalog, int]] = None


def _init_detect_worker(catalog: SignatureCatalog, horizon: int) -> None:
    global _WORKER_DETECT
    _WORKER_DETECT = (catalog, horizon)


def detect_slice(
    manifest_slice: ManifestSlice, catalog: SignatureCatalog, horizon: int
) -> Tuple[DetectionResult, Skipped]:
    """Fold one slice's rows, in the slice's partition order, into a
    fresh detector; returns its result and the slice's skips."""
    detector = SegmentDetector(catalog, horizon)
    with manifest_slice.open() as store:
        for batch, ends in manifest_slice.batches(store):
            detector.process_runs(batch, ends)
        return detector.result(), store.skipped_partitions


def _detect_shard(
    shard_index: int, manifest_slice: ManifestSlice
) -> Tuple[DetectionResult, Skipped]:
    assert _WORKER_DETECT is not None, "worker initializer did not run"
    return detect_slice(manifest_slice, *_WORKER_DETECT)


def detect_from_slices(
    store: SegmentStore,
    sources: Sequence[str],
    catalog: SignatureCatalog,
    horizon: int,
    backend: Optional[BackendSpec] = None,
) -> DetectionResult:
    """Whole-history detection of *sources* on *backend* (default: one
    slice, in process).

    No worker (and no merge step) ever materialises more than one
    partition plus its own domain shard's results.
    """
    executor = resolve_backend(
        backend if backend is not None else SerialBackend(shard_count=1)
    )
    slices = store.manifest_slices(executor.shard_count, sources=sources)
    parts = executor.map_shards(
        _detect_shard,
        slices,
        initializer=_init_detect_worker,
        initargs=(catalog, horizon),
    )
    for _, skipped in parts:
        store.record_skipped(skipped)
    return DetectionResult.merge([result for result, _ in parts])
