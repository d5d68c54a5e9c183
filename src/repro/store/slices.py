"""Picklable read plans over a :class:`SegmentStore` manifest.

A :class:`ManifestSlice` is the unit of work a distributed pass hands a
worker: the store directory, the ``(source, day)`` partitions to read,
and the domain hash shard to keep. It carries no open file handles or
mmap views — only strings and integers — so it crosses any process
boundary as a tiny pickle; the worker re-opens the store from the
manifest on its side and reads fragment by fragment from disk
(:meth:`ManifestSlice.batches`).

Every slice of a detection plan (see
:meth:`SegmentStore.manifest_slices`) covers *all* selected partitions
and keeps only the rows of its domain shard: each worker scans the
history once, folding ``1/shard_count`` of its rows partition by
partition. The detection accumulator itself takes a domain's days in
any order and grouping; slices are per-domain because per-shard results
merge by a disjoint union of ``(domain, provider)`` interval keys
(:meth:`~repro.core.detection.DetectionResult.merge`), so all of a
domain's days have to be stitched into maximal intervals in one worker.
The sketch rebuild's plan is the other shape: contiguous partition runs,
each slice keeping every domain (shard ``(0, 1)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from repro.batch.batch import BatchBuilder, ObservationBatch

if TYPE_CHECKING:
    from repro.store.store import SegmentStore


@dataclass(frozen=True)
class ManifestSlice:
    """One worker's read plan: partitions plus a domain shard."""

    directory: str
    #: ``(source, day)`` partitions this slice reads, in read order.
    partitions: Tuple[Tuple[str, int], ...]
    #: ``(shard_index, shard_count)`` — keep only domains hashing to
    #: this shard.
    domain_shard: Tuple[int, int]
    on_error: str = "raise"

    def open(self) -> "SegmentStore":
        """Open the slice's store (manifest parse only, reads lazy)."""
        from repro.store.store import SegmentStore

        return SegmentStore(self.directory, on_error=self.on_error)

    def batches(
        self, store: "SegmentStore"
    ) -> Iterator[Tuple[ObservationBatch, List[int]]]:
        """The slice's rows as runs, one stored fragment at a time, read
        from *store* (this slice's :meth:`open`): ``(batch, ends)``,
        row *i* holding on ``[batch.days[i], ends[i])``.

        Each fragment is decoded once (:meth:`SegmentStore.spans`) and
        filtered to the slice's domain shard before the next is
        touched, so peak row memory is one fragment; one whose every
        row is kept is yielded as read, with no copy. Pools are shared
        across fragments (translate-once interning), so the runs the
        slice keeps state exactly the daily rows an unsharded read
        yields.
        """
        # Imported here: the canonical shard function lives above this
        # layer, in repro.parallel, which must stay importable without
        # the store (and vice versa).
        from repro.parallel.sharding import shard_of

        builder = BatchBuilder()
        #: domain pool id -> belongs to this shard (ids are stable
        #: across partitions because the pools are shared).
        keep_by_id: Dict[int, bool] = {}
        index, count = self.domain_shard
        for batch, ends in store.spans(self.partitions, builder):
            names = batch.names
            kept: List[int] = []
            for row, domain_id in enumerate(batch.domains):
                keep = keep_by_id.get(domain_id)
                if keep is None:
                    keep = shard_of(names.value(domain_id), count) == index
                    keep_by_id[domain_id] = keep
                if keep:
                    kept.append(row)
            if len(kept) == len(batch):
                yield batch, ends
            elif kept:
                yield batch.take(kept), [ends[row] for row in kept]
