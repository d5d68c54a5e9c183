"""Picklable read plans over a :class:`SegmentStore` manifest.

A :class:`ManifestSlice` is the unit of work a distributed pass hands a
worker: the store directory, the ``(source, day)`` partitions to read,
and the domain hash shard to keep. It carries no open file handles or
mmap views — only strings and integers — so it crosses any process
boundary as a tiny pickle; the worker re-opens the store from the
manifest on its side and reads partition by partition from disk.

Every slice of a plan (see :meth:`SegmentStore.manifest_slices`) covers
*all* selected partitions and keeps only the rows of its domain shard:
each worker scans the history once and materialises ``1/shard_count``
of its rows. The detection accumulator itself takes a domain's days in
any order and grouping; slices are per-domain because per-shard results
merge by a disjoint union of ``(domain, provider)`` interval keys
(:meth:`~repro.core.detection.DetectionResult.merge`), so all of a
domain's days have to be stitched into maximal intervals in one worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.batch.batch import BatchBuilder, ObservationBatch

if TYPE_CHECKING:
    from repro.store.store import SegmentStore


@dataclass(frozen=True)
class ManifestSlice:
    """One worker's read plan: partitions plus a domain shard."""

    directory: str
    #: ``(source, day)`` partitions this slice reads, in sorted order.
    partitions: Tuple[Tuple[str, int], ...]
    #: ``(shard_index, shard_count)`` — keep only domains hashing to
    #: this shard.
    domain_shard: Tuple[int, int]
    on_error: str = "raise"

    def open(self) -> "SegmentStore":
        """Open the slice's store (manifest parse only, reads lazy)."""
        from repro.store.store import SegmentStore

        return SegmentStore(self.directory, on_error=self.on_error)

    def load_batch(self) -> ObservationBatch:
        """Fold the slice into one batch, partition by partition.

        Partitions are read from disk one at a time and immediately
        filtered to the slice's domain shard, so peak row memory is one
        partition plus the slice's own rows — never the whole history.
        Pools are shared across partitions (translate-once interning),
        as in the serial pass, so the rows the slice keeps are the
        serial pass's rows byte for byte.
        """
        # Imported here: the canonical shard function lives above this
        # layer, in repro.parallel, which must stay importable without
        # the store (and vice versa).
        from repro.parallel.sharding import shard_of

        store = self.open()
        try:
            builder = BatchBuilder()
            parts: List[ObservationBatch] = []
            #: domain pool id -> belongs to this shard (ids are stable
            #: across partitions because the pools are shared).
            keep_by_id: Dict[int, bool] = {}
            index, count = self.domain_shard
            for source, day in self.partitions:
                batch = store.batch(source, day, builder=builder)
                names = batch.names
                kept: List[int] = []
                for row, domain_id in enumerate(batch.domains):
                    keep = keep_by_id.get(domain_id)
                    if keep is None:
                        keep = (
                            shard_of(names.value(domain_id), count)
                            == index
                        )
                        keep_by_id[domain_id] = keep
                    if keep:
                        kept.append(row)
                if kept:
                    parts.append(batch.take(kept))
            if not parts:
                return builder.new_batch()
            return ObservationBatch.concat(parts)
        finally:
            store.close()
