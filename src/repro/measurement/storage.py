"""In-memory columnar observation partitions with size accounting.

The real platform lands measurements in Parquet on a Hadoop cluster;
Table 1 reports per-source data-point counts and compressed sizes.
:class:`ColumnStore` is the in-memory face of :mod:`repro.store`: it
holds each ``(source, day)`` partition as the column lists
:mod:`repro.store` shreds, and everything that turns those lists into
bytes, rows or files — shredding, the segment encoding behind the
Table 1 byte sizes, row boxing, the on-disk layout — is a call into
that package. ``docs/STORAGE.md`` specifies the format.

:meth:`ColumnStore.save` writes ``<dir>/segments/g0-<seq>.rseg`` — one
generation-0 segment per partition — plus ``<dir>/manifest.json``, the
same directory :class:`repro.store.SegmentStore` opens. For big on-disk
histories prefer ``SegmentStore``, which reads segments lazily (mmap,
pruned by the manifest) instead of materialising every partition.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.batch.batch import BatchBuilder, ObservationBatch
from repro.measurement.snapshot import DomainObservation
from repro.store.errors import StorageError
from repro.store.manifest import StoreManifest
from repro.store.segment import build_segment, encode_columns
from repro.store.stats import PartitionStats
from repro.store.store import (
    Columns,
    SegmentStore,
    batch_columns,
    column_rows,
    extend_batch,
    extend_columns,
    land_segment,
)

__all__ = [
    "ColumnStore",
    "PartitionStats",
    "StorageError",
]


class ColumnStore:
    """In-memory columnar partitions of observations."""

    def __init__(self) -> None:
        self._partitions: Dict[Tuple[str, int], Columns] = {}
        #: (source, day, reason) for partitions dropped by a lenient load.
        self.skipped_partitions: List[Tuple[str, int, str]] = []

    # -- writing ------------------------------------------------------------

    def append(
        self, source: str, day: int, observations: Sequence[DomainObservation]
    ) -> None:
        """Write a day's observations into the (source, day) partition."""
        self.append_batch(
            source, day, ObservationBatch.from_rows(observations)
        )

    def append_batch(
        self, source: str, day: int, batch: ObservationBatch
    ) -> None:
        """Write a batch into the (source, day) partition — the same
        columns as ``append(source, day, batch.rows())``, without boxing
        a row per observation."""
        self._extend(source, day, batch_columns(batch))

    def _extend(self, source: str, day: int, columns: Columns) -> None:
        existing = self._partitions.setdefault((source, day), columns)
        if existing is not columns:
            extend_columns(existing, columns)

    # -- reading --------------------------------------------------------------

    def partitions(self) -> List[Tuple[str, int]]:
        return sorted(self._partitions)

    def partition_columns(self, source: str, day: int) -> Columns:
        """One partition's raw column lists (the storage shape)."""
        return self._partitions[(source, day)]

    def rows(self, source: str, day: int) -> Iterator[DomainObservation]:
        """Re-materialise the observations of one partition."""
        columns = self._partitions.get((source, day))
        return column_rows(day, columns) if columns else iter(())

    def row_count(self, source: str, day: int) -> int:
        columns = self._partitions.get((source, day))
        return len(columns["domain"]) if columns else 0

    def batch(
        self,
        source: str,
        day: int,
        builder: Optional[BatchBuilder] = None,
    ) -> ObservationBatch:
        """One partition as a columnar batch — the bulk counterpart of
        :meth:`rows`, interning straight from the stored columns with no
        per-row :class:`DomainObservation` boxing. Pass a shared
        *builder* to intern many partitions into one pool pair.
        """
        out = (
            builder if builder is not None else BatchBuilder()
        ).new_batch()
        columns = self._partitions.get((source, day))
        if columns is not None:
            # Un-encoded columns are pages whose every row is an entry.
            rows = range(len(columns["domain"]))
            extend_batch(
                out,
                day,
                {name: (cells, rows) for name, cells in columns.items()},
            )
        return out

    def batches(
        self, builder: Optional[BatchBuilder] = None
    ) -> Iterator[Tuple[str, int, ObservationBatch]]:
        """Every partition as ``(source, day, batch)``, in sorted
        partition order, sharing one pool pair across all yields."""
        shared = builder if builder is not None else BatchBuilder()
        for source, day in self.partitions():
            yield source, day, self.batch(source, day, builder=shared)

    # -- encoding and statistics --------------------------------------------------

    def segment_bytes(self, source: str, day: int) -> bytes:
        """The partition as one standalone segment — the exact bytes
        :meth:`save` lands on disk for it."""
        return build_segment(
            [(source, day, self._partitions[(source, day)])]
        )

    def partition_stats(self, source: str, day: int) -> PartitionStats:
        return PartitionStats.measured(
            source,
            day,
            self.row_count(source, day),
            len(self.segment_bytes(source, day)),
        )

    def total_stats(self, source: Optional[str] = None) -> PartitionStats:
        """Aggregate stats over all (or one source's) partitions."""
        return PartitionStats.total(
            source or "total",
            (
                self.partition_stats(*key)
                for key in self._partitions
                if source is None or key[0] == source
            ),
        )

    # -- disk persistence ---------------------------------------------------

    def save(self, directory: str) -> List[str]:
        """Write every partition as a segment plus a manifest.

        Layout: ``<dir>/segments/g0-<seq>.rseg`` — one generation-0
        segment per partition, in sorted partition order — and
        ``<dir>/manifest.json``. Returns the file paths written.
        """
        manifest = StoreManifest()
        written = [
            os.path.join(
                directory,
                land_segment(
                    directory, manifest, 0, sequence,
                    [encode_columns(
                        source, day, self._partitions[(source, day)]
                    )],
                ),
            )
            for sequence, (source, day) in enumerate(self.partitions())
        ]
        written.append(manifest.save(directory))
        return written

    @classmethod
    def load(cls, directory: str, on_error: str = "raise") -> "ColumnStore":
        """Rebuild a store from a segment store directory.

        A damaged partition raises :class:`StorageError`, or — with
        ``on_error="skip"`` — is dropped whole and recorded in
        :attr:`skipped_partitions`, so one rotten day costs one day of
        data, not the run. A legacy v1 directory is rejected with a
        :class:`StorageError` naming ``repro store migrate``.
        """
        store = cls()
        with SegmentStore(directory, on_error=on_error) as disk:
            for source, day in disk.partitions():
                columns = disk.columns(source, day)
                if columns is not None:
                    store._partitions[(source, day)] = columns
            store.skipped_partitions = disk.skipped_partitions
        return store
