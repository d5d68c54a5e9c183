"""The structural store interface feeds and the study pipeline accept.

Both :class:`repro.store.store.SegmentStore` (on-disk, lazy, pruned)
and its in-memory face :class:`repro.measurement.storage.ColumnStore`
satisfy this protocol, so everything downstream of landing — replay
feeds, whole-history detection, Table 1 accounting — is store-agnostic.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Protocol, Tuple

from repro.batch.batch import BatchBuilder, ObservationBatch
from repro.measurement.snapshot import DomainObservation
from repro.store.stats import PartitionStats


class ObservationStore(Protocol):
    """Reading surface shared by the on-disk and in-memory stores."""

    #: (source, day, reason) for partitions dropped by lenient reads.
    skipped_partitions: List[Tuple[str, int, str]]

    def partitions(self) -> List[Tuple[str, int]]:
        ...

    def rows(self, source: str, day: int) -> Iterator[DomainObservation]:
        ...

    def row_count(self, source: str, day: int) -> int:
        ...

    def batch(
        self,
        source: str,
        day: int,
        builder: Optional[BatchBuilder] = None,
    ) -> ObservationBatch:
        ...

    def batches(
        self, builder: Optional[BatchBuilder] = None
    ) -> Iterator[Tuple[str, int, ObservationBatch]]:
        ...

    def partition_stats(self, source: str, day: int) -> PartitionStats:
        ...

    def total_stats(
        self, source: Optional[str] = None
    ) -> PartitionStats:
        ...
