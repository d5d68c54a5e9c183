"""Partition size accounting shared by the in-memory and on-disk stores."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.measurement.snapshot import MEASUREMENTS_PER_DOMAIN_DAY


@dataclass
class PartitionStats:
    """Size accounting for one stored partition.

    ``encoded_bytes`` is the partition's actual on-disk footprint in the
    segment format — header, dictionary pages, directory entry, and
    footer for a standalone segment; the partition's page bytes when it
    shares a multi-partition compacted run — so the Table 1
    measured-vs-extrapolated storage comparison reports what the store
    really writes.
    """

    source: str
    day: int
    rows: int
    data_points: int
    encoded_bytes: int

    @classmethod
    def measured(
        cls, source: str, day: int, rows: int, encoded_bytes: int
    ) -> "PartitionStats":
        """Stats of one partition from its row count and byte size."""
        return cls(
            source=source,
            day=day,
            rows=rows,
            data_points=rows * MEASUREMENTS_PER_DOMAIN_DAY,
            encoded_bytes=encoded_bytes,
        )

    @classmethod
    def total(
        cls, label: str, parts: Iterable["PartitionStats"]
    ) -> "PartitionStats":
        """The sum of *parts*; ``day`` holds the distinct-day count."""
        parts = list(parts)
        return cls(
            source=label,
            day=len({part.day for part in parts}),
            rows=sum(part.rows for part in parts),
            data_points=sum(part.data_points for part in parts),
            encoded_bytes=sum(part.encoded_bytes for part in parts),
        )
