"""The segment store: binary column segments with an LSM flavor.

``repro.store`` is the only code that knows what bytes a partition
becomes — how it is shredded into columns, encoded, boxed back into
rows, loaded from disk and accounted:

* :mod:`repro.store.codecs` — per-column page codecs (dictionary pages
  with raw or run-length index streams, delta varints for int lists,
  zlib-of-page fallback), chosen adaptively per column.
* :mod:`repro.store.segment` — the versioned binary segment format
  (struct-packed header and directory, per-column pages, CRC-32
  footer), written via atomic rename and read through ``mmap`` so
  column bytes slice zero-copy out of the page cache.
* :mod:`repro.store.manifest` — the store manifest: per-segment
  generation, day range, and source set, enabling partition pruning by
  day window and source before any segment byte is touched.
* :mod:`repro.store.store` — the column shredders and row boxer, and
  :class:`SegmentStore`, the one observation store: every landed
  partition, replay feed, whole-history pass and Table 1 size goes
  through it, with tiered compaction of day segments into multi-day
  runs.

There is one on-disk layout: a ``manifest.json`` of any format but 2
is refused with :class:`StorageError`. See ``docs/STORAGE.md`` for the
byte-level format specification.
"""

from repro.store.errors import StorageError
from repro.store.manifest import SegmentMeta, StoreManifest
from repro.store.segment import (
    SEGMENT_SUFFIX,
    SegmentReader,
    build_segment,
    write_segment,
)
from repro.store.stats import PartitionStats
from repro.store.store import SegmentStore

__all__ = [
    "PartitionStats",
    "SEGMENT_SUFFIX",
    "SegmentMeta",
    "SegmentReader",
    "SegmentStore",
    "StorageError",
    "StoreManifest",
    "build_segment",
    "write_segment",
]
