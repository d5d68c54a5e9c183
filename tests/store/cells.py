"""Test helpers: push column cells through segment bytes and back.

A segment is the only encoding a partition can take, so "does the
store's encoding round-trip X" is always this path.
"""

from repro.batch.batch import ObservationBatch
from repro.store import SegmentReader, build_segment
from repro.store.store import batch_columns


def segment_roundtrip(column, values):
    """*values* as one stored column: segment bytes out, reader back."""
    reader = SegmentReader.from_bytes(
        build_segment([("com", 0, {column: values})])
    )
    return reader.column_cells(reader.partitions[0], column)


def stored_cells(store, source, day):
    """Every column of one landed partition, decoded from the segment
    bytes the store wrote for it."""
    return store.columns(source, day)


def row_columns(rows):
    """The column lists *rows* shred into, no store involved."""
    return batch_columns(ObservationBatch.from_rows(rows))
