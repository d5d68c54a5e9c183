"""Test helpers: push column cells through segment bytes and back.

A segment is the only encoding a partition can take, so "does the
store's encoding round-trip X" is always this path.
"""

from repro.store import SegmentReader, build_segment


def segment_roundtrip(column, values):
    """*values* as one stored column: segment bytes out, reader back."""
    reader = SegmentReader.from_bytes(
        build_segment([("com", 0, {column: values})])
    )
    return reader.column_cells(reader.partitions[0], column)


def stored_cells(store, source, day):
    """Every column of one ``ColumnStore`` partition, read back from the
    bytes ``save()`` would write for it."""
    reader = SegmentReader.from_bytes(store.segment_bytes(source, day))
    (ref,) = reader.partitions
    return {name: reader.column_cells(ref, name) for name in ref.columns}
