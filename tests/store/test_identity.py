"""Segment-store identity: mmap reads change nothing downstream.

The matrix's baseline store is the fresh on-disk :class:`SegmentStore`,
so every path cell already reads it. Each id here is a cell of the
conformance matrix (``tests/integration/test_conformance.py``) on the
same seed, checked through :func:`tests.conformance.check_cell`: the
streamed engine and whole-history ``detect_from_store`` over the fresh
segment store, and ``detect_from_store`` over the compacted one.
"""

from tests.conformance import check_cell


class TestSegmentStoreIdentity:
    def test_detect_from_store_matches_column_store(self, conformance):
        check_cell(conformance, "path-detect-from-store")

    def test_streamed_engine_state_digest_identical(self, conformance):
        check_cell(conformance, "path-engine-replay")

    def test_compacted_store_detection_identical(self, conformance):
        check_cell(conformance, "store-compacted")
