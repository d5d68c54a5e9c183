"""Cross-mode byte-identity of the batch-first pipeline, three seeds.

The columnar plane is only allowed to change *how* data moves, never
*what* comes out. Each id here is a cell of the conformance matrix
(``tests/integration/test_conformance.py``) on the same seed, checked
through :func:`tests.conformance.check_cell`, so the work runs once
however many ids ask for it:

* whole-history ``detect_from_store`` over the landed ``SegmentStore``;
* a streamed engine fed the columnar partitions replayed from it,
  straight through and across a kill/checkpoint/resume cycle.
"""

from tests.conformance import check_cell


class TestThreeSeedIdentity:
    def test_detect_from_store_matches_serial_detection(self, conformance):
        check_cell(conformance, "path-detect-from-store")

    def test_streamed_batches_match_serial_detection(self, conformance):
        check_cell(conformance, "path-engine-replay")

    def test_kill_resume_streams_to_identical_state(self, conformance):
        check_cell(conformance, "path-kill-resume")
