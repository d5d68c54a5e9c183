"""Cross-mode byte-identity of the sketch plane, three seeds.

The plane is a commutative fold over observation facts, so every way of
producing it must land on the same bytes: the live engine maintaining
it row by row, the store rebuild, and an engine killed mid-history
and resumed from its checkpoint.
``SketchPlane.state_digest`` hashes the canonical serialized form, so
digest equality is byte equality. Each id here is a cell of the
conformance matrix (``tests/integration/test_conformance.py``) on the
same seed, checked through :func:`tests.conformance.check_cell`; the
rebuild cell also asserts that space-saving stayed exact, the regime
the byte-identity relies on.
"""

from tests.conformance import check_cell


class TestThreeSeedSketchIdentity:
    def test_engine_matches_serial_store_rebuild(self, conformance):
        check_cell(conformance, "path-engine-replay")
        check_cell(conformance, "path-sketch-serial")

    def test_kill_resume_plane_is_byte_identical(self, conformance):
        check_cell(conformance, "path-kill-resume")

    def test_space_saving_streams_stay_exact(self, conformance):
        check_cell(conformance, "path-sketch-serial")
