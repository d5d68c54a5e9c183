"""Tests for checkpoint serialisation, atomicity and resume."""

import json
import os
import zlib

import pytest

from repro.faults.inject import PoisonedRow
from repro.measurement.scheduler import DayPartition
from repro.stream import checkpoint
from repro.stream.checkpoint import (
    CheckpointError,
    dump_state,
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.stream.engine import (
    DROPPED,
    QUARANTINED,
    RECONCILED,
    StreamEngine,
)

from tests.stream.test_engine import (
    DOMAINS,
    StubCatalog,
    day_partitions,
    engine,
    partition,
)


class TestDumpState:
    def test_equal_states_dump_identical_bytes(self):
        first, second = engine(), engine()
        for stream in (first, second):
            stream.ingest_feed(day_partitions(range(4)))
        assert dump_state(first) == dump_state(second)
        assert state_digest(first) == state_digest(second)

    def test_different_states_differ(self):
        first, second = engine(), engine()
        first.ingest_feed(day_partitions(range(4)))
        second.ingest_feed(day_partitions(range(3)))
        assert state_digest(first) != state_digest(second)

    def test_roundtrip_through_dict(self):
        stream = engine()
        stream.ingest_feed(day_partitions(range(4)))
        restored = StreamEngine.from_dict(
            stream.to_dict(), catalog=StubCatalog()
        )
        assert dump_state(restored) == dump_state(stream)


class TestSaveLoad:
    def test_save_and_load_roundtrip(self, tmp_path):
        stream = engine()
        stream.ingest_feed(day_partitions(range(5)))
        path = str(tmp_path / "stream.ckpt")
        written = save_checkpoint(stream, path)
        assert written == os.path.getsize(path)
        restored = load_checkpoint(path, catalog=StubCatalog())
        assert state_digest(restored) == state_digest(stream)

    def test_resumed_engine_continues_ingest(self, tmp_path):
        parts = day_partitions(range(6))
        interrupted = engine()
        interrupted.ingest_feed(parts[:3])
        path = str(tmp_path / "stream.ckpt")
        save_checkpoint(interrupted, path)
        resumed = load_checkpoint(path, catalog=StubCatalog())
        assert resumed.resume_day("com") == 3
        resumed.ingest_feed(parts[3:])
        uninterrupted = engine()
        uninterrupted.ingest_feed(parts)
        assert dump_state(resumed) == dump_state(uninterrupted)

    def test_quarantine_survives_checkpoint(self, tmp_path):
        stream = engine()
        stream.ingest(partition("com", 0, DOMAINS))
        stream.ingest(partition("com", 2, DOMAINS))
        path = str(tmp_path / "stream.ckpt")
        save_checkpoint(stream, path)
        resumed = load_checkpoint(path, catalog=StubCatalog())
        assert resumed.pending_days("com") == [2]
        # The gap fills after the resume; the quarantined day drains.
        resumed.ingest(partition("com", 1, DOMAINS))
        assert resumed.next_day("com") == 3
        assert resumed.adoption("StubDPS", day=2) == 1

    def test_poisoned_held_partition_refuses_a_typed_checkpoint(
        self, tmp_path
    ):
        """A held (quarantined) partition is unread until it applies, so
        a poisoned one surfaces at checkpoint time: a typed refusal
        naming the source and day, and nothing written."""
        stream = StreamEngine(10, sources=("com",))
        stream.ingest(partition("com", 0, DOMAINS))
        poisoned = DayPartition(
            source="com", day=2, zone_size=1, observations=[PoisonedRow()]
        )
        assert stream.ingest(poisoned) == QUARANTINED
        refusal = r"\(com, 2\) is unreadable: poisoned observation row"
        with pytest.raises(CheckpointError, match=refusal):
            dump_state(stream)
        path = str(tmp_path / "stream.ckpt")
        with pytest.raises(CheckpointError, match=refusal):
            save_checkpoint(stream, path)
        assert list(tmp_path.iterdir()) == []

    def test_resume_keeps_every_ingest_counter(self, tmp_path):
        """Kill after a late arrival, a dropped partition, a hole and a
        quarantined scope: the resumed engine's state equals the
        uninterrupted engine's, counters included."""
        nl_domains = ["prot-c.nl", "plain-d.nl"]

        def before_kill(stream):
            stream.ingest_feed(day_partitions([0, 1]))
            assert stream.ingest(partition("com", 4, DOMAINS)) == QUARANTINED
            assert stream.skip_missing("com") == [2, 3]
            assert stream.ingest(partition("com", 2, DOMAINS)) == RECONCILED
            stream.quarantine_scope("nl", "poisoned feed")
            assert stream.ingest(partition("nl", 0, nl_domains)) == DROPPED

        def after_kill(stream):
            stream.ingest_feed(day_partitions([5, 6]))
            assert stream.ingest(partition("nl", 1, nl_domains)) == DROPPED

        interrupted = engine(sources=("com", "nl"))
        before_kill(interrupted)
        assert interrupted.late_arrivals == 1
        assert interrupted.partitions_dropped == 1
        assert interrupted.missing_days("com") == [3]
        path = str(tmp_path / "stream.ckpt")
        save_checkpoint(interrupted, path)
        resumed = load_checkpoint(path, catalog=StubCatalog())
        after_kill(resumed)

        uninterrupted = engine(sources=("com", "nl"))
        before_kill(uninterrupted)
        after_kill(uninterrupted)
        assert resumed.to_dict() == uninterrupted.to_dict()

    def test_no_temp_file_left_behind(self, tmp_path):
        stream = engine()
        stream.ingest_feed(day_partitions(range(2)))
        save_checkpoint(stream, str(tmp_path / "stream.ckpt"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stream.ckpt"]

    def test_save_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "stream.ckpt")
        save_checkpoint(engine(), path)
        assert os.path.exists(path)

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "bogus"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="not a stream checkpoint"):
            load_checkpoint(str(path))

    def test_rejects_unknown_format(self, tmp_path):
        blob = checkpoint._MAGIC + zlib.compress(
            json.dumps({"format": 99, "engine": {}}).encode()
        )
        path = tmp_path / "future.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            load_checkpoint(str(path))
