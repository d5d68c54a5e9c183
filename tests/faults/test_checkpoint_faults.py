"""Checkpoint damage: digest verification, rotation, and fallback."""

import hashlib
import json
import zlib

import pytest

from repro.core.references import RefType
from repro.faults.inject import corrupt_blob
from repro.faults.plan import FaultPlan, FaultSpec
from repro.measurement.scheduler import DayPartition
from repro.measurement.snapshot import DomainObservation
from repro.sketch import SketchConfig
from repro.stream.checkpoint import (
    PREVIOUS_SUFFIX,
    CheckpointError,
    load_checkpoint,
    load_checkpoint_with_fallback,
    save_checkpoint,
    state_digest,
)
from repro.stream.engine import StreamEngine

_MAGIC = b"REPROCKPT"
HORIZON = 8


class StubCatalog:
    def match(self, observation):
        if observation.domain.startswith("prot"):
            return {"StubDPS": frozenset({RefType.NS})}
        return {}


def partition(day):
    rows = [
        DomainObservation(
            day=day,
            domain=name,
            tld="com",
            ns_names=(f"ns1.{name}.",),
            apex_addrs=("192.0.2.1",),
            asns=frozenset({64500}),
        )
        for name in ("prot-a.com", "plain-b.com")
    ]
    return DayPartition(
        source="com", day=day, zone_size=len(rows), observations=rows
    )


def engine_at(days):
    engine = StreamEngine(HORIZON, catalog=StubCatalog(), sources=("com",))
    for day in range(days):
        engine.ingest(partition(day))
    return engine


def rewrite(path, mutate):
    """Decompress a checkpoint, let *mutate* edit the document, rewrite."""
    with open(path, "rb") as handle:
        blob = handle.read()
    document = json.loads(zlib.decompress(blob[len(_MAGIC):]))
    mutate(document)
    payload = json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(_MAGIC + zlib.compress(payload, 6))


class TestLoadDamage:
    def test_clean_roundtrip(self, tmp_path):
        engine = engine_at(3)
        path = str(tmp_path / "ckpt")
        save_checkpoint(engine, path)
        loaded = load_checkpoint(path, catalog=StubCatalog())
        assert state_digest(loaded) == state_digest(engine)

    def test_non_magic_file(self, tmp_path):
        path = tmp_path / "ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="not a stream checkpoint"):
            load_checkpoint(str(path))

    def test_truncated_blob(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(engine_at(3), path)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(corrupt_blob(blob, "truncate"))
        with pytest.raises(CheckpointError, match="decompression failed"):
            load_checkpoint(str(path))

    def test_tampered_state_fails_digest(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(engine_at(3), path)

        def tamper(document):
            document["engine"]["partitions_applied"] += 1

        rewrite(path, tamper)
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(str(path))

    def test_impossible_hll_register_is_a_checkpoint_error(self, tmp_path):
        """A re-signed plane payload whose domain counter holds a
        register past its precision's range is damage, not state."""
        engine = StreamEngine(
            HORIZON, sources=("com",), sketches=SketchConfig()
        )
        engine.ingest(partition(0))
        path = str(tmp_path / "ckpt")
        save_checkpoint(engine, path)

        def tamper(document):
            scopes = document["engine"]["sketches"]["scopes"]
            scopes["gtld"]["domains"]["sparse"] = [[1 << 12, 3]]
            payload = json.dumps(
                document["engine"], sort_keys=True, separators=(",", ":")
            )
            document["digest"] = hashlib.sha256(
                payload.encode("utf-8")
            ).hexdigest()

        rewrite(path, tamper)
        with pytest.raises(CheckpointError, match="engine payload invalid"):
            load_checkpoint(str(path))

    def test_unsupported_format(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(engine_at(1), path)
        rewrite(path, lambda document: document.update(format=99))
        with pytest.raises(CheckpointError, match="unsupported"):
            load_checkpoint(str(path))

    def test_missing_engine_payload(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(engine_at(1), path)
        rewrite(path, lambda document: document.pop("engine"))
        with pytest.raises(CheckpointError, match="no engine payload"):
            load_checkpoint(str(path))

    def test_format1_without_digest_still_loads(self, tmp_path):
        path = str(tmp_path / "ckpt")
        engine = engine_at(2)
        save_checkpoint(engine, path)

        def downgrade(document):
            document["format"] = 1
            document.pop("digest")
            # A format-1 writer could not have produced a digest, so a
            # bit-flip here goes undetected — exactly why format 2 exists.
            document["engine"]["late_arrivals"] = 0

        rewrite(path, downgrade)
        loaded = load_checkpoint(path, catalog=StubCatalog())
        assert state_digest(loaded) == state_digest(engine)


class TestRotationAndFallback:
    def save_twice(self, tmp_path):
        path = str(tmp_path / "ckpt")
        first = engine_at(2)
        save_checkpoint(first, path)
        second = engine_at(4)
        save_checkpoint(second, path)
        return path, first, second

    def test_second_save_rotates_previous(self, tmp_path):
        path, first, second = self.save_twice(tmp_path)
        previous = load_checkpoint(
            path + PREVIOUS_SUFFIX, catalog=StubCatalog()
        )
        assert state_digest(previous) == state_digest(first)
        current = load_checkpoint(path, catalog=StubCatalog())
        assert state_digest(current) == state_digest(second)

    def test_fallback_recovers_previous_good(self, tmp_path):
        path, first, _second = self.save_twice(tmp_path)
        # A torn write: the current checkpoint only half-landed.
        injector = FaultPlan(
            seed=3, specs=(FaultSpec("checkpoint.save", "torn_write"),)
        ).injector()
        event = injector.fire("checkpoint.save", key=path)
        assert event is not None and event.kind == "torn_write"
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(corrupt_blob(blob, "truncate", salt=path))
        engine, used_fallback = load_checkpoint_with_fallback(
            path, catalog=StubCatalog()
        )
        assert used_fallback
        assert state_digest(engine) == state_digest(first)

    def test_clean_load_reports_no_fallback(self, tmp_path):
        path, _first, second = self.save_twice(tmp_path)
        engine, used_fallback = load_checkpoint_with_fallback(
            path, catalog=StubCatalog()
        )
        assert not used_fallback
        assert state_digest(engine) == state_digest(second)

    def test_both_damaged_raises_original_error(self, tmp_path):
        path, _first, _second = self.save_twice(tmp_path)
        for target in (path, path + PREVIOUS_SUFFIX):
            with open(target, "wb") as handle:
                handle.write(b"garbage")
        with pytest.raises(CheckpointError, match="not a stream checkpoint"):
            load_checkpoint_with_fallback(path, catalog=StubCatalog())

    def test_damaged_without_previous_raises(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(engine_at(1), path)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        with pytest.raises(CheckpointError):
            load_checkpoint_with_fallback(path, catalog=StubCatalog())

    def test_resume_from_fallback_converges(self, tmp_path):
        """Resuming from the rotated checkpoint replays the overlap
        harmlessly (duplicates skipped) and converges to the clean state."""
        path, _first, _second = self.save_twice(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        engine, used_fallback = load_checkpoint_with_fallback(
            path, catalog=StubCatalog()
        )
        assert used_fallback
        for day in range(engine.resume_day("com") - 2, 6):
            engine.ingest(partition(day), on_duplicate="skip")
        assert state_digest(engine) == state_digest(engine_at(6))
