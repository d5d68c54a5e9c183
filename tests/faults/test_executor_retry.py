"""Worker-death containment in the serial and pool backends.

The tasks live at module level so the fork-based pool can run them; the
crash helpers consult :func:`faults_suppressed` so the parent's
re-execution of a lost shard succeeds where the worker died. The last
class loses a worker mid-pass over a landed store, the node loss a real
multi-host deployment would see.
"""

import os
from functools import partial

import pytest

from repro.core.pipeline import AdoptionStudy
from repro.faults.errors import WorkerCrash
from repro.faults.runtime import faults_suppressed
from repro.measurement.scheduler import PartitionFeed
from repro.parallel.backend import LocalPoolBackend, SerialBackend
from repro.sketch.build import sketch_from_store
from repro.store import SegmentStore


def double(index, shard):
    return (index, shard * 2)


def crash_on_two(index, shard):
    if index == 2 and not faults_suppressed():
        raise WorkerCrash("parallel.executor", "worker_crash", key="2")
    return (index, shard * 2)


def fail_on_two(index, shard):
    if index == 2:
        raise ValueError("shard 2 is broken for real")
    return (index, shard * 2)


def die_on_two(index, shard):
    if index == 2 and not faults_suppressed():
        # A real worker death: the process vanishes without an exception,
        # which surfaces to the parent as a broken pool.
        os._exit(1)
    return (index, shard * 2)


SHARDS = [10, 20, 30, 40]
EXPECTED = [(0, 20), (1, 40), (2, 60), (3, 80)]


def _in_process_backends():
    """Both spellings of the in-process loop share one retry path."""
    return [SerialBackend(), LocalPoolBackend(workers=1)]


class TestSerialPath:
    def test_clean_run(self):
        for executor in _in_process_backends():
            assert executor.map_shards(double, SHARDS) == EXPECTED
            assert executor.shards_retried == 0

    def test_crashed_shard_reexecuted_in_order(self):
        for executor in _in_process_backends():
            assert executor.map_shards(crash_on_two, SHARDS) == EXPECTED
            assert executor.shards_retried == 1

    def test_non_retryable_error_propagates(self):
        for executor in _in_process_backends():
            with pytest.raises(ValueError, match="broken for real"):
                executor.map_shards(fail_on_two, SHARDS)
            assert executor.shards_retried == 0


class TestPoolPath:
    def test_clean_run(self):
        executor = LocalPoolBackend(workers=2, shard_count=4)
        assert executor.map_shards(double, SHARDS) == EXPECTED
        assert executor.shards_retried == 0

    def test_worker_crash_retries_only_that_shard(self):
        executor = LocalPoolBackend(workers=2, shard_count=4)
        assert executor.map_shards(crash_on_two, SHARDS) == EXPECTED
        assert executor.shards_retried == 1

    def test_non_retryable_error_propagates(self):
        executor = LocalPoolBackend(workers=2, shard_count=4)
        with pytest.raises(ValueError, match="broken for real"):
            executor.map_shards(fail_on_two, SHARDS)

    def test_dead_worker_process_breaks_pool_but_not_run(self):
        """``os._exit`` kills the worker outright; every shard the broken
        pool lost is re-executed in the parent and the output is intact."""
        executor = LocalPoolBackend(workers=2, shard_count=4)
        assert executor.map_shards(die_on_two, SHARDS) == EXPECTED
        assert executor.shards_retried >= 1


class TestWorkerCrashPickling:
    def test_roundtrip_preserves_site_kind_key(self):
        import pickle

        crash = WorkerCrash("parallel.executor", "worker_crash", key="3")
        clone = pickle.loads(pickle.dumps(crash))
        assert isinstance(clone, WorkerCrash)
        assert (clone.site, clone.kind, clone.key) == (
            crash.site,
            crash.kind,
            crash.key,
        )
        assert clone.shard_retryable


def die_on_one(task, index, shard):
    """Run *task*, except that the child running shard 1 dies outright."""
    if index == 1 and not faults_suppressed():
        os._exit(1)
    return task(index, shard)


class DyingPool(LocalPoolBackend):
    """A two-worker pool whose every task is wrapped in :func:`die_on_one`."""

    def __init__(self):
        super().__init__(workers=2, shard_count=4)

    def map_shards(self, task, shards, initializer=None, initargs=()):
        return super().map_shards(
            partial(die_on_one, task), shards, initializer, initargs
        )


STORE_SOURCES = ("com", "org")


@pytest.fixture(scope="module")
def landed_store(tiny_world, tmp_path_factory):
    """Four days of two sources measured into a segment store."""
    store = SegmentStore(
        str(tmp_path_factory.mktemp("dying-pool")), create=True
    )
    feed = PartitionFeed(tiny_world, sources=STORE_SOURCES)
    store.append_partitions(
        (part.source, part.day, part.observations)
        for part in feed.days(end=4)
    )
    yield store
    store.close()


class TestStoreBackedWorkerDeath:
    def test_detect_from_slices_survives_a_dead_worker(
        self, tiny_world, landed_store
    ):
        study = AdoptionStudy(tiny_world)
        expected = study.detect_from_store(landed_store, STORE_SOURCES)
        assert any(expected.any_use_combined)
        pool = DyingPool()
        detected = study.detect_from_store(
            landed_store, STORE_SOURCES, backend=pool
        )
        assert detected == expected
        assert pool.shards_retried >= 1

    def test_sketch_from_store_survives_a_dead_worker(self, landed_store):
        expected = sketch_from_store(landed_store, sources=STORE_SOURCES)
        pool = DyingPool()
        sharded = sketch_from_store(
            landed_store, sources=STORE_SOURCES, backend=pool
        )
        assert sharded.state_digest() == expected.state_digest()
        assert pool.shards_retried >= 1
