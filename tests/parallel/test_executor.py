"""LocalPoolBackend: worker resolution, serial fallback, ordering."""

import os
import time

import pytest

from repro.parallel.backend import (
    REPRO_WORKERS_ENV,
    SHARDS_PER_WORKER,
    LocalPoolBackend,
    resolve_workers,
)

_INIT_STATE = {}


def _record_pid(shard_index, payload):
    return (shard_index, payload, os.getpid())


def _sleepy_identity(shard_index, payload):
    # Shard 0 finishes last; collection order must not care.
    if shard_index == 0:
        time.sleep(0.3)
    return shard_index


def _set_init_state(value):
    _INIT_STATE["value"] = value


def _read_init_state(shard_index, payload):
    return _INIT_STATE.get("value")


def _explode(shard_index, payload):
    raise ValueError(f"shard {shard_index} exploded")


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "9")
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "6")
        assert resolve_workers() == 6

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(REPRO_WORKERS_ENV, raising=False)
        assert resolve_workers() == (os.cpu_count() or 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_env_garbage_clamps_to_one_with_warning(self, monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "garbage")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_workers() == 1

    def test_env_zero_clamps_to_one_with_warning(self, monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "0")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_workers() == 1

    def test_env_negative_clamps_to_one_with_warning(self, monkeypatch):
        monkeypatch.setenv(REPRO_WORKERS_ENV, "-3")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_workers() == 1

    def test_shard_count_defaults_to_multiple_of_workers(self):
        executor = LocalPoolBackend(workers=3)
        assert executor.shard_count == 3 * SHARDS_PER_WORKER

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            LocalPoolBackend(workers=1, shard_count=0)


class TestSerialFallback:
    def test_single_worker_runs_in_process(self):
        executor = LocalPoolBackend(workers=1, shard_count=4)
        results = executor.map_shards(_record_pid, ["a", "b", "c", "d"])
        assert [payload for _, payload, _ in results] == ["a", "b", "c", "d"]
        assert {pid for _, _, pid in results} == {os.getpid()}

    def test_single_shard_runs_in_process(self):
        executor = LocalPoolBackend(workers=4, shard_count=1)
        results = executor.map_shards(_record_pid, ["only"])
        assert results == [(0, "only", os.getpid())]

    def test_initializer_runs_in_process(self):
        _INIT_STATE.clear()
        executor = LocalPoolBackend(workers=1, shard_count=2)
        results = executor.map_shards(
            _read_init_state,
            ["x", "y"],
            initializer=_set_init_state,
            initargs=("seeded",),
        )
        assert results == ["seeded", "seeded"]
        assert _INIT_STATE["value"] == "seeded"

    def test_errors_propagate(self):
        executor = LocalPoolBackend(workers=1, shard_count=2)
        with pytest.raises(ValueError, match="shard 0 exploded"):
            executor.map_shards(_explode, ["a", "b"])


class TestProcessPool:
    def test_results_in_shard_index_order(self):
        executor = LocalPoolBackend(workers=2, shard_count=4)
        results = executor.map_shards(_sleepy_identity, list("abcd"))
        assert results == [0, 1, 2, 3]

    def test_work_happens_in_child_processes(self):
        executor = LocalPoolBackend(workers=2, shard_count=4)
        results = executor.map_shards(_record_pid, list("abcd"))
        assert [payload for _, payload, _ in results] == list("abcd")
        assert os.getpid() not in {pid for _, _, pid in results}

    def test_initializer_reaches_workers(self):
        executor = LocalPoolBackend(workers=2, shard_count=4)
        results = executor.map_shards(
            _read_init_state,
            list("abcd"),
            initializer=_set_init_state,
            initargs=("forked",),
        )
        assert results == ["forked"] * 4

    def test_errors_propagate_from_workers(self):
        executor = LocalPoolBackend(workers=2, shard_count=3)
        with pytest.raises(ValueError, match="exploded"):
            executor.map_shards(_explode, ["a", "b", "c"])
