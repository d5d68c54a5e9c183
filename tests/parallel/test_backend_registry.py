"""Backend resolution: precedence, the two names, and fallbacks."""

from __future__ import annotations

import pytest

from repro.parallel import backend as backend_module
from repro.parallel.backend import (
    REPRO_BACKEND_ENV,
    BackendError,
    LocalPoolBackend,
    SerialBackend,
    resolve_backend,
)


def _double(shard_index, payload):
    return [value * 2 for value in payload]


class TestRegistry:
    def test_shipped_backends_are_registered(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(
            resolve_backend("local", workers=1), LocalPoolBackend
        )


class TestPrecedence:
    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "local")
        assert isinstance(resolve_backend("serial"), SerialBackend)

    def test_explicit_instance_passes_through(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "serial")
        instance = LocalPoolBackend(workers=3)
        assert resolve_backend(instance) is instance

    @pytest.mark.parametrize(
        "numbers", [{"workers": 2}, {"shard_count": 4}]
    )
    def test_instance_refuses_worker_and_shard_numbers(self, numbers):
        """An instance carries its own; nothing is dropped silently."""
        with pytest.raises(BackendError, match="backend instance"):
            resolve_backend(SerialBackend(), **numbers)

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "serial")
        assert isinstance(resolve_backend(), SerialBackend)

    def test_default_is_local(self, monkeypatch):
        monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        assert isinstance(
            resolve_backend(workers=1), LocalPoolBackend
        )

    def test_empty_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "")
        assert isinstance(
            resolve_backend(workers=1), LocalPoolBackend
        )


class TestSpecs:
    def test_local_spec_defaults_shards_per_worker(self):
        backend = resolve_backend("local", workers=3)
        assert backend.workers == 3
        assert backend.shard_count == 12

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(BackendError, match="local, serial"):
            resolve_backend("bogus")

    @pytest.mark.parametrize("spec", ["serial:2", "local:2"])
    def test_nodes_argument_rejected_off_cluster(self, spec):
        with pytest.raises(BackendError):
            resolve_backend(spec)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_serial_refuses_more_than_one_worker(self, workers):
        with pytest.raises(BackendError, match="one worker"):
            resolve_backend("serial", workers=workers)

    def test_serial_takes_one_worker_and_a_shard_count(self):
        resolved = resolve_backend("serial", workers=1, shard_count=3)
        assert isinstance(resolved, SerialBackend)
        assert (resolved.workers, resolved.shard_count) == (1, 3)


class TestSpawnFallback:
    def test_no_fork_degrades_to_serial_path(self, monkeypatch):
        monkeypatch.setattr(
            backend_module, "fork_available", lambda: False
        )
        with pytest.warns(RuntimeWarning, match="fork"):
            resolved = resolve_backend("local", workers=4, shard_count=4)
        assert resolved.workers == 1
        results = resolved.map_shards(_double, [[1], [2], [3], [4]])
        assert results == [[2], [4], [6], [8]]

    def test_fork_platforms_keep_their_workers(self, monkeypatch):
        monkeypatch.setattr(
            backend_module, "fork_available", lambda: True
        )
        resolved = resolve_backend("local", workers=2, shard_count=4)
        assert resolved.workers == 2


def test_package_exports_resolve_without_removed_executors():
    """A stale re-export of a deleted module fails here, fast."""
    import repro.parallel as package

    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert not {"ShardedExecutor", "ParallelBackend"} & set(package.__all__)
