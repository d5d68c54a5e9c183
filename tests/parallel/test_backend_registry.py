"""Backend registry: resolution precedence, specs, and fallbacks."""

from __future__ import annotations

import pytest

from repro.parallel import backend as backend_module
from repro.parallel.backend import (
    REPRO_BACKEND_ENV,
    BackendError,
    LocalPoolBackend,
    SerialBackend,
    backend_names,
    resolve_backend,
)
from repro.parallel.cluster import ClusterBackend


def _double(shard_index, payload):
    return [value * 2 for value in payload]


class TestRegistry:
    def test_shipped_backends_are_registered(self):
        assert backend_names() == ["cluster", "local", "serial"]

    def test_register_backend_round_trips(self, monkeypatch):
        monkeypatch.setitem(
            backend_module._REGISTRY,
            "custom",
            lambda workers, shard_count, nodes: SerialBackend(
                shard_count=shard_count
            ),
        )
        resolved = resolve_backend("custom", shard_count=3)
        assert isinstance(resolved, SerialBackend)
        assert resolved.shard_count == 3


class TestPrecedence:
    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "cluster:4")
        assert isinstance(resolve_backend("serial"), SerialBackend)

    def test_explicit_instance_passes_through(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "serial")
        instance = ClusterBackend(nodes=3)
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

    def test_cluster_spec_sets_node_count(self):
        resolved = resolve_backend("cluster:3")
        assert isinstance(resolved, ClusterBackend)
        assert resolved.nodes == 3
        assert resolved.workers == 3

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(BackendError, match="cluster, local, serial"):
            resolve_backend("bogus")

    def test_non_integer_node_count_raises(self):
        with pytest.raises(BackendError, match="not an integer"):
            resolve_backend("cluster:many")

    def test_nonpositive_node_count_raises(self):
        with pytest.raises(BackendError, match=">= 1"):
            resolve_backend("cluster:0")

    @pytest.mark.parametrize("spec", ["serial:2", "local:2"])
    def test_nodes_argument_rejected_off_cluster(self, spec):
        with pytest.raises(BackendError):
            resolve_backend(spec)


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
