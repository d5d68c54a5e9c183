"""Fixture: fork-boundary capture, analyzed under
``repro/parallel/fixture_fork.py``. ``ShardWriter`` is fork-unsafe
*transitively* — it holds a ``LockedCounter`` which holds the lock."""

import threading

from repro.parallel.backend import LocalPoolBackend


class LockedCounter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0


class ShardWriter:
    def __init__(self):
        self.counter = LockedCounter()


class PlainConfig:
    def __init__(self):
        self.limit = 8


def _task(shard):
    return shard


def run_bad(shards):
    counter = LockedCounter()
    executor = LocalPoolBackend(2)
    return executor.map_shards(  # expect: fork-unsafe-capture
        _task, shards, initargs=(counter,)
    )


def run_transitive(shards):
    writer = ShardWriter()
    executor = LocalPoolBackend(2)
    return executor.map_shards(  # expect: fork-unsafe-capture
        _task, shards, initargs=(writer,)
    )


def run_ok(shards):
    config = PlainConfig()
    executor = LocalPoolBackend(2)
    return executor.map_shards(_task, shards, initargs=(config.limit,))
