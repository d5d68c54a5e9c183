"""Pluggable execution backends behind every sharded pass.

Every sharded pass in the repo — the study measurement phase, the
MapReduce engine, the sketch rebuild, and whole-history detection from
a landed store — fans shards out through one :class:`Backend` protocol
instead of constructing a pool concretely. Three implementations ship:

* :class:`SerialBackend` — the in-process loop, an explicit backend
  rather than an implicit ``workers=1`` special case;
* :class:`LocalPoolBackend` — the fork process pool; at one worker (or
  a single shard) it runs the same in-process loop, and on spawn-only
  platforms (no ``fork`` start method) it degrades to that loop with a
  warning instead of shipping unpicklable initargs;
* :class:`~repro.parallel.cluster.ClusterBackend` — a simulated
  elastic multi-node cluster with deterministic placement, work
  stealing, and speculative re-execution.

All three share the determinism contract: results are collected in
**shard-index order** — never completion order (``repro analyze``
enforces this with the ``unordered-futures`` rule) — and a shard whose
worker dies (a broken pool, or an exception marked ``shard_retryable``
such as :class:`~repro.faults.errors.WorkerCrash`) is re-executed **in
the parent process, in shard-index order, under fault suppression**
(:func:`repro.faults.runtime.rerun_shard`): the same fault plan cannot
re-kill the retried shard, and retried results land back at their shard
index, so the merged output of any backend is byte-identical to a
serial run. Each backend's ``shards_retried`` counts the re-executions.

Heavy shared state (the world, a job description) travels through the
*initializer*: under the ``fork`` start method the pool's workers
inherit it without pickling, so closures (e.g. the mappers in
:mod:`repro.mapreduce.jobs`) work and the world is shipped once, not
once per shard.

Selection goes through a registry: an explicit argument (a backend
instance or a ``"name[:nodes]"`` spec) beats the ``REPRO_BACKEND``
environment variable, which beats the default (``local``). The CLI's
``--backend`` flag and every ``backend=`` parameter accept the same
specs. Worker count resolution: explicit argument > the
``REPRO_WORKERS`` environment variable > ``os.cpu_count()``. Worker and
shard counts are spelled only here — on :func:`resolve_backend` and the
backend constructors — never on the passes that take a ``backend=``.
See ``docs/PERFORMANCE.md`` § Execution backends.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.faults.runtime import rerun_shard, shard_retryable

S = TypeVar("S")  # shard payload
R = TypeVar("R")  # shard result

#: Environment variable that sets the default worker count.
REPRO_WORKERS_ENV = "REPRO_WORKERS"

#: Default shards per worker — enough slack that uneven shards keep all
#: workers busy, few enough that per-shard overhead stays negligible.
SHARDS_PER_WORKER = 4

#: Environment variable that selects the default backend spec.
REPRO_BACKEND_ENV = "REPRO_BACKEND"

#: The registry entry used when neither argument nor env chooses one.
DEFAULT_BACKEND = "local"


class BackendError(ValueError):
    """An unknown backend name or a malformed backend spec."""


class Backend(Protocol):
    """What a sharded pass requires of its execution substrate."""

    #: Parallelism the backend models (processes, simulated nodes, ...).
    workers: int
    #: Default shard count consumers split their work into.
    shard_count: int

    @property
    def shards_retried(self) -> int:
        """Shards re-executed after a retryable worker death."""
        ...

    def map_shards(
        self,
        task: Callable[[int, Any], Any],
        shards: Sequence[Any],
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> List[Any]:
        """``[task(0, shards[0]), task(1, shards[1]), ...]`` in order."""
        ...


#: What ``backend=`` parameters accept: an instance, a ``"name[:N]"``
#: spec, or None (env var, then the default).
BackendSpec = Union[str, Backend]


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count (argument > env > cpu count).

    An explicit argument is validated strictly — passing ``workers=0``
    is a caller bug. A malformed or non-positive ``REPRO_WORKERS``
    value, however, is clamped to 1 with a warning: the variable is
    read deep inside pool construction (possibly in a fork
    initializer), where raising would kill the run over an environment
    typo instead of degrading it to the serial path.
    """
    if workers is None:
        env = os.environ.get(REPRO_WORKERS_ENV)
        if env is not None and env.strip():
            try:
                workers = int(env)
            except ValueError:
                warnings.warn(
                    f"{REPRO_WORKERS_ENV}={env!r} is not an integer; "
                    f"running with 1 worker",
                    RuntimeWarning,
                    stacklevel=2,
                )
                workers = 1
            if workers < 1:
                warnings.warn(
                    f"{REPRO_WORKERS_ENV}={env!r} is not >= 1; "
                    f"running with 1 worker",
                    RuntimeWarning,
                    stacklevel=2,
                )
                workers = 1
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform.

    The pool's zero-copy initargs contract (and closure-built jobs)
    needs ``fork``; on spawn-only platforms :class:`LocalPoolBackend`
    runs its shards in process instead.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_shard_count(shard_count: Optional[int], workers: int) -> int:
    """*shard_count*, defaulting to ``SHARDS_PER_WORKER`` per worker."""
    if shard_count is None:
        shard_count = workers * SHARDS_PER_WORKER
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    return shard_count


def run_shards_serially(
    task: Callable[[int, S], R],
    shards: Sequence[S],
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> Tuple[List[R], int]:
    """The in-process shard loop every backend's serial path shares.

    Returns ``(results, retried)`` where *retried* counts shards whose
    first execution raised a retryable error and were re-executed via
    :func:`repro.faults.runtime.rerun_shard` (injection suppressed).
    """
    if initializer is not None:
        initializer(*initargs)
    results: List[R] = []
    retried = 0
    for index, shard in enumerate(shards):
        try:
            results.append(task(index, shard))
        except Exception as error:
            if not shard_retryable(error):
                raise
            retried += 1
            results.append(rerun_shard(task, index, shard))
    return results, retried


class SerialBackend:
    """Explicit in-process execution — the determinism baseline.

    Runs every shard in this process through the same loop (and the
    same crashed-shard recovery) the pool's ``workers=1`` path uses;
    every other backend is proven against its output.
    """

    name = "serial"

    def __init__(self, shard_count: Optional[int] = None) -> None:
        self.workers = 1
        self.shard_count = resolve_shard_count(shard_count, self.workers)
        self.shards_retried = 0

    def map_shards(
        self,
        task: Callable[[int, Any], Any],
        shards: Sequence[Any],
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> List[Any]:
        results, retried = run_shards_serially(
            task, shards, initializer=initializer, initargs=initargs
        )
        self.shards_retried += retried
        return results


class LocalPoolBackend:
    """The fork process pool.

    With one worker (or a single shard) everything runs in this process
    and no multiprocessing path is taken. On platforms without the
    ``fork`` start method the pool's zero-copy initargs contract cannot
    hold (closures and worlds would have to pickle), so the backend
    warns and clamps to one worker.
    """

    name = "local"

    def __init__(
        self,
        workers: Optional[int] = None,
        shard_count: Optional[int] = None,
    ) -> None:
        workers = resolve_workers(workers)
        if workers > 1 and not fork_available():
            warnings.warn(
                "multiprocessing start method 'fork' is unavailable on "
                "this platform; the local pool backend is falling back "
                "to in-process serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1
        self.workers = workers
        self.shard_count = resolve_shard_count(shard_count, workers)
        #: Shards re-executed in the parent after a worker death.
        self.shards_retried = 0

    def map_shards(
        self,
        task: Callable[[int, Any], Any],
        shards: Sequence[Any],
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> List[Any]:
        """``[task(0, shards[0]), task(1, shards[1]), ...]``.

        Results are returned in shard-index order regardless of which
        worker finishes first. A shard lost to a worker death is
        re-executed here in the parent (see module docstring); any
        other shard exception propagates unchanged.
        """
        if self.workers == 1 or len(shards) <= 1:
            results, retried = run_shards_serially(
                task, shards, initializer=initializer, initargs=initargs
            )
            self.shards_retried += retried
            return results
        collected: List[Any] = []
        failed: List[int] = []
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(shards)),
            # workers > 1 only survives __init__ where fork exists.
            mp_context=multiprocessing.get_context("fork"),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            futures = [
                pool.submit(task, index, shard)
                for index, shard in enumerate(shards)
            ]
            # Consume in shard-index order — the determinism contract.
            for index, future in enumerate(futures):
                try:
                    collected.append(future.result())
                except Exception as error:
                    # BrokenProcessPool: the worker process died
                    # outright; every pending future on this pool fails
                    # the same way, and all of them are re-executed below.
                    if not (
                        isinstance(error, BrokenProcessPool)
                        or shard_retryable(error)
                    ):
                        raise
                    collected.append(None)
                    failed.append(index)
        if failed:
            # Re-execute lost shards here: initialise the parent like a
            # worker, then run each shard with fault injection
            # suppressed so the same plan cannot re-kill the retry.
            if initializer is not None:
                initializer(*initargs)
            for index in failed:
                self.shards_retried += 1
                collected[index] = rerun_shard(task, index, shards[index])
        return collected


#: A registry factory: ``(workers, shard_count, nodes) -> Backend``.
BackendFactory = Callable[
    [Optional[int], Optional[int], Optional[int]], Backend
]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register (or replace) a backend factory under *name*."""
    _REGISTRY[name] = factory


def backend_names() -> List[str]:
    """Every registered backend name, sorted."""
    _ensure_registered()
    return sorted(_REGISTRY)


def _ensure_registered() -> None:
    # The cluster backend lives in its own module so that importing
    # this one stays light; pull it in before any registry lookup.
    import repro.parallel.cluster  # noqa: F401


def resolve_backend(
    spec: Optional[BackendSpec] = None,
    workers: Optional[int] = None,
    shard_count: Optional[int] = None,
) -> Backend:
    """The backend for a sharded pass.

    Precedence: an explicit *spec* (instance or ``"name[:nodes]"``
    string) > the ``REPRO_BACKEND`` environment variable > the default
    (``local``). *workers*/*shard_count* parameterize the factory; an
    instance already carries its own, so passing either beside one
    raises :class:`BackendError` rather than silently dropping it.
    """
    if spec is not None and not isinstance(spec, str):
        if workers is not None or shard_count is not None:
            raise BackendError(
                "workers/shard_count cannot be combined with a backend "
                "instance; set them on its constructor instead"
            )
        return spec
    if spec is None:
        spec = os.environ.get(REPRO_BACKEND_ENV) or DEFAULT_BACKEND
    name, _, argument = spec.partition(":")
    name = name.strip()
    _ensure_registered()
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(backend_names())
        raise BackendError(
            f"unknown backend {name!r} (choose from: {known}; "
            f"'cluster:N' runs N simulated nodes)"
        )
    nodes: Optional[int] = None
    if argument:
        try:
            nodes = int(argument)
        except ValueError:
            raise BackendError(
                f"backend spec {spec!r}: {argument!r} is not an integer "
                f"node count"
            ) from None
        if nodes < 1:
            raise BackendError(
                f"backend spec {spec!r}: node count must be >= 1"
            )
    return factory(workers, shard_count, nodes)


def _make_serial(
    workers: Optional[int],
    shard_count: Optional[int],
    nodes: Optional[int],
) -> Backend:
    if nodes is not None:
        raise BackendError("the serial backend takes no ':N' argument")
    return SerialBackend(shard_count=shard_count)


def _make_local(
    workers: Optional[int],
    shard_count: Optional[int],
    nodes: Optional[int],
) -> Backend:
    if nodes is not None:
        raise BackendError(
            "the local backend takes no ':N' argument; set workers "
            "(--workers / REPRO_WORKERS) instead"
        )
    return LocalPoolBackend(workers=workers, shard_count=shard_count)


register_backend("serial", _make_serial)
register_backend("local", _make_local)
