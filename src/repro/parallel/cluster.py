"""A simulated elastic multi-node cluster backend.

:class:`ClusterBackend` models the execution shape of a real
multi-node deployment — explicit shard placement, workers joining and
leaving mid-run, work stealing for stragglers, speculative
re-execution of shards lost with their node — while every task still
runs in this process, so no result ever depends on OS scheduling.
Time is logical: each shard costs an integer number of *ticks* (a pure
function of its payload), and the scheduler advances tick by tick
through a deterministic event loop.

Why any join/leave schedule yields identical results:

* **Placement** is round-robin over the initially-live node ids in
  ascending order — a pure function of ``(shard_count, nodes)``.
* **Stealing** consumes a stable-hash-ordered steal queue: an idle
  node always takes the candidate shard minimizing
  ``(stable_hash("shard:i"), i)``, so which shard moves where depends
  only on costs and the schedule, never on iteration order of a set or
  dict.
* **Execution is deferred to completion**: a shard's task runs exactly
  once, at the tick its (possibly re-assigned) run completes. A shard
  lost to a node leave never half-ran — its speculative re-execution
  *is* its first execution, so per-shard side effects (fault-injection
  draws included) are identical to a serial run.
* **Crash recovery** reuses the platform's fault machinery: a task
  raising a retryable error (an injected
  :class:`~repro.faults.errors.WorkerCrash`) kills its node, and the
  shard re-executes through
  :func:`repro.faults.runtime.rerun_shard` under fault suppression —
  exactly the pool's parent-retry semantics — with attempts bounded
  and backoff-priced by :class:`repro.faults.retry.RetryPolicy`.
* **Results land by shard index**, so the merge order (and therefore
  the merged bytes) never sees the schedule at all.

``tests/parallel/test_backend_identity.py`` pins byte-identity of
study exports and sketch digests across schedules;
``tests/parallel/test_cluster.py`` drives random join/leave schedules
through hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Sized,
    Tuple,
    cast,
)

from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.faults.runtime import rerun_shard, shard_retryable
from repro.parallel.backend import (
    Backend,
    BackendError,
    register_backend,
    resolve_shard_count,
)
from repro.world.ipam import stable_hash

#: Event actions a schedule may script.
ACTIONS = ("join", "leave")


@dataclass(frozen=True)
class ClusterEvent:
    """One scripted membership change at a logical tick."""

    tick: int
    action: str  # "join" | "leave"
    node: int

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"action must be one of {ACTIONS}, not {self.action!r}"
            )
        if self.tick < 0:
            raise ValueError("tick must be >= 0")
        if self.node < 0:
            raise ValueError("node must be >= 0")


@dataclass(frozen=True)
class ClusterSchedule:
    """A scripted sequence of worker join/leave events.

    Events apply in ``(tick, leaves-before-joins, node)`` order, so a
    node leaving and another joining on the same tick always resolve
    the same way.
    """

    events: Tuple[ClusterEvent, ...] = ()

    @classmethod
    def scripted(
        cls, *events: Tuple[int, str, int]
    ) -> "ClusterSchedule":
        """``scripted((tick, "leave", node), ...)`` convenience."""
        return cls(
            tuple(
                ClusterEvent(tick, action, node)
                for tick, action, node in events
            )
        )

    def ordered(self) -> List[ClusterEvent]:
        return sorted(
            self.events,
            key=lambda event: (
                event.tick,
                0 if event.action == "leave" else 1,
                event.node,
            ),
        )


def default_shard_cost(payload: Any) -> int:
    """Ticks a shard costs: its payload size (at least 1)."""
    if isinstance(payload, Sized):
        return max(1, len(payload))
    return 1


def _steal_order(index: int) -> Tuple[int, int]:
    """The stable-hash steal priority of a queued shard."""
    return (stable_hash(f"shard:{index}"), index)


class ClusterBackend:
    """Deterministic simulation of an elastic shard-running cluster.

    Counters accumulate across :meth:`map_shards` calls (matching
    :attr:`LocalPoolBackend.shards_retried` semantics);
    :attr:`makespan_ticks` and :attr:`completions` describe the most
    recent call.
    """

    name = "cluster"

    def __init__(
        self,
        nodes: int = 2,
        shard_count: Optional[int] = None,
        schedule: Optional[ClusterSchedule] = None,
        work_stealing: bool = True,
        shard_cost: Optional[Callable[[Any], int]] = None,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        self.nodes = nodes
        self.workers = nodes
        self.shard_count = resolve_shard_count(shard_count, nodes)
        self.schedule = schedule or ClusterSchedule()
        self.work_stealing = work_stealing
        self.shard_cost = shard_cost or default_shard_cost
        self.retry_policy = retry_policy
        #: Shards re-executed (suppressed) after a retryable crash.
        self.shards_retried = 0
        #: Shards stolen off a live node's queue by an idle node.
        self.shards_stolen = 0
        #: Shard runs lost with a leaving node and re-dispatched.
        self.shards_speculated = 0
        #: Logical makespan of the last map_shards call.
        self.makespan_ticks = 0
        #: ``(shard_index, node, tick)`` per completion, last call.
        self.completions: List[Tuple[int, int, int]] = []

    def map_shards(
        self,
        task: Callable[[int, Any], Any],
        shards: Sequence[Any],
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> List[Any]:
        """Simulate the cluster run; results in shard-index order."""
        self.makespan_ticks = 0
        self.completions = []
        if initializer is not None:
            initializer(*initargs)
        count = len(shards)
        results: List[Optional[Any]] = [None] * count
        if count == 0:
            return []

        live: Set[int] = set(range(self.nodes))
        next_fresh_node = max(
            [self.nodes]
            + [event.node + 1 for event in self.schedule.events]
        )
        #: Per-node FIFO of assigned-but-not-started shard indexes.
        queues: Dict[int, List[int]] = {node: [] for node in live}
        placement_order = sorted(live)
        for index in range(count):
            node = placement_order[index % len(placement_order)]
            queues[node].append(index)
        #: Shards with no home (lost to leaves/crashes), re-dispatched
        #: to any idle node in stable-hash order.
        orphans: List[int] = []
        #: Shards whose next run is a suppressed crash re-execution.
        suppressed: Set[int] = set()
        #: Retryable failures per shard, bounded by the retry policy.
        attempts: Dict[int, int] = {}
        #: node -> (shard_index, finish_tick).
        running: Dict[int, Tuple[int, int]] = {}
        events = self.schedule.ordered()
        next_event = 0
        tick = 0
        remaining = count

        def apply_due_events(now: int) -> None:
            nonlocal next_event
            while (
                next_event < len(events)
                and events[next_event].tick <= now
            ):
                event = events[next_event]
                next_event += 1
                if event.action == "leave":
                    if event.node not in live:
                        continue
                    live.discard(event.node)
                    orphans.extend(queues.pop(event.node, []))
                    lost = running.pop(event.node, None)
                    if lost is not None:
                        # The in-flight run is gone with the node; the
                        # shard never committed, so its speculative
                        # re-run elsewhere is its (identical) first
                        # execution.
                        self.shards_speculated += 1
                        orphans.append(lost[0])
                elif event.node not in live:
                    live.add(event.node)
                    queues[event.node] = []

        def dispatch(now: int) -> None:
            for node in sorted(live):
                if node in running:
                    continue
                queue = queues.setdefault(node, [])
                shard: Optional[int] = None
                if queue:
                    shard = queue.pop(0)
                else:
                    # Orphan re-dispatch is recovery and always
                    # allowed; raiding another live node's queue is
                    # stealing and opt-in.
                    candidates = list(orphans)
                    if self.work_stealing:
                        for other in sorted(live):
                            if other != node:
                                candidates.extend(queues[other])
                    if candidates:
                        shard = min(candidates, key=_steal_order)
                        if shard in orphans:
                            orphans.remove(shard)
                        else:
                            for other in sorted(live):
                                if shard in queues[other]:
                                    queues[other].remove(shard)
                                    break
                            self.shards_stolen += 1
                if shard is None:
                    continue
                cost = max(1, int(self.shard_cost(shards[shard])))
                if shard in suppressed:
                    # Deterministic backoff: the re-run is priced with
                    # the policy's geometric schedule.
                    cost += self.retry_policy.backoff_ticks(
                        attempts[shard]
                    )
                running[node] = (shard, now + cost)

        while remaining:
            apply_due_events(tick)
            dispatch(tick)
            if not running:
                if next_event < len(events):
                    # Idle until the schedule changes membership.
                    tick = max(tick, events[next_event].tick)
                    continue
                # Every node is gone and no help is scripted: bring up
                # a fresh recovery node, like the pool's parent retry.
                node = next_fresh_node
                next_fresh_node += 1
                live.add(node)
                queues[node] = []
                continue
            finish = min(end for _, end in running.values())
            if (
                next_event < len(events)
                and events[next_event].tick < finish
            ):
                tick = events[next_event].tick
                continue
            tick = finish
            for node in sorted(
                n for n, (_, end) in running.items() if end == tick
            ):
                shard, _ = running.pop(node)
                try:
                    if shard in suppressed:
                        value = rerun_shard(task, shard, shards[shard])
                    else:
                        value = task(shard, shards[shard])
                except Exception as error:
                    if not shard_retryable(error):
                        raise
                    failures = attempts.get(shard, 0) + 1
                    attempts[shard] = failures
                    if failures >= self.retry_policy.attempts:
                        raise
                    # The crash takes its node down; the shard goes
                    # back to the steal queue for a suppressed re-run.
                    self.shards_retried += 1
                    suppressed.add(shard)
                    live.discard(node)
                    orphans.extend(queues.pop(node, []))
                    orphans.append(shard)
                    continue
                results[shard] = value
                remaining -= 1
                self.completions.append((shard, node, tick))
        self.makespan_ticks = tick
        return cast(List[Any], results)


def _make_cluster(
    workers: Optional[int],
    shard_count: Optional[int],
    nodes: Optional[int],
) -> Backend:
    if nodes is None:
        nodes = workers if workers is not None else 2
    if nodes < 1:
        raise BackendError("cluster node count must be >= 1")
    return ClusterBackend(nodes=nodes, shard_count=shard_count)


register_backend("cluster", _make_cluster)
