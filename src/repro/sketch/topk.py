"""Space-saving top-K: heavy hitters with per-key error certificates.

Metwally et al.'s algorithm: at most ``capacity`` monitored keys, each
carrying ``(count, error)``. A new key beyond capacity evicts the
minimum counter and inherits its count as both floor and error, which
yields the guaranteed-frequency invariant the property suite pins::

    count − error  ≤  true frequency  ≤  count

Determinism: ties on eviction break on the key itself (the minimum
``(count, key)`` pair goes), so identical update multisets fed in
identical order produce identical state on any platform. While the
summary has never evicted it is simply the exact count map — a pure
function of the update *multiset*. Past an eviction the state becomes
order-sensitive (like every bounded heavy-hitter summary); the
``evictions`` counter rides the serialized state so a digest comparison
can tell the exact regime from the lossy one. The streaming plane sizes
its instances above the key universes it feeds (providers come from the
fixed signature catalog; third-party hosters from the world's bounded
pool), keeping the plane in the exact, order-free regime — see
``docs/SKETCHES.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple


class SpaceSaving:
    """Bounded top-K counter map with guaranteed-frequency errors."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: key → (count, error); error is the evicted floor inherited.
        self.counters: Dict[str, Tuple[int, int]] = {}
        self.evictions = 0
        self.total = 0

    def update(self, key: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.total += count
        entry = self.counters.get(key)
        if entry is not None:
            self.counters[key] = (entry[0] + count, entry[1])
            return
        if len(self.counters) < self.capacity:
            self.counters[key] = (count, 0)
            return
        victim, floor = self._evict()
        del self.counters[victim]
        self.counters[key] = (floor + count, floor)
        self.evictions += 1

    def _evict(self) -> Tuple[str, int]:
        """The deterministic victim: minimum ``(count, key)``."""
        victim = min(
            self.counters, key=lambda key: (self.counters[key][0], key)
        )
        return victim, self.counters[victim][0]

    # -- queries ------------------------------------------------------------

    def estimate(self, key: str) -> int:
        entry = self.counters.get(key)
        return entry[0] if entry is not None else 0

    def guaranteed(self, key: str) -> int:
        """A provable lower bound on *key*'s true frequency."""
        entry = self.counters.get(key)
        return entry[0] - entry[1] if entry is not None else 0

    def top(self, k: int) -> List[Tuple[str, int, int]]:
        """The ``k`` largest ``(key, count, error)``, count-descending."""
        ranked = sorted(
            self.counters.items(),
            key=lambda item: (-item[1][0], item[0]),
        )
        return [
            (key, count, error)
            for key, (count, error) in ranked[: max(0, k)]
        ]

    @property
    def exact(self) -> bool:
        """True while no eviction has ever lost a key (errors all 0)."""
        return self.evictions == 0

    # -- serialization ------------------------------------------------------

    def copy(self) -> "SpaceSaving":
        twin = SpaceSaving(self.capacity)
        twin.counters = dict(self.counters)
        twin.evictions = self.evictions
        twin.total = self.total
        return twin

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "space-saving",
            "capacity": self.capacity,
            "counters": [
                [key, count, error]
                for key, (count, error) in sorted(self.counters.items())
            ],
            "evictions": self.evictions,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpaceSaving":
        summary = cls(capacity=int(payload["capacity"]))
        summary.counters = {
            str(key): (int(count), int(error))
            for key, count, error in payload["counters"]
        }
        summary.evictions = int(payload["evictions"])
        summary.total = int(payload["total"])
        if len(summary.counters) > summary.capacity:
            raise ValueError("space-saving payload exceeds capacity")
        return summary
