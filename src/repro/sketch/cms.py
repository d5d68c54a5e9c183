"""Count-min sketch: biased-up frequency estimates in fixed memory.

The classic Cormode–Muthukrishnan structure: ``depth`` rows of
``width`` integer cells; an update adds to one cell per row, an
estimate reads the row minimum. Estimates never under-count, and
over-count by at most ``εN`` (``ε = e / width``, ``N`` the total count
folded in) with probability ``1 − δ`` (``δ = e^-depth``).

Two update disciplines:

* **additive** (the default, and the only one the streaming plane
  uses): every touched cell gains ``count``. Cell values are then sums
  over the update multiset, so the state is a pure function of *what*
  was fed, never *in which order*.
* **conservative** update tightens estimates by raising each touched
  cell only to ``min-estimate + count``. That reads the current state,
  which makes the result order-dependent (see ``docs/SKETCHES.md`` for
  the two-key counterexample).

State is integer-only end to end; floats appear in derived error
bounds, never in anything serialized or accumulated.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping

from repro.sketch.hashing import digest64, keyed_hasher, row_indexes


class SketchMergeError(ValueError):
    """Two sketches whose states cannot be merged exactly (HyperLogLogs
    of different precision or seed)."""


class CountMinSketch:
    """A seeded count-min sketch over string keys."""

    def __init__(
        self,
        depth: int = 4,
        width: int = 2048,
        seed: int = 0,
        conservative: bool = False,
    ):
        if depth < 1 or width < 1:
            raise ValueError("depth and width must be positive")
        self.depth = depth
        self.width = width
        self.seed = seed
        #: Derived from ``seed``; copied per key, never serialized.
        self._hasher = keyed_hasher(seed)
        self.conservative = conservative
        self.total = 0
        self.rows: List[List[int]] = [
            [0] * width for _ in range(depth)
        ]

    # -- error guarantees ---------------------------------------------------

    @property
    def epsilon(self) -> float:
        """Over-count is ≤ ``epsilon * total`` with confidence 1 − δ."""
        return math.e / self.width

    @property
    def delta(self) -> float:
        """Probability the ``εN`` bound fails for one estimate."""
        return math.exp(-self.depth)

    def error_bound(self) -> float:
        """The absolute over-count bound ``εN`` at the current total."""
        return self.epsilon * self.total

    # -- updates ------------------------------------------------------------

    def update(self, key: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        positions = row_indexes(
            digest64(self._hasher, key), self.depth, self.width
        )
        if self.conservative:
            floor = count + min(
                row[positions[index]]
                for index, row in enumerate(self.rows)
            )
            for index, row in enumerate(self.rows):
                cell = positions[index]
                if row[cell] < floor:
                    row[cell] = floor
        else:
            for index, row in enumerate(self.rows):
                row[positions[index]] += count
        self.total += count

    def estimate(self, key: str) -> int:
        positions = row_indexes(
            digest64(self._hasher, key), self.depth, self.width
        )
        return min(
            row[positions[index]]
            for index, row in enumerate(self.rows)
        )

    # -- serialization ------------------------------------------------------

    def copy(self) -> "CountMinSketch":
        twin = CountMinSketch(
            self.depth, self.width, self.seed, self.conservative
        )
        twin.total = self.total
        twin.rows = [list(row) for row in self.rows]
        return twin

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "cms",
            "depth": self.depth,
            "width": self.width,
            "seed": self.seed,
            "conservative": self.conservative,
            "total": self.total,
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CountMinSketch":
        if payload.get("kind", "cms") != "cms":
            raise ValueError("not a count-min payload")
        sketch = cls(
            depth=int(payload["depth"]),
            width=int(payload["width"]),
            seed=int(payload["seed"]),
            conservative=bool(payload["conservative"]),
        )
        sketch.total = int(payload["total"])
        sketch.rows = [
            [int(cell) for cell in row] for row in payload["rows"]
        ]
        if len(sketch.rows) != sketch.depth or any(
            len(row) != sketch.width for row in sketch.rows
        ):
            raise ValueError("count-min payload shape mismatch")
        return sketch
