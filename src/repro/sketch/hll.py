"""HyperLogLog distinct counting, sparse until it earns dense.

Flajolet et al.'s estimator: the top ``p`` bits of the 64-bit keyed
hash pick one of ``m = 2**p`` registers, which keeps the maximum
leading-zero rank of the remaining bits. Relative standard error is
``1.04 / sqrt(m)``; small cardinalities use the linear-counting
correction.

Representation is **state-determined, not history-determined**: the
register multiset lives in a sorted sparse ``index → rank`` map while
the number of touched registers is at most ``m // 4``, and promotes to
the dense array the moment it grows past that. Because every register
is a ``max`` over per-key ranks, and the promotion trigger reads only
the touched-register *count*, the serialized form is a pure function of
the key **set** fed in — any insertion order, any shard decomposition,
any kill/resume split produces byte-identical state, and ``merge`` (a
register-wise max) equals feeding the concatenated stream exactly.

Registers are small integers end to end; floats exist only inside
:meth:`estimate`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.sketch.cms import SketchMergeError
from repro.sketch.hashing import digest64, keyed_hasher


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog:
    """A seeded HLL counter over string keys (sparse + dense)."""

    def __init__(self, precision: int = 12, seed: int = 0):
        if not 4 <= precision <= 18:
            raise ValueError("precision must be in [4, 18]")
        self.precision = precision
        self.seed = seed
        self.registers = 1 << precision
        #: Derived from ``seed``; copied per key, never serialized.
        self._hasher = keyed_hasher(seed)
        #: Sparse regime: touched register → max rank, sorted on dump.
        self.sparse: Optional[Dict[int, int]] = {}
        #: Dense regime: one rank per register (None while sparse).
        self.dense: Optional[List[int]] = None

    @property
    def sparse_limit(self) -> int:
        """Touched-register count beyond which dense is cheaper."""
        return self.registers // 4

    @property
    def relative_error(self) -> float:
        """The estimator's relative standard error, 1.04/sqrt(m)."""
        return 1.04 / math.sqrt(self.registers)

    # -- updates ------------------------------------------------------------

    def slot(self, key: str) -> Tuple[int, int]:
        """*key*'s ``(register, rank)``: one digest, the same for every
        counter of this precision and seed."""
        value = digest64(self._hasher, key)
        tail_bits = 64 - self.precision
        tail = value & ((1 << tail_bits) - 1)
        return value >> tail_bits, tail_bits - tail.bit_length() + 1

    def add(self, key: str) -> None:
        self.raise_register(*self.slot(key))

    def raise_register(self, index: int, rank: int) -> None:
        """Fold in one :meth:`slot`: the register keeps the max rank."""
        if self.dense is not None:
            if self.dense[index] < rank:
                self.dense[index] = rank
            return
        assert self.sparse is not None
        current = self.sparse.get(index, 0)
        if current < rank:
            self.sparse[index] = rank
        if len(self.sparse) > self.sparse_limit:
            self._promote()

    def _promote(self) -> None:
        assert self.sparse is not None
        dense = [0] * self.registers
        for index, rank in sorted(self.sparse.items()):
            dense[index] = rank
        self.dense = dense
        self.sparse = None

    # -- queries ------------------------------------------------------------

    def _register_values(self) -> List[int]:
        if self.dense is not None:
            return self.dense
        assert self.sparse is not None
        values = [0] * self.registers
        for index, rank in sorted(self.sparse.items()):
            values[index] = rank
        return values

    def estimate(self) -> float:
        """The bias-corrected cardinality estimate."""
        values = self._register_values()
        m = self.registers
        harmonic = 0.0
        zeros = 0
        for rank in values:
            harmonic += 2.0 ** -rank
            if rank == 0:
                zeros += 1
        raw = _alpha(m) * m * m / harmonic
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return raw

    # -- merge --------------------------------------------------------------

    def merge(self, other: "HyperLogLog") -> None:
        """Register-wise max; equals feeding both streams serially."""
        if (self.precision, self.seed) != (other.precision, other.seed):
            raise SketchMergeError(
                "HyperLogLog counters differ in precision or seed"
            )
        if other.dense is not None:
            for index, rank in enumerate(other.dense):
                if rank:
                    self.raise_register(index, rank)
            return
        assert other.sparse is not None
        for index in sorted(other.sparse):
            self.raise_register(index, other.sparse[index])

    # -- serialization ------------------------------------------------------

    def copy(self) -> "HyperLogLog":
        twin = HyperLogLog(self.precision, self.seed)
        twin.sparse = dict(self.sparse) if self.sparse is not None else None
        twin.dense = list(self.dense) if self.dense is not None else None
        return twin

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": "hll",
            "precision": self.precision,
            "seed": self.seed,
        }
        if self.dense is not None:
            payload["dense"] = list(self.dense)
        else:
            assert self.sparse is not None
            payload["sparse"] = [
                [index, rank]
                for index, rank in sorted(self.sparse.items())
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HyperLogLog":
        counter = cls(
            precision=int(payload["precision"]),
            seed=int(payload["seed"]),
        )
        if "dense" in payload:
            dense = [int(rank) for rank in payload["dense"]]
            if len(dense) != counter.registers:
                raise ValueError("HLL dense payload shape mismatch")
            counter.sparse = None
            counter.dense = dense
        else:
            counter.sparse = {
                int(index): int(rank)
                for index, rank in payload["sparse"]
            }
            if len(counter.sparse) > counter.sparse_limit:
                raise ValueError("HLL sparse payload over limit")
        ranks = range(64 - counter.precision + 2)
        held = counter.sparse or dict(enumerate(counter.dense or ()))
        for index, rank in held.items():
            if not (0 <= index < counter.registers and rank in ranks):
                raise ValueError(f"HLL register {index}:{rank} cannot exist")
        return counter
