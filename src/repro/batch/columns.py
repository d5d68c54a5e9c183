"""Interning pools backing the columnar observation plane.

A pool maps each distinct value to a small integer id, once; batch
columns then hold ids (or tuples of ids) instead of repeated Python
objects. Ids are *pool-relative*: they are dense, assigned in first-seen
order, and only meaningful against the pool that issued them — never use
them as keys in any structure that outlives the pool (checkpoints,
persistent caches). Batches sliced from the same builder share pools, so
their ids are mutually comparable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class StringPool:
    """Dense first-seen-order interning of strings.

    Values are kept verbatim and never parsed — an address text must
    come back byte-exact (``"2001:0db8::0001"``, not a normalised
    respelling); enrichment parses each distinct text once, when it
    resolves that address's timeline.
    """

    __slots__ = ("_ids", "_values", "_tuple_memo")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._values: List[str] = []
        self._tuple_memo: Dict[Tuple[str, ...], Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._values)

    def intern(self, value: str) -> int:
        """The id of *value*, allocating one on first sight."""
        found = self._ids.get(value)
        if found is not None:
            return found
        index = len(self._values)
        self._ids[value] = index
        self._values.append(value)
        return index

    def intern_all(self, values: Iterable[str]) -> Tuple[int, ...]:
        return tuple(self.intern(value) for value in values)

    def intern_tuple(self, values: Iterable[str]) -> Tuple[int, ...]:
        """:meth:`intern_all`, memoized on the whole value tuple.

        NS sets and CNAME chains repeat massively (mass hosters share
        them across domains, domains repeat them across days), so the
        hot batch-building paths pay one tuple hash instead of one dict
        probe per element.
        """
        key = tuple(values)
        found = self._tuple_memo.get(key)
        if found is None:
            found = tuple(self.intern(value) for value in key)
            self._tuple_memo[key] = found
        return found

    def value(self, index: int) -> str:
        return self._values[index]

    def values(self, indexes: Iterable[int]) -> Tuple[str, ...]:
        return tuple(map(self._values.__getitem__, indexes))

    def lookup(self, value: str) -> Optional[int]:
        """The id of *value* if already interned, else ``None``."""
        return self._ids.get(value)
