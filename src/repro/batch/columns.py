"""Interning pools backing the columnar observation plane.

A pool maps each distinct value to a small integer id, once; batch
columns then hold ids (or tuples of ids) instead of repeated Python
objects. Ids are *pool-relative*: they are dense, assigned in first-seen
order, and only meaningful against the pool that issued them — never use
them as keys in any structure that outlives the pool (checkpoints,
persistent caches). Batches sliced from the same builder share pools, so
their ids are mutually comparable; :meth:`ObservationBatch.compact`
re-interns into fresh pools when a batch must travel alone (e.g. across
a fork boundary).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class StringPool:
    """Dense first-seen-order interning of strings."""

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
        table = self._values
        return tuple(table[index] for index in indexes)

    def lookup(self, value: str) -> Optional[int]:
        """The id of *value* if already interned, else ``None``."""
        return self._ids.get(value)


class AddressPool:
    """Interned IP address texts.

    Address *texts* are kept verbatim (round-trips must be byte-exact —
    ``"192.0.2.1"`` must come back as ``"192.0.2.1"``, not a normalised
    respelling) and never parsed here: enrichment parses each distinct
    text once, when it resolves that address's timeline.
    """

    __slots__ = ("_ids", "_texts", "_tuple_memo")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._texts: List[str] = []
        self._tuple_memo: Dict[Tuple[str, ...], Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._texts)

    def intern(self, text: str) -> int:
        found = self._ids.get(text)
        if found is not None:
            return found
        index = len(self._texts)
        self._ids[text] = index
        self._texts.append(text)
        return index

    def intern_all(self, texts: Iterable[str]) -> Tuple[int, ...]:
        return tuple(self.intern(text) for text in texts)

    def intern_tuple(self, texts: Iterable[str]) -> Tuple[int, ...]:
        """:meth:`intern_all`, memoized on the whole text tuple (address
        sets repeat across days just like NS sets do)."""
        key = tuple(texts)
        found = self._tuple_memo.get(key)
        if found is None:
            found = tuple(self.intern(text) for text in key)
            self._tuple_memo[key] = found
        return found

    def text(self, index: int) -> str:
        return self._texts[index]

    def texts(self, indexes: Iterable[int]) -> Tuple[str, ...]:
        table = self._texts
        return tuple(table[index] for index in indexes)
