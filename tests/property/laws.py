"""Shared pieces of the codec round-trip laws.

Every codec law states the same two clauses over a state reached by
driving the object through its own API:

(a) ``decode(encode(x))`` re-encodes to the canonical bytes of ``x``;
(b) the restored copy and the original answer the *next* operation
    alike: equal re-encoded bytes and equal public reads.

Clause (b) is what sees a field that both sides of a codec forgot, or
one that the decoder resets instead of reading: the re-encoded bytes
cannot show those, the reads can.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
from typing import Any


def encoded(codec: Any) -> str:
    """*codec*'s canonical bytes: its payload as sorted compact JSON."""
    return json.dumps(
        codec.to_dict(), sort_keys=True, separators=(",", ":")
    )


def assert_same_text(expected: str, got: str) -> None:
    """``assert got == expected``, reported by where the texts first
    differ.

    pytest's own ``==`` explanation runs difflib over both texts. For
    the canonical JSON of a production sketch plane (about 0.6 MB) that
    takes minutes per failing call, and Hypothesis calls a failing test
    again for every example it shrinks through and explains.
    """
    if got != expected:
        at = len(os.path.commonprefix([expected, got]))
        raise AssertionError(
            f"texts differ at offset {at} (lengths {len(expected)} and"
            f" {len(got)}): {expected[max(at - 40, 0):at + 40]!r} != "
            f"{got[max(at - 40, 0):at + 40]!r}"
        )


def through_json(codec: Any) -> Any:
    """*codec*'s payload as a checkpoint reader gets it back."""
    return json.loads(encoded(codec))


def plain(value: Any) -> Any:
    """*value* as comparable plain data: dataclasses as field maps,
    mappings as key-sorted pairs, sets sorted, NaN as a string."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = {
            field.name: getattr(value, field.name)
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return sorted((repr(key), plain(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(plain(item)) for item in value)
    if isinstance(value, enum.Enum):
        return repr(value)
    if isinstance(value, float) and value != value:
        return "nan"
    return value


def read_or_error(read: Any, *args: Any) -> Any:
    """``read(*args)``, or the ``ValueError`` it raised, as plain data."""
    try:
        return plain(read(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"
