"""The seeded hash family every sketch shares.

One keyed BLAKE2b digest per key (``digest_size=8`` → 64 bits), with
the sketch seed as the MAC key: the same ``(key, seed)`` pair hashes
identically in every process, on every platform, in every run — unlike
the builtin ``hash()``, whose per-process string salt is exactly the
nondeterminism the conformance matrix's ``PYTHONHASHSEED`` cells rule
out.

A sketch keys its hasher once (:func:`keyed_hasher`) and hashes each key
through a ``.copy()`` of it (:func:`digest64`): the copy carries the
already-absorbed key block, so the digest equals the one-shot
:func:`hash64` while skipping the keyed set-up on every call.

Row indexes for the count-min sketch derive from the single 64-bit
digest by Kirsch–Mitzenmacher double hashing — ``h1 + i·h2 (mod w)`` —
so one hash call serves every depth, keeping the per-update cost flat
in ``d``.
"""

from __future__ import annotations

import hashlib
from typing import List

MASK64 = (1 << 64) - 1


def keyed_hasher(seed: int) -> hashlib.blake2b:
    """A 64-bit BLAKE2b keyed with *seed*, to be copied per key."""
    return hashlib.blake2b(
        digest_size=8, key=(seed & MASK64).to_bytes(8, "big")
    )


def digest64(hasher: hashlib.blake2b, key: str) -> int:
    """The 64-bit digest of *key* under a :func:`keyed_hasher`."""
    keyed = hasher.copy()
    keyed.update(key.encode("utf-8"))
    return int.from_bytes(keyed.digest(), "big")


def hash64(key: str, seed: int) -> int:
    """The 64-bit keyed digest of *key* under *seed*."""
    return digest64(keyed_hasher(seed), key)


def row_indexes(value: int, depth: int, width: int) -> List[int]:
    """*depth* row positions in ``[0, width)`` from one 64-bit digest.

    Double hashing: ``h1`` and ``h2`` are the digest halves, ``h2``
    forced odd so successive rows never collapse onto one stride.
    """
    h1 = value >> 32
    h2 = (value & 0xFFFFFFFF) | 1
    return [(h1 + row * h2) % width for row in range(depth)]
