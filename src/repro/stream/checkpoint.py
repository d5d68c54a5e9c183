"""Checkpoint/resume for the stream engine.

The on-disk format is a zlib-compressed canonical JSON document: keys
sorted, no whitespace, every unordered collection serialised in sorted
order by :meth:`StreamEngine.to_dict`. Canonicalisation is what makes the
guarantee testable: two engines in the same logical state produce the
same bytes, so "kill at day N, resume, finish" can be asserted equal to
an uninterrupted run by comparing checkpoint bytes (or digests).

Robustness against torn/corrupt checkpoints:

* format 2 embeds a SHA-256 digest of the engine payload, so a bit-flip
  that still decompresses to JSON is caught at load, not days later as a
  silently wrong series;
* :func:`save_checkpoint` is atomic (temp file + rename) **and** rotates
  the previous checkpoint to ``<path>.prev`` first;
* :func:`load_checkpoint_with_fallback` recovers from a damaged current
  checkpoint by falling back to that previous good one — resuming a few
  days back beats not resuming at all, and the engine's duplicate
  handling makes the replayed overlap harmless (``on_duplicate="skip"``).

Every load failure is a typed :class:`CheckpointError` (a ``ValueError``
subclass), never a raw ``zlib.error`` / ``JSONDecodeError`` / ``KeyError``.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from typing import Optional, Tuple

from repro.core.references import SignatureCatalog
from repro.stream.engine import StreamEngine

#: Bump when the serialised engine layout changes. Format 2 added the
#: embedded payload digest; format-1 checkpoints (no digest) still load.
CHECKPOINT_FORMAT = 2

#: Formats load_checkpoint accepts.
SUPPORTED_FORMATS = (1, 2)

_MAGIC = b"REPROCKPT"

#: Suffix of the rotated previous-good checkpoint.
PREVIOUS_SUFFIX = ".prev"


class CheckpointError(ValueError):
    """A checkpoint file is missing, damaged, or from an unknown format,
    or the engine holds state that cannot be written to one."""


def _engine_payload(engine: StreamEngine) -> str:
    try:
        state = engine.to_dict()
    except ValueError as exc:
        raise CheckpointError(f"cannot checkpoint the engine: {exc}") from exc
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def dump_state(engine: StreamEngine) -> bytes:
    """The engine's canonical serialised form (uncompressed JSON)."""
    payload = _engine_payload(engine)
    document = {
        "format": CHECKPOINT_FORMAT,
        "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "engine": json.loads(payload),
    }
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def state_digest(engine: StreamEngine) -> str:
    """SHA-256 over the canonical state — cheap state-equality probe."""
    return hashlib.sha256(dump_state(engine)).hexdigest()


def save_checkpoint(engine: StreamEngine, path: str) -> int:
    """Atomically write *engine*'s state to *path*; returns bytes written.

    An existing checkpoint at *path* is rotated to ``path + ".prev"``
    before the new one lands, keeping one known-good fallback.
    """
    blob = _MAGIC + zlib.compress(dump_state(engine), 6)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp_path = path + ".tmp"
    with open(temp_path, "wb") as handle:
        handle.write(blob)
    if os.path.exists(path):
        os.replace(path, path + PREVIOUS_SUFFIX)
    os.replace(temp_path, path)
    return len(blob)


def load_checkpoint(
    path: str, catalog: Optional[SignatureCatalog] = None
) -> StreamEngine:
    """Rebuild an engine from a :func:`save_checkpoint` file.

    The signature catalog is not part of the checkpoint (it is
    configuration, not state); pass the one the original engine used, or
    leave it to default to the paper's Table 2. Raises
    :class:`CheckpointError` on any damage.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(_MAGIC):
        raise CheckpointError(f"{path} is not a stream checkpoint")
    try:
        text = zlib.decompress(blob[len(_MAGIC):])
    except zlib.error as exc:
        raise CheckpointError(
            f"{path}: corrupt checkpoint (decompression failed: {exc})"
        ) from exc
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(
            f"{path}: corrupt checkpoint (not valid JSON: {exc})"
        ) from exc
    fmt = document.get("format")
    if fmt not in SUPPORTED_FORMATS:
        raise CheckpointError(f"unsupported checkpoint format {fmt!r}")
    engine_doc = document.get("engine")
    if not isinstance(engine_doc, dict):
        raise CheckpointError(f"{path}: checkpoint has no engine payload")
    if fmt >= 2:
        payload = json.dumps(
            engine_doc, sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if digest != document.get("digest"):
            raise CheckpointError(
                f"{path}: checkpoint digest mismatch (state damaged)"
            )
    try:
        return StreamEngine.from_dict(engine_doc, catalog=catalog)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: corrupt checkpoint (engine payload invalid: {exc})"
        ) from exc


def load_checkpoint_with_fallback(
    path: str, catalog: Optional[SignatureCatalog] = None
) -> Tuple[StreamEngine, bool]:
    """Load *path*, falling back to ``path + ".prev"`` if it is damaged.

    Returns ``(engine, used_fallback)``. If the current checkpoint is
    unreadable and no previous one exists (or it is damaged too), the
    current checkpoint's error propagates.
    """
    try:
        return load_checkpoint(path, catalog=catalog), False
    except (CheckpointError, OSError) as exc:
        previous = path + PREVIOUS_SUFFIX
        if not os.path.exists(previous):
            raise
        try:
            engine = load_checkpoint(previous, catalog=catalog)
        except (CheckpointError, OSError):
            raise exc from None
        return engine, True
