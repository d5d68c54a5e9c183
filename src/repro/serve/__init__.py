"""repro.serve — the live, self-protecting adoption query service.

The streaming engine answers queries in-process; this package
promotes that read path to a concurrent network service over atomic
snapshot indexes:

* :class:`ServeIndex` / :class:`SnapshotSwapper` — immutable
  read-optimized indexes rebuilt after each completed ingest day and
  swapped atomically, so readers never block ingest and never observe
  a torn day; :class:`LiveSnapshot` is one scope's counters read off
  an index (what ``repro stream`` prints);
* :mod:`~repro.serve.protocol` — the versioned, canonically-encoded
  newline-JSON wire protocol (lookup / history / aggregate / snapshot /
  health);
* :class:`ServeDispatcher` / :class:`ServeServer` /
  :class:`ThreadedServer` — transport-independent dispatch and the
  asyncio loop with bounded framing and graceful drain;
* :class:`SlidingWindowLimiter` / :class:`AdmissionGuard` — per-client self-protection on injected
  logical ticks: rate limits, burst detection, adaptive throttling,
  auto-block with healing;
* :class:`ServeClient` — the asyncio client (plus sync helpers).

Every served answer is byte-identical to the batch answer and to the
live engine's own reads for the same day
(``tests/serve/test_equivalence.py`` proves it at checkpoint days while
ingest runs concurrently); see ``docs/SERVING.md``.
"""

from repro.serve.client import ServeClient, request_mix, request_once
from repro.serve.guard import AdmissionGuard, Decision
from repro.serve.index import (
    LiveSnapshot,
    ScopeIndex,
    ServeError,
    ServeIndex,
    SnapshotSwapper,
)
from repro.serve.protocol import (
    MAX_REQUEST_BYTES,
    OPERATIONS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    canonical_json,
    decode_request,
    encode_frame,
)
from repro.serve.ratelimit import SlidingWindowLimiter
from repro.serve.server import (
    ServeDispatcher,
    ServeServer,
    ThreadedServer,
)

__all__ = [
    "AdmissionGuard",
    "Decision",
    "LiveSnapshot",
    "MAX_REQUEST_BYTES",
    "OPERATIONS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "ScopeIndex",
    "ServeClient",
    "ServeDispatcher",
    "ServeError",
    "ServeIndex",
    "ServeServer",
    "SlidingWindowLimiter",
    "SnapshotSwapper",
    "ThreadedServer",
    "canonical_json",
    "decode_request",
    "encode_frame",
    "request_mix",
    "request_once",
]
