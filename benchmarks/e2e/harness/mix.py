"""The ``serve_mixed`` request mix, generated from the workload seed.

**The mix is unverified.** Its shape is ISSUE 13's: 70 % ``lookup``,
15 % ``history``, 10 % ``aggregate`` (exact), 5 % ``aggregate`` with
``source=sketch``; domains drawn Zipf(1); 5 % of the domain draws name a
domain the world does not contain. No traffic measurement stands behind
it: the paper describes no query service, and the repository's own
callers (``bench_serve.py``, ``repro serve --self-test``, ``tests/serve``)
send only ``aggregate``, ``health`` and ``snapshot``. The interleaving is
kept, because it is what a server between two kinds of work does, but no
gated metric may depend on the shares: ``serve_mixed`` reports the
exact-answer (point) requests and the sketch-answer requests each from
their own round trips (a sketch answer costs ~70 point answers, so any
rate over the whole mix is mostly a function of the 5 %).

What is not invented: the shares hold exactly in every run of
:data:`STRATUM` consecutive requests, so no seed and no block gets a
heavier mix than another; the names are a seeded sample of the world's
own gTLD names, protected or not as the world has them (the world is
calibrated to the paper's adoption share). Pure: the same seed and names
give the same bytes.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

#: Request kinds; the first three are "point" requests.
LOOKUP, HISTORY, AGGREGATE, SKETCH = (
    "lookup", "history", "aggregate", "aggregate_sketch",
)
POINT_KINDS = (LOOKUP, HISTORY, AGGREGATE)
KINDS = POINT_KINDS + (SKETCH,)

#: Requests of each kind in every stratum of the mix.
STRATUM = 100
_STRATUM_KINDS = (
    [LOOKUP] * 70 + [HISTORY] * 15 + [AGGREGATE] * 10 + [SKETCH] * 5
)
ABSENT_SHARE = 0.05
#: At most this many of the world's gTLD names are ever asked for.
UNIVERSE = 5000
#: The 200-request probe set: this many names of each kind.
PROBES_PER_HALF = 100


class MixRequest(NamedTuple):
    kind: str
    #: The request id echoed by the server.
    id: int
    frame: bytes
    #: What an ``ok`` response to this request starts with (canonical
    #: JSON sorts ``id`` first), so replies validate without a parse.
    ok_prefix: bytes


def universe(rng: random.Random, names: Sequence[str]) -> List[str]:
    """Up to :data:`UNIVERSE` of *names*, in Zipf rank order (rank 1
    first)."""
    return rng.sample(sorted(names), min(UNIVERSE, len(names)))


def _zipf_cdf(size: int) -> List[float]:
    weights = [1.0 / rank for rank in range(1, size + 1)]
    total = sum(weights)
    return [
        value / total for value in itertools.accumulate(weights)
    ]


def _frame(request_id: int, op: str, params: Dict[str, object]) -> bytes:
    document = {"v": 1, "id": request_id, "op": op, "params": params}
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":"))
        + "\n"
    ).encode("utf-8")


def build_mix(
    seed: int, names: Sequence[str], count: int
) -> List[MixRequest]:
    """*count* pre-encoded requests over *names* (the world's gTLD
    names), with ids 0 onwards."""
    rng = random.Random(seed)
    names = universe(rng, names)
    cdf = _zipf_cdf(len(names))
    requests: List[MixRequest] = []
    kinds: List[str] = []
    for request_id in range(count):
        if not kinds:
            kinds = list(_STRATUM_KINDS)
            rng.shuffle(kinds)
        kind = kinds.pop()
        if kind in (LOOKUP, HISTORY):
            if rng.random() < ABSENT_SHARE:
                domain = f"absent-{rng.randrange(10**6):06d}.com"
            else:
                rank = bisect.bisect_left(cdf, rng.random())
                domain = names[min(rank, len(names) - 1)]
            frame = _frame(request_id, kind, {"domain": domain})
        elif kind == AGGREGATE:
            frame = _frame(request_id, "aggregate", {"scope": "gtld"})
        else:
            frame = _frame(
                request_id,
                "aggregate",
                {"scope": "gtld", "source": "sketch"},
            )
        requests.append(
            MixRequest(
                kind=kind,
                id=request_id,
                frame=frame,
                ok_prefix=b'{"id":%d,"ok":true,' % request_id,
            )
        )
    return requests


def probe_set(
    protected: Sequence[str], unprotected: Sequence[str]
) -> List[Tuple[str, bytes]]:
    """The fixed correctness probes: ``lookup`` of the first
    :data:`PROBES_PER_HALF` ever-protected and never-protected names, as
    ``(domain, frame)``; ids count down from -1."""
    domains = (
        sorted(protected)[:PROBES_PER_HALF]
        + sorted(unprotected)[:PROBES_PER_HALF]
    )
    return [
        (domain, _frame(-1 - index, LOOKUP, {"domain": domain}))
        for index, domain in enumerate(domains)
    ]
