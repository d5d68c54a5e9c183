"""Schema gate for uploaded benchmark JSON (docs/PERFORMANCE.md).

The CI jobs upload ``BENCH_*.json`` artifacts and downstream tooling
reads each benchmark's ``extra_info`` block (speedups, row counts, RSS
probes). A bench that silently stops emitting ``extra_info`` still
passes pytest — the regression only shows up when someone opens the
artifact. This module is the seam that makes the drift loud: every CI
bench step is followed by ``python benchmarks/schema.py BENCH_x.json``,
which exits nonzero when any benchmark entry is missing or empty.

Usage::

    python benchmarks/schema.py BENCH_smoke.json [more.json ...]
"""

from __future__ import annotations

import json
import sys
from typing import Any, List, Mapping


class SchemaError(ValueError):
    """A benchmark payload that downstream artifact readers cannot use."""


def validate_payload(payload: Mapping[str, Any]) -> List[str]:
    """The fully-qualified names of the validated benchmarks.

    Raises :class:`SchemaError` on the first structural problem: no
    ``benchmarks`` list, an entry without a name or stats, or an entry
    whose ``extra_info`` is absent or empty.
    """
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise SchemaError(
            "payload has no 'benchmarks' list; was the file produced "
            "with --benchmark-json?"
        )
    names: List[str] = []
    for position, entry in enumerate(benchmarks):
        if not isinstance(entry, dict):
            raise SchemaError(
                f"benchmarks[{position}] is not an object"
            )
        name = entry.get("fullname") or entry.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(
                f"benchmarks[{position}] has no name/fullname"
            )
        stats = entry.get("stats")
        if not isinstance(stats, dict) or "mean" not in stats:
            raise SchemaError(
                f"{name}: stats block is missing or has no mean"
            )
        extra = entry.get("extra_info")
        if not isinstance(extra, dict) or not extra:
            raise SchemaError(
                f"{name}: extra_info is missing or empty; every "
                f"uploaded bench must record its context (counts, "
                f"speedups, probe readings) for the artifact readers"
            )
        names.append(name)
    return names


def validate_file(path: str) -> List[str]:
    """Validate one ``--benchmark-json`` output file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"{path}: unreadable benchmark JSON: {exc}")
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level is not a JSON object")
    return validate_payload(payload)


def main(argv: List[str]) -> int:
    if not argv:
        print(
            "usage: python benchmarks/schema.py BENCH_x.json [...]",
            file=sys.stderr,
        )
        return 2
    failed = False
    for path in argv:
        try:
            names = validate_file(path)
        except SchemaError as exc:
            print(f"schema: FAIL {exc}", file=sys.stderr)
            failed = True
            continue
        print(f"schema: ok {path} ({len(names)} benchmarks)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
