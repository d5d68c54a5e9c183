"""The end-to-end + per-layer benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N]
                                  [--seconds S] [--trace [0|1]] [--out FILE]

Each workload runs in a fresh child interpreter with ``PYTHONHASHSEED=0``
(its peak RSS is the workload's own). The child prints every metric by
name with its unit, the output checks and digests, and as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` every end-to-end metric, with ``--trace 1`` every per-layer
metric. The exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from typing import Dict, Optional

from harness import metrics
from harness.common import Outcome, require_program

#: ``--seconds`` default; ``BENCHMARK.json`` ``run_seconds`` says the same.
RUN_SECONDS = 18


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(metrics.WORKLOADS) + ["all"],
        default="all",
    )
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1 (or bare --trace): the traced pass, per-layer metrics",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write the full result document to this file",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


# -- the child: one workload, measured ------------------------------------


def result_document(
    outcome: Outcome, seed: int, seconds: float, trace: int
) -> Dict[str, object]:
    """The full result: the contract's four keys plus provenance."""
    if trace:
        # A layer this workload never enters was busy for 0 there.
        names = metrics.PER_LAYER_NAMES
        values = {name: outcome.metrics.get(name, 0.0) for name in names}
    else:
        names = metrics.END_TO_END_NAMES
        values = {name: outcome.metrics[name] for name in names}
    unknown = sorted(set(outcome.metrics) - set(names))
    if unknown:
        raise KeyError(f"undeclared metrics: {unknown}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics.with_units(values),
        "workload": outcome.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "digests": dict(sorted(outcome.digests.items())),
        "checks": [
            {"name": check.name, "ok": check.ok, "detail": check.detail}
            for check in outcome.checks
        ],
        "notes": outcome.notes,
    }


def print_report(document: Dict[str, object]) -> None:
    workload = document["workload"]
    print(
        f"== {workload}  seed {document['seed']}  "
        f"{'traced' if document['trace'] else 'untraced'} pass"
    )
    for name, entry in document["metrics"].items():
        print(f"  {name:34s} {entry['value']:>16.6f} {entry['unit']}")
    if not document["trace"]:
        for alias, (name, factor, unit) in sorted(
            metrics.ALIASES[workload].items()
        ):
            value = document["metrics"][name]["value"] * factor
            print(f"  = {alias:32s} {value:>16.6f} {unit}")
    notes = document["notes"]
    for key in sorted(notes):
        if key in ("ledger", "calls"):
            continue
        print(f"  . {key:32s} {notes[key]}")
    ledger = notes.get("ledger")
    if ledger:
        total = sum(ledger.values())
        print("  self time by span (normalised s, share of traced wall):")
        for name, seconds in sorted(
            ledger.items(), key=lambda item: (-item[1], item[0])
        ):
            calls = notes["calls"].get(name, 0)
            print(
                f"    {name:32s} {seconds:10.4f} s "
                f"{seconds / total:7.1%}  {calls} calls"
            )
    for name, digest in document["digests"].items():
        print(f"  digest {name} {digest}")
    for check in document["checks"]:
        verdict = "ok  " if check["ok"] else "FAIL"
        print(f"  check {verdict} {check['name']} {check['detail']}".rstrip())
    print(
        f"  operations attempted {document['attempted']} "
        f"failed {document['failed']}"
    )


def run_child(args: argparse.Namespace) -> int:
    require_program()
    module = importlib.import_module("harness." + args.workload)
    run = module.run_traced if args.trace else module.run
    outcome = run(args.seed, args.seconds)
    document = result_document(
        outcome, args.seed, args.seconds, args.trace
    )
    print_report(document)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, indent=1)
            handle.write("\n")
    contract = {
        key: document[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }
    print(json.dumps(contract, sort_keys=True), flush=True)
    return 0 if outcome.correct else 1


# -- the parent: a fresh interpreter per workload --------------------------


def spawn(args: argparse.Namespace, workload: str, out: Optional[str]) -> int:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if out:
        command += ["--out", out]
    return subprocess.run(command, env=env, check=False).returncode


def main() -> int:
    args = parse_args()
    if args.child:
        return run_child(args)
    require_program()
    if args.workload != "all":
        return spawn(args, args.workload, args.out)
    status = 0
    for workload in metrics.WORKLOADS:
        out = None
        if args.out:
            stem, extension = os.path.splitext(args.out)
            out = f"{stem}.{workload}{extension}"
        status = max(status, spawn(args, workload, out))
    return status


if __name__ == "__main__":
    sys.exit(main())
