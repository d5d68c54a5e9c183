"""Compare two sets of result files, end-to-end metric by metric.

    python3 benchmarks/e2e/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``--out`` files of untraced runs (any number of
seeds per workload). Prints one row per workload x end-to-end metric:
each side's quartiles and run count, the ratio of the medians with its
base, and a verdict:

* ``better`` / ``worse`` — the change's median moved by more than the
  metric's bound in that direction;
* ``within-bound`` — it moved by less;
* ``unresolved`` — either side's interquartile spread is wider than the
  bound and the sides overlap, so the runs cannot tell.

``python3 benchmarks/e2e/compare.py DIR`` prints one set's spreads.
Stdlib-only: works in a directory without ``src/``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from harness import metrics
from harness.stats import quartiles, spread_share

Samples = Dict[Tuple[str, str], List[float]]


def load(directory: str) -> Samples:
    """(workload, metric) -> values, from every untraced result file."""
    samples: Samples = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("trace") or "workload" not in document:
            continue
        for metric, entry in sorted(document["metrics"].items()):
            samples.setdefault((document["workload"], metric), []).append(
                float(entry["value"])
            )
    return samples


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> str:
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    overlap = base_q1 <= change_q3 and change_q1 <= base_q3
    noisy = max(spread_share(base), spread_share(change)) > bound
    if noisy and overlap:
        return "unresolved"
    moved = change_median / base_median - 1.0
    if better == "lower":
        moved = -moved
    if moved > bound:
        return "better"
    if moved < -bound:
        return "worse"
    return "within-bound"


def _quartile_text(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}..{q3:.6g}] n={len(values)}"


def report(base: Samples, change: Optional[Samples]) -> List[str]:
    lines = []
    for workload in metrics.WORKLOADS:
        for metric in metrics.END_TO_END:
            key = (workload, metric.name)
            if key not in base:
                continue
            row = (
                f"{workload:13s} {metric.name:18s} "
                f"{_quartile_text(base[key])} "
                f"spread {spread_share(base[key]):.2%}"
            )
            if change is not None and key in change:
                base_median = quartiles(base[key])[1]
                ratio = quartiles(change[key])[1] / base_median
                row += (
                    f" | {_quartile_text(change[key])} "
                    f"spread {spread_share(change[key]):.2%} "
                    f"| x{ratio:.4f} of base {base_median:.6g} "
                    f"{metric.unit} (bound {metric.bound:.0%}, "
                    f"{metric.better} is better) "
                    + verdict(
                        base[key], change[key], metric.better, metric.bound
                    )
                )
            else:
                row += f" (bound {metric.bound:.0%})"
            lines.append(row)
    return lines


def main(argv: Sequence[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    base = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else None
    lines = report(base, change)
    print("\n".join(lines))
    return 0 if lines else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
