"""Regenerate every golden fixture: the detection goldens and the
conformance matrix's digests.

Run from the repository root after an *intentional* change to detection,
rendering or any pinned digest:

    PYTHONPATH=src python tests/fixtures/golden/regen.py

then review the diff — every changed line must be explainable by the
change you made. The detection fixtures pin the full output of a study
over the same world ``tests/conftest.py`` builds as ``tiny_world``
(``scale=40000, seed=7``), so unintended drift anywhere in measurement,
detection, or rendering shows up as a golden-test failure.
``conformance.json`` pins the baseline digests of the matrix's three
worlds (``tests/conformance.py``).
"""

import json
import os
import sys

REPO = os.path.join(os.path.dirname(__file__), "..", "..", "..")
sys.path[:0] = [os.path.join(REPO, "src"), REPO]

from repro.core.pipeline import AdoptionStudy  # noqa: E402
from repro.reporting import figures  # noqa: E402
from repro.reporting.export import study_to_dict  # noqa: E402
from repro.world.scenario import ScenarioConfig, build_paper_world  # noqa: E402
from tests.conformance import PINNED_PATH, SEEDS, baseline_digests  # noqa: E402

GOLDEN_SCALE = 40000
GOLDEN_SEED = 7

GOLDEN_ARTIFACTS = {
    "table1.txt": figures.render_table1,
    "fig2.txt": figures.render_figure2,
    "fig6.txt": figures.render_figure6,
}


def build_results():
    world = build_paper_world(
        ScenarioConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    )
    return AdoptionStudy(world).run()


def detection_summary(results):
    """The Table-2-style slice of the export: who was detected, how
    much, via which reference types."""
    payload = study_to_dict(results)
    return {
        "any_use": payload["any_use"],
        "providers": payload["providers"],
        "growth": payload["growth"],
        "dps_distribution": payload["dps_distribution"],
    }


def main():
    directory = os.path.dirname(os.path.abspath(__file__))
    results = build_results()
    for filename, renderer in sorted(GOLDEN_ARTIFACTS.items()):
        path = os.path.join(directory, filename)
        with open(path, "w") as handle:
            handle.write(renderer(results))
            handle.write("\n")
        print(f"wrote {path}")
    path = os.path.join(directory, "detection.json")
    with open(path, "w") as handle:
        json.dump(
            detection_summary(results), handle, indent=1, sort_keys=True
        )
        handle.write("\n")
    print(f"wrote {path}")
    with open(PINNED_PATH, "w") as handle:
        json.dump(
            {str(seed): baseline_digests(seed) for seed in SEEDS},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {PINNED_PATH}")


if __name__ == "__main__":
    main()
