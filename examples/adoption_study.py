#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

    python examples/adoption_study.py [scale]

Runs the full pipeline (world → daily measurement model → ASN enrichment →
detection → all analyses) and prints Table 1, Table 2, and Figures 2–8 plus
the §4.4.1 anomaly walk-through. Scale 1000 reproduces a 1:1000 world
(174,211 domains; world and study take about 26–31 s on a 2-core box);
the default 8000 runs in well under a minute.
"""

import sys
import time

from repro import AdoptionStudy, ScenarioConfig, build_paper_world
from repro.reporting import (
    render_attributions,
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
    render_figure7,
    render_figure8,
    render_table1,
    render_table2,
)
from repro.core.references import SignatureCatalog


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 8000
    print(f"# Reproduction run at scale 1:{scale}\n")

    started = time.time()
    world = build_paper_world(ScenarioConfig(scale=scale))
    study = AdoptionStudy(world)
    results = study.run()
    print(f"(world + study in {time.time() - started:.1f}s; "
          f"{len(world.domains):,} domains)\n")

    print(render_table1(results), end="\n\n")

    print("Deriving Table 2 via the §3.3 bootstrap ...")
    fingerprints = study.derive_table2(day=30)
    print(
        render_table2(
            fingerprints, reference=SignatureCatalog.paper_table2()
        ),
        end="\n\n",
    )

    for renderer in (
        render_figure2,
        render_figure3,
        render_figure4,
        render_figure5,
        render_figure6,
        render_figure7,
        render_figure8,
    ):
        print(renderer(results), end="\n\n")

    print(render_attributions(results, limit=25))


if __name__ == "__main__":
    main()
