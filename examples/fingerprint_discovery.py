#!/usr/bin/env python3
"""Watch the §3.3 fingerprint bootstrap work, provider by provider.

    python examples/fingerprint_discovery.py [provider] [scale]

Shows the seed ASNs from AS-to-name data, then the SLDs and extra ASNs the
bootstrap accepts (with their domain support counts), and compares the
outcome against the paper's Table 2 ground truth.
"""

import sys

from repro import ScenarioConfig, build_paper_world
from repro.core.fingerprint import FingerprintBootstrap
from repro.core.references import SignatureCatalog
from repro.measurement.scheduler import PartitionFeed


def main() -> None:
    provider = sys.argv[1] if len(sys.argv) > 1 else "CloudFlare"
    scale = int(sys.argv[2]) if len(sys.argv) > 2 else 12000

    world = build_paper_world(ScenarioConfig(scale=scale))
    print(f"Measuring .com/.net/.org on day 30 (scale 1:{scale}) ...")
    feed = PartitionFeed(world)
    observations = []
    for source in ("com", "net", "org"):
        observations.extend(feed.partition(source, 30).observations)
    print(f"  {len(observations):,} enriched observations\n")

    bootstrap = FingerprintBootstrap(observations, world.as_registry)
    seeds = bootstrap.seed_asns(provider)
    print(f"Seed ASNs for {provider!r} from AS-to-name data: "
          f"{sorted(seeds)}")

    result = bootstrap.derive(provider)
    print(f"Converged after {result.iterations} iteration(s):")
    print(f"  ASNs       : {sorted(result.asns)}")
    print(f"  CNAME SLDs : {sorted(result.cname_slds) or '—'}")
    print(f"  NS SLDs    : {sorted(result.ns_slds) or '—'}")
    print("  Support (domains observed per accepted reference):")
    for key, count in sorted(result.support.items()):
        print(f"    {key:<30} {count}")

    truth = SignatureCatalog.paper_table2().get(provider)
    if truth is None:
        print(f"\n(no Table 2 ground truth for {provider!r})")
        return
    print("\nAgainst the paper's Table 2:")
    print(f"  ASNs  missing: {sorted(truth.asns - result.asns) or 'none'}"
          f" | spurious: {sorted(result.asns - truth.asns) or 'none'}")
    print(f"  CNAME missing: "
          f"{sorted(truth.cname_slds - result.cname_slds) or 'none'}"
          f" | spurious: "
          f"{sorted(result.cname_slds - truth.cname_slds) or 'none'}")
    print(f"  NS    missing: "
          f"{sorted(truth.ns_slds - result.ns_slds) or 'none'}"
          f" | spurious: "
          f"{sorted(result.ns_slds - truth.ns_slds) or 'none'}")


if __name__ == "__main__":
    main()
