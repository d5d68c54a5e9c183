"""Ablation — per-length hash longest-prefix match vs linear scan.

The enrichment stage performs one LPM per distinct observed address;
this ablation shows why ``PrefixTable`` (one dict probe per distinct
stored prefix length) matters against scanning the whole prefix table,
and cross-checks the two on a sample of the probes.
"""

import ipaddress
import random

import pytest

from repro.routing.prefixtable import PrefixTable

TABLE_SIZE = 2000
PROBES = 500


@pytest.fixture(scope="module")
def table():
    rng = random.Random(4)
    prefixes = []
    seen = set()
    while len(prefixes) < TABLE_SIZE:
        prefixlen = rng.randint(10, 24)
        base = rng.getrandbits(prefixlen) << (32 - prefixlen)
        network = ipaddress.IPv4Network((base, prefixlen))
        if network not in seen:
            seen.add(network)
            prefixes.append((network, rng.randint(1, 65000)))
    probes = [
        ipaddress.IPv4Address(rng.getrandbits(32)) for _ in range(PROBES)
    ]
    return prefixes, probes


def _build(prefixes):
    table = PrefixTable()
    for network, asn in prefixes:
        table.insert(network, asn)
    return table


def _record_shape(benchmark, prefixes):
    # benchmarks/schema.py rejects an uploaded entry without extra_info.
    benchmark.extra_info["table_size"] = len(prefixes)
    benchmark.extra_info["probes"] = PROBES
    benchmark.extra_info["distinct_lengths"] = len(
        {network.prefixlen for network, _ in prefixes}
    )


def test_lpm_with_prefix_table(benchmark, table):
    prefixes, probes = table
    lpm = _build(prefixes)

    def run():
        return [lpm.longest_match(address) for address in probes]

    results = benchmark(run)
    assert len(results) == PROBES
    _record_shape(benchmark, prefixes)


def test_lpm_with_linear_scan(benchmark, table):
    prefixes, probes = table

    def run():
        out = []
        for address in probes:
            best = None
            for network, asn in prefixes:
                if address in network:
                    if best is None or network.prefixlen > best[0].prefixlen:
                        best = (network, asn)
            out.append(best)
        return out

    results = benchmark.pedantic(run, rounds=2, iterations=1)
    _record_shape(benchmark, prefixes)
    # Correctness cross-check against the table on a sample.
    lpm = _build(prefixes)
    for address, expected in list(zip(probes, results))[:50]:
        got = lpm.longest_match(address)
        if expected is None:
            assert got is None
        else:
            assert got == (expected[0], expected[1])
