"""Tests for the Routeviews-style pfx2as dataset."""

import ipaddress
import random

import pytest

from repro.routing.pfx2as import Pfx2As, Pfx2AsEntry


def entry(prefix, *origins):
    return Pfx2AsEntry(ipaddress.ip_network(prefix), frozenset(origins))


class TestEntry:
    def test_requires_origin(self):
        with pytest.raises(ValueError):
            entry("10.0.0.0/8")

    def test_single_origin_line(self):
        assert entry("10.0.0.0/8", 100).to_line() == "10.0.0.0\t8\t100"

    def test_moas_line_joined_with_underscore(self):
        assert entry("10.1.2.0/24", 301, 300).to_line() == (
            "10.1.2.0\t24\t300_301"
        )

    def test_from_line(self):
        parsed = Pfx2AsEntry.from_line("10.1.2.0\t24\t300_301")
        assert parsed == entry("10.1.2.0/24", 300, 301)
        assert parsed.is_moas()

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            Pfx2AsEntry.from_line("10.0.0.0 8 100")


class TestDataset:
    def test_lookup_most_specific(self):
        dataset = Pfx2As(
            [entry("10.0.0.0/8", 1), entry("10.1.0.0/16", 2)]
        )
        assert dataset.lookup("10.1.9.9") == frozenset({2})
        assert dataset.lookup("10.9.9.9") == frozenset({1})

    def test_lookup_unrouted_is_empty(self):
        dataset = Pfx2As([entry("10.0.0.0/8", 1)])
        assert dataset.lookup("203.0.113.1") == frozenset()

    def test_lookup_prefix(self):
        dataset = Pfx2As([entry("10.0.0.0/8", 1)])
        assert str(dataset.lookup_prefix("10.2.3.4")) == "10.0.0.0/8"
        assert dataset.lookup_prefix("203.0.113.1") is None

    def test_duplicate_prefixes_merge_origins(self):
        dataset = Pfx2As(
            [entry("10.0.0.0/8", 1), entry("10.0.0.0/8", 2)]
        )
        assert dataset.lookup("10.0.0.1") == frozenset({1, 2})
        assert len(dataset) == 1

    def test_text_roundtrip(self):
        dataset = Pfx2As(
            [
                entry("10.0.0.0/8", 100),
                entry("10.1.2.0/24", 300, 301),
                entry("2001:db8::/32", 500),
            ]
        )
        parsed = Pfx2As.from_text(dataset.to_text())
        assert len(parsed) == 3
        assert parsed.lookup("10.1.2.1") == frozenset({300, 301})
        assert parsed.lookup("2001:db8::1") == frozenset({500})

    def test_from_text_ignores_comments(self):
        text = "# comment\n10.0.0.0\t8\t42\n\n"
        dataset = Pfx2As.from_text(text)
        assert dataset.lookup("10.0.0.1") == frozenset({42})

    def test_iteration_sorted(self):
        dataset = Pfx2As(
            [entry("192.0.2.0/24", 3), entry("10.0.0.0/8", 1)]
        )
        listed = [str(e.prefix) for e in dataset]
        assert listed == ["10.0.0.0/8", "192.0.2.0/24"]

    def test_shuffled_duplicates_merge_and_serialise_identically(self):
        entries = [
            entry("10.0.0.0/8", 1),
            entry("10.1.0.0/16", 2),
            entry("10.1.0.0/16", 3),  # the duplicated prefix
            entry("10.1.0.0/24", 4),
            entry("192.0.2.0/24", 5),
            entry("2001:db8::/32", 6),
        ]
        merged = [
            entry("10.0.0.0/8", 1),
            entry("10.1.0.0/16", 2, 3),
            entry("10.1.0.0/24", 4),
            entry("192.0.2.0/24", 5),
            entry("2001:db8::/32", 6),
        ]
        text = "".join(e.to_line() + "\n" for e in merged)
        shuffler = random.Random(23)
        for _ in range(10):
            shuffler.shuffle(entries)
            dataset = Pfx2As(entries)
            assert list(dataset) == merged
            assert len(dataset) == len(merged)
            assert dataset.to_text() == text

    def test_moas_entries(self):
        dataset = Pfx2As(
            [entry("10.0.0.0/8", 1), entry("10.1.0.0/16", 2, 3)]
        )
        assert [e.origins for e in dataset.moas_entries()] == [
            frozenset({2, 3})
        ]
