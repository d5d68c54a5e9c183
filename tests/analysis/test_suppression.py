"""Suppression comments: parsing and end-to-end silencing."""

from __future__ import annotations

from repro.analysis import suppressed_rules
from tests.analysis.local import analyze_local

BAD_DEFAULT = "def f(bucket=[]):\n    return bucket\n"


def test_parse_bare_and_bracketed():
    source = (
        "a = 1  # repro: ignore\n"
        "b = 2  # repro: ignore[wall-clock]\n"
        "c = 3  # repro: ignore[wall-clock, mutable-default]\n"
        "d = 4  # repro: ignore[]\n"
        "e = 5  # no marker here\n"
    )
    parsed = suppressed_rules(source)
    assert parsed[1] is None
    assert parsed[2] == frozenset({"wall-clock"})
    assert parsed[3] == frozenset({"wall-clock", "mutable-default"})
    assert parsed[4] is None  # empty brackets behave like a bare ignore
    assert 5 not in parsed


def test_matching_suppression_silences_finding():
    source = BAD_DEFAULT.replace(
        "bucket=[]):", "bucket=[]):  # repro: ignore[mutable-default]"
    )
    result = analyze_local(source, "x.py")
    assert result.clean


def test_bare_suppression_silences_everything():
    source = BAD_DEFAULT.replace("bucket=[]):", "bucket=[]):  # repro: ignore")
    result = analyze_local(source, "x.py")
    assert result.clean


def test_unrelated_suppression_does_not_silence():
    source = BAD_DEFAULT.replace(
        "bucket=[]):", "bucket=[]):  # repro: ignore[wall-clock]"
    )
    result = analyze_local(source, "x.py")
    assert [f.rule for f in result.findings] == ["mutable-default"]


def test_suppression_on_other_line_does_not_silence():
    source = "# repro: ignore[mutable-default]\n" + BAD_DEFAULT
    result = analyze_local(source, "x.py")
    assert [f.rule for f in result.findings] == ["mutable-default"]
