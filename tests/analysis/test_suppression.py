"""Suppression comments: parsing and end-to-end silencing."""

from __future__ import annotations

from repro.analysis import suppressed_rules
from tests.analysis.local import analyze_local

BARE_EXCEPT = "try:\n    pass\nexcept:\n    pass\n"


def test_parse_bare_and_bracketed():
    source = (
        "a = 1  # repro: ignore\n"
        "b = 2  # repro: ignore[wall-clock]\n"
        "c = 3  # repro: ignore[wall-clock, swallowed-exception]\n"
        "d = 4  # repro: ignore[]\n"
        "e = 5  # no marker here\n"
    )
    parsed = suppressed_rules(source)
    assert parsed[1] is None
    assert parsed[2] == frozenset({"wall-clock"})
    assert parsed[3] == frozenset({"wall-clock", "swallowed-exception"})
    assert parsed[4] is None  # empty brackets behave like a bare ignore
    assert 5 not in parsed


def test_matching_suppression_silences_finding():
    source = BARE_EXCEPT.replace(
        "except:", "except:  # repro: ignore[swallowed-exception]"
    )
    result = analyze_local(source, "x.py")
    assert result.clean


def test_bare_suppression_silences_everything():
    source = BARE_EXCEPT.replace("except:", "except:  # repro: ignore")
    result = analyze_local(source, "x.py")
    assert result.clean


def test_unrelated_suppression_does_not_silence():
    source = BARE_EXCEPT.replace(
        "except:", "except:  # repro: ignore[wall-clock]"
    )
    result = analyze_local(source, "x.py")
    assert [f.rule for f in result.findings] == ["swallowed-exception"]


def test_suppression_on_other_line_does_not_silence():
    source = "# repro: ignore[swallowed-exception]\n" + BARE_EXCEPT
    result = analyze_local(source, "x.py")
    assert [f.rule for f in result.findings] == ["swallowed-exception"]
