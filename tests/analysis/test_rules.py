"""Each rule, demonstrated on its fixture module.

Fixtures carry ``# expect: <rule-id>`` markers on the exact lines that
must produce findings; the test asserts the analyzer's findings match
the marker set exactly — no misses, no extras, no off-by-one lines.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.analysis import logical_module
from repro.analysis.rules import default_rules, rule_ids
from tests.analysis.local import analyze_local

FIXTURES = Path(__file__).parent / "fixtures"

_MARKER_RE = re.compile(
    r"#\s*expect:\s*(?P<rules>[A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
)

#: fixture file → logical module path it is analyzed under.
CASES = [
    ("wall_clock.py", "repro/core/fixture_wall_clock.py"),
    ("swallowed_exception.py", "repro/stream/fixture_swallowed.py"),
    ("segment_decode.py", "repro/store/fixture_segment_decode.py"),
]


def expected_markers(source: str) -> List[Tuple[int, str]]:
    expected = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _MARKER_RE.search(text)
        if match is None:
            continue
        for rule_id in match.group("rules").split(","):
            expected.append((lineno, rule_id.strip()))
    return sorted(expected)


@pytest.mark.parametrize("filename,module", CASES)
def test_fixture_findings_match_markers(filename, module):
    source = (FIXTURES / filename).read_text()
    markers = expected_markers(source)
    assert markers, f"fixture {filename} has no # expect markers"
    result = analyze_local(source, module)
    found = sorted((f.line, f.rule) for f in result.findings)
    assert found == markers, "\n".join(
        f.format() for f in result.findings
    )


def test_every_rule_has_a_fixture():
    covered = set()
    for filename, module in CASES:
        source = (FIXTURES / filename).read_text()
        covered.update(rule for _, rule in expected_markers(source))
    assert covered == set(rule_ids())


def test_rule_metadata():
    rules = default_rules()
    ids = [rule.id for rule in rules]
    assert len(ids) == len(set(ids))
    assert all(rule.summary for rule in rules)


def test_broad_except_scoped_to_ingest_paths():
    source = (FIXTURES / "swallowed_exception.py").read_text()
    result = analyze_local(source, "repro/core/fixture.py")
    rules = [f.rule for f in result.findings]
    # Off the ingest paths only the bare except remains flagged.
    assert rules == ["swallowed-exception"]
    assert "except:" in source.splitlines()[result.findings[0].line - 1]


def test_wall_clock_scoped_to_deterministic_packages():
    source = (FIXTURES / "wall_clock.py").read_text()
    result = analyze_local(source, "repro/reporting/fixture.py")
    assert not result.findings


def test_segment_decode_scoped_to_store_package():
    source = (FIXTURES / "segment_decode.py").read_text()
    # Outside repro/store the same code is fine — e.g. reporting may
    # legitimately read JSON.
    result = analyze_local(source, "repro/reporting/fixture.py")
    assert not any(
        f.rule == "decode-in-segment-hot-path" for f in result.findings
    )
    # The manifest module is an exempt metadata path.
    result = analyze_local(source, "repro/store/manifest.py")
    assert not any(
        f.rule == "decode-in-segment-hot-path" for f in result.findings
    )


def test_logical_module_mapping():
    assert (
        logical_module("src/repro/stream/state.py")
        == "repro/stream/state.py"
    )
    assert (
        logical_module("/checkout/src/repro/core/stats.py")
        == "repro/core/stats.py"
    )
    assert logical_module("scripts/tool.py") == "tool.py"


def test_parse_error_becomes_finding():
    result = analyze_local("def broken(:\n", "broken.py")
    assert [f.rule for f in result.findings] == ["parse-error"]
    assert result.files_checked == 1
