"""Each interprocedural rule, demonstrated on its fixture group.

Mirrors ``test_rules.py``: fixtures carry ``# expect: <rule-id>``
markers on the exact lines that must produce findings. Interprocedural
fixtures are *groups* — files analyzed together under scoped module
paths, so call chains cross module boundaries the way they do in the
real tree.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.analysis import project_rule_ids
from repro.analysis.project import ProjectAnalyzer

FIXTURES = Path(__file__).parent / "fixtures" / "interproc"

_MARKER_RE = re.compile(
    r"#\s*expect:\s*(?P<rules>[A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
)

#: group name → {module path analyzed under: fixture file}.
GROUPS: Dict[str, Dict[str, str]] = {
    "async-blocking": {
        "repro/serve/fixture_handlers.py": "async_blocking.py",
    },
    "snapshot-mutation": {
        "repro/serve/fixture_swap.py": "snapshot_mutation.py",
    },
}


def _sources(group: Dict[str, str]) -> Dict[str, str]:
    return {
        module: (FIXTURES / filename).read_text()
        for module, filename in group.items()
    }


def expected_markers(
    group: Dict[str, str]
) -> List[Tuple[str, int, str]]:
    expected = []
    for module, filename in group.items():
        source = (FIXTURES / filename).read_text()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _MARKER_RE.search(text)
            if match is None:
                continue
            for rule_id in match.group("rules").split(","):
                expected.append((module, lineno, rule_id.strip()))
    return sorted(expected)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_fixture_findings_match_markers(name):
    group = GROUPS[name]
    markers = expected_markers(group)
    assert markers, f"fixture group {name} has no # expect markers"
    result = ProjectAnalyzer().analyze_sources(_sources(group))
    found = sorted(
        (f.path, f.line, f.rule) for f in result.findings
    )
    assert found == markers, "\n".join(
        f.format() for f in result.findings
    )


def test_every_project_rule_has_a_fixture():
    covered = set()
    for group in GROUPS.values():
        covered.update(rule for _, _, rule in expected_markers(group))
    assert covered == set(project_rule_ids())


def test_project_rule_metadata():
    from repro.analysis import project_rules

    rules = project_rules()
    ids = [rule.id for rule in rules]
    assert len(ids) == len(set(ids))
    assert all(rule.summary for rule in rules)
    # Project and local rule ids never collide.
    from repro.analysis import rule_ids

    assert not set(ids) & set(rule_ids())


def test_async_blocking_scoped_to_serve():
    source = (FIXTURES / "async_blocking.py").read_text()
    result = ProjectAnalyzer().analyze_sources(
        {"repro/stream/fixture_handlers.py": source}
    )
    assert not any(
        f.rule == "async-blocking" for f in result.findings
    )


def test_snapshot_mutation_excluded_under_tests_profile():
    # Test setup legitimately builds and pokes snapshot indexes; the
    # same source under a tests/ module key raises nothing. The
    # fixture's classes must live on a serve path for the rule to see
    # them, so pair the serve module with a tests-profile mutator.
    swap = (FIXTURES / "snapshot_mutation.py").read_text()
    result = ProjectAnalyzer().analyze_sources(
        {
            "repro/serve/fixture_swap.py": swap,
        }
    )
    assert any(f.rule == "snapshot-mutation" for f in result.findings)
    mutator = (
        "from repro.serve.fixture_swap import QueryIndex\n"
        "\n"
        "def poke_fixture(rows):\n"
        "    index = QueryIndex(rows)\n"
        "    index.rows = {}\n"
        "    return index\n"
    )
    result = ProjectAnalyzer().analyze_sources(
        {
            "repro/serve/fixture_swap.py": swap,
            "tests/serve/fixture_mutator.py": mutator,
        }
    )
    flagged = [
        f.path for f in result.findings
        if f.rule == "snapshot-mutation"
    ]
    # Serve-side findings stay; the tests-profile mutation is excused.
    assert "repro/serve/fixture_swap.py" in flagged
    assert "tests/serve/fixture_mutator.py" not in flagged


def test_inline_suppression_silences_project_rules():
    source = (FIXTURES / "async_blocking.py").read_text().replace(
        "time.sleep(0.01)  # expect: async-blocking",
        "time.sleep(0.01)  # repro: ignore[async-blocking]",
    )
    result = ProjectAnalyzer().analyze_sources(
        {"repro/serve/fixture_handlers.py": source}
    )
    lines = [
        f.line for f in result.findings if f.rule == "async-blocking"
    ]
    assert 18 not in lines  # the suppressed site
    assert lines  # the unsuppressed handler is still flagged


def test_rule_filter_restricts_project_rules():
    group = GROUPS["snapshot-mutation"]
    result = ProjectAnalyzer().analyze_sources(
        _sources(group), rule_filter={"async-blocking"}
    )
    assert not result.findings
    assert result.rules_run == ("async-blocking",)
