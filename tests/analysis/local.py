"""The analyzer's local rules over one in-memory file."""

from __future__ import annotations

from repro.analysis import AnalysisResult, ProjectAnalyzer


def analyze_local(source: str, module: str) -> AnalysisResult:
    """The one pass with no project rules; *module* doubles as path."""
    return ProjectAnalyzer(rules=()).analyze_sources({module: source})
