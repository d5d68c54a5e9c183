"""Project-level analysis: records, profiles, and the engine.

This is the front door of the analyzer. One run is::

    collect files  →  per-module records
                   →  call graph  →  project rules  →  findings

whole, in this process, every time: a verdict is a function of the
tree and the rule set only, so nothing is kept between runs.

A **module record** is everything the engine needs from one file —
symbol table, local-rule findings, suppression lines;
the ASTs themselves never outlive the builder.

**Profiles** tune rules per directory: production sources take every
rule; benchmarks may read the wall clock (timing *is* their job);
tests may build and mutate snapshot indexes in setup code.

The analyzer's own fixture corpus (``tests/analysis/fixtures``) is
excluded: those files are *deliberately* dirty.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from importlib.util import decode_source
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.callgraph import (
    CallGraph,
    ModuleSymbols,
    build_module_symbols,
    dotted_of,
)
from repro.analysis.findings import (
    Finding,
    is_suppressed,
    suppressed_rules,
)
from repro.analysis.interproc import ProjectModel, ProjectRule, project_rules
from repro.analysis.rules import default_rules
from repro.analysis.runner import (
    PARSE_ERROR,
    AnalysisResult,
    _python_files,
    logical_module,
)

#: Directory profiles and the *local* rule ids they exclude.
PROFILE_LOCAL_EXCLUDES: Dict[str, FrozenSet[str]] = {
    "src": frozenset(),
    # Benchmarks measure wall-clock time on purpose.
    "bench": frozenset({"wall-clock"}),
    # Tests stage clocks and timelines deliberately.
    "tests": frozenset({"wall-clock"}),
}

#: Directory profiles and the *project* rule ids they exclude.
PROFILE_PROJECT_EXCLUDES: Dict[str, FrozenSet[str]] = {
    "src": frozenset(),
    "bench": frozenset({"snapshot-mutation"}),
    # Test setup legitimately builds and pokes snapshot indexes.
    "tests": frozenset({"snapshot-mutation"}),
}

#: Path fragments never analyzed (deliberately-dirty fixture corpora).
EXCLUDED_FRAGMENTS: Tuple[str, ...] = ("tests/analysis/fixtures",)


def profile_for(module: str) -> str:
    """The directory profile of a module key."""
    if module.startswith("benchmarks/") or module.startswith("bench_"):
        return "bench"
    if module.startswith(("tests/", "test_")) or "/tests/" in module:
        return "tests"
    return "src"


def module_key(path: str, root: Optional[str] = None) -> str:
    """Stable, unique module key for *path*.

    Files inside a ``repro`` package keep their logical path
    (``repro/stream/engine.py``) so rule scoping sees the package path;
    everything else keys by its root-relative path
    (``tests/stream/test_engine.py``).
    """
    logical = logical_module(path)
    if logical.startswith("repro/") or logical == "repro":
        return logical
    base = root if root is not None else os.getcwd()
    relative = os.path.relpath(os.path.abspath(path), os.path.abspath(base))
    if relative.startswith(".."):
        relative = os.path.normpath(path)
    return relative.replace(os.sep, "/")


@dataclass
class ModuleRecord:
    """Everything the engine keeps from one analyzed file."""

    module: str
    path: str
    profile: str
    symbols: Optional[ModuleSymbols] = None
    #: suppression-filtered local findings, *unfiltered by --rule*
    local_findings: List[Finding] = field(default_factory=list)
    suppressions: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict
    )


def build_record(
    source: Union[str, bytes], path: str, module: str, profile: str
) -> ModuleRecord:
    """Parse one file into its :class:`ModuleRecord`.

    Raw bytes decode as the interpreter would decode them; bytes it
    cannot decode are a parse error like any other.
    """
    record = ModuleRecord(module=module, path=path, profile=profile)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        record.local_findings.append(
            Finding(
                path=path,
                line=error.lineno or 1,
                column=(error.offset or 0) or 1,
                rule=PARSE_ERROR,
                message=f"could not parse file: {error.msg}",
            )
        )
        return record
    if isinstance(source, bytes):
        source = decode_source(source)
    record.symbols = build_module_symbols(tree, module, path)
    record.suppressions = suppressed_rules(source)
    excluded = PROFILE_LOCAL_EXCLUDES.get(profile, frozenset())
    for rule in default_rules():
        if rule.id in excluded or not rule.applies_to(module):
            continue
        for finding in rule.check(tree, module, path):
            if not is_suppressed(finding, record.suppressions):
                record.local_findings.append(finding)
    record.local_findings.sort()
    return record


class ProjectAnalyzer:
    """The analysis engine over one or more directory roots."""

    def __init__(
        self,
        rules: Optional[Sequence[ProjectRule]] = None,
        root: Optional[str] = None,
    ) -> None:
        self.project_rules: Tuple[ProjectRule, ...] = tuple(
            project_rules() if rules is None else rules
        )
        self.root = root

    # -- public API --------------------------------------------------------

    def analyze_paths(
        self,
        paths: Sequence[str],
        rule_filter: Optional[Set[str]] = None,
    ) -> AnalysisResult:
        """Analyze files/directories; see module docstring for phases.

        *rule_filter* keeps only the named rule ids.
        """
        records = []
        for module, path in sorted(self._collect(paths).items()):
            with open(path, "rb") as handle:
                source = handle.read()
            records.append(
                build_record(source, path, module, profile_for(module))
            )
        return self._assemble(records, rule_filter)

    def analyze_sources(
        self,
        sources: Mapping[str, str],
        rule_filter: Optional[Set[str]] = None,
    ) -> AnalysisResult:
        """In-memory analysis of ``{module key: source}`` mappings.

        The test-suite entry point: module keys double as paths, so
        fixtures can place themselves on scoped paths like
        ``repro/serve/handlers.py`` without touching disk.
        """
        records = [
            build_record(
                source, module, module, profile_for(module)
            )
            for module, source in sorted(sources.items())
        ]
        return self._assemble(records, rule_filter)

    # -- phases ------------------------------------------------------------

    def _collect(self, paths: Sequence[str]) -> Dict[str, str]:
        """module key → path for every analyzable file."""
        files: Dict[str, str] = {}
        for path in paths:
            # Fragment exclusions apply to files discovered *by
            # walking*: pointing the analyzer straight at a fixture
            # file or at the fixture directory itself is an explicit
            # request and is honored (that is how the fixture tests
            # and spot checks exercise the CLI).
            root_normalized = path.replace(os.sep, "/")
            waived = frozenset(
                fragment
                for fragment in EXCLUDED_FRAGMENTS
                if fragment in root_normalized
            )
            explicit_file = os.path.isfile(path)
            for file_path in _python_files(path):
                normalized = file_path.replace(os.sep, "/")
                if not explicit_file and any(
                    fragment in normalized
                    for fragment in EXCLUDED_FRAGMENTS
                    if fragment not in waived
                ):
                    continue
                files[module_key(file_path, self.root)] = file_path
        return files

    def _assemble(
        self,
        records: List[ModuleRecord],
        rule_filter: Optional[Set[str]],
    ) -> AnalysisResult:
        tables = {
            record.module: record.symbols
            for record in records
            if record.symbols is not None
        }
        paths = {record.module: record.path for record in records}
        model = ProjectModel(CallGraph(tables), paths)
        by_path = {record.path: record for record in records}

        local_ids: Set[str] = set()
        for record in records:
            excluded = PROFILE_LOCAL_EXCLUDES.get(
                record.profile, frozenset()
            )
            local_ids.update(
                rule.id for rule in default_rules()
                if rule.id not in excluded
            )
        result = AnalysisResult(files_checked=len(records))
        findings: List[Finding] = []
        for record in records:
            for finding in record.local_findings:
                if rule_filter is not None and (
                    finding.rule not in rule_filter
                    and finding.rule != PARSE_ERROR
                ):
                    continue
                findings.append(finding)
        ran_project: List[str] = []
        for rule in self.project_rules:
            if rule_filter is not None and rule.id not in rule_filter:
                continue
            ran_project.append(rule.id)
            for finding in rule.check_project(model):
                record = by_path.get(finding.path)
                if record is not None:
                    if rule.id in PROFILE_PROJECT_EXCLUDES.get(
                        record.profile, frozenset()
                    ):
                        continue
                    if is_suppressed(finding, record.suppressions):
                        continue
                findings.append(finding)
        result.findings = findings
        ids = sorted(local_ids) + ran_project
        if rule_filter is not None:
            ids = [
                rule_id for rule_id in ids
                if rule_id in rule_filter or rule_id == PARSE_ERROR
            ]
        result.rules_run = tuple(ids)
        result.finalize()
        return result


def all_rule_descriptions() -> List[Tuple[str, str]]:
    """(id, summary) for every local and project rule, for reports."""
    described: List[Tuple[str, str]] = [
        (rule.id, rule.summary) for rule in default_rules()
    ]
    described.extend(
        (rule.id, rule.summary) for rule in project_rules()
    )
    described.append((PARSE_ERROR, "file could not be parsed"))
    return described


__all__ = [
    "ModuleRecord",
    "ProjectAnalyzer",
    "all_rule_descriptions",
    "build_record",
    "dotted_of",
    "module_key",
    "profile_for",
]
