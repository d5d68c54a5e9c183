"""The result type, file discovery and logical module paths.

Real filesystem paths map to *logical module paths* —
``repro/...``-relative forward-slash paths like ``repro/stream/engine.py``
— which is what rules scope on. That keeps scoping independent of where
the checkout lives (``src/repro/...``, an installed site-packages, or a
test fixture passing an explicit override). The one runner is
:class:`repro.analysis.project.ProjectAnalyzer`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.analysis.findings import Finding

#: Rule id used for files that fail to parse.
PARSE_ERROR = "parse-error"


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.findings

    def finalize(self) -> "AnalysisResult":
        self.findings.sort()
        return self


def logical_module(path: str) -> str:
    """The ``repro/...`` logical path for *path*.

    The last ``repro`` component anchors the logical path; files outside
    any ``repro`` package fall back to their basename, which matches no
    scoped rule (unscoped rules still run).
    """
    parts = os.path.normpath(path).split(os.sep)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return parts[-1]


def _python_files(path: str) -> List[str]:
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        raise FileNotFoundError(f"no such file or directory: {path!r}")
    collected: List[str] = []
    for root, directories, files in os.walk(path):
        directories.sort()
        directories[:] = [
            name for name in directories
            if name not in ("__pycache__", ".git")
        ]
        for name in sorted(files):
            if name.endswith(".py"):
                collected.append(os.path.join(root, name))
    return collected
