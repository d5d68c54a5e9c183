"""An offline unused-import gate over ``src/repro`` (pyflakes' F401).

CI's ruff is the other gate; this one runs wherever the tests do, so a
deletion that leaves an import dangling fails tier-1 too. An import
binding counts as used when the module names it anywhere — in code, in
a string annotation (``Optional["BackendSpec"]``, the names a
``TYPE_CHECKING`` block imports), in ``typing.cast``'s string type, or
in ``__all__`` — and an explicit re-export (``import x as x``) or a
``# noqa: F401`` / bare ``# noqa`` on the import's lines exempts it.
Names are matched module-wide, not per scope, so the gate can miss an
import that a shadowing local hides; it never flags a used one.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _bindings(tree: ast.Module) -> Iterator[Tuple[ast.stmt, str]]:
    """Every ``(import statement, name it binds)`` in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None and alias.asname == alias.name:
                    continue  # ``import x as x``: an explicit re-export
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                yield node, alias.asname or alias.name


def _string_names(text: str) -> Set[str]:
    """The names a string annotation refers to."""
    try:
        expression = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return _names(expression)


def _names(tree: ast.AST) -> Set[str]:
    """Names *tree* references, string annotations included."""
    found: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (
            isinstance(node, ast.Call)
            and node.args
            and (
                isinstance(node.func, ast.Name) and node.func.id == "cast"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "cast"
            )
        ):
            annotations.append(node.args[0])
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found |= _string_names(node.value)
    return found


def _exported(tree: ast.Module) -> Set[str]:
    """The strings assigned (or added) to ``__all__``."""
    exported: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets
            ) and node.value is not None:
                exported |= {
                    each.value
                    for each in ast.walk(node.value)
                    if isinstance(each, ast.Constant)
                    and isinstance(each.value, str)
                }
    return exported


def _suppressed(lines: List[str], node: ast.stmt) -> bool:
    end = node.end_lineno or node.lineno
    for line in lines[node.lineno - 1:end]:
        match = NOQA.search(line)
        if match and (
            match.group("codes") is None or "F401" in match.group("codes")
        ):
            return True
    return False


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each import binding *source* never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _names(tree) | _exported(tree)
    return sorted(
        (node.lineno, name)
        for node, name in _bindings(tree)
        if name not in used and not _suppressed(lines, node)
    )


def test_the_gate_sees_what_f401_sees():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os",
            "import os.path",
            "import json as codec",
            "from typing import TYPE_CHECKING, Dict, List, Optional, cast",
            "from a import b as b",
            "from c import d, e  # noqa: F401",
            "from f import (",
            "    g,  # noqa",
            ")",
            "from h import I, J, K, L",
            "if TYPE_CHECKING:",
            "    from m import N, O",
            "__all__ = ['I']",
            "def run(x: 'Optional[N]') -> Dict[str, int]:",
            "    return cast('J', x)",
            "def walk() -> None:",
            "    import shutil",
            "value: 'List[K]' = []",
        ]
    )
    assert unused_imports(source) == [
        (2, "os"),
        (3, "os"),
        (4, "codec"),
        (11, "L"),
        (13, "O"),
        (18, "shutil"),
    ]


def test_no_unused_imports_in_src():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name!r} imported but unused"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "\n".join(found)
