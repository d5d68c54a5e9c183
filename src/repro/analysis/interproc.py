"""The interprocedural rule family (call-graph powered).

These rules see the *project*, not a file: a symbol table and call
graph (``repro/analysis/callgraph.py``). Each encodes a failure mode
that is invisible to any single-file pass:

``async-blocking``
    A blocking call (``time.sleep``, socket ops, file I/O,
    ``subprocess``) reachable from an ``async def`` in ``repro.serve``
    without an executor hop. One blocked coroutine stalls every
    connection on the loop — the self-protecting query service would
    DoS itself. Functions dispatched via ``run_in_executor`` /
    ``asyncio.to_thread`` are passed as references, never called, so
    the hop is exempt by construction.

``snapshot-mutation``
    The serve plane's correctness rests on *immutable* snapshot
    indexes swapped atomically: writes to a published ``*Index``
    object outside its own methods, or to the swapper's published
    slot outside the designated publish points, would hand readers a
    torn day.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    CallSite,
    ClassSymbol,
)
from repro.analysis.findings import Finding


class ProjectModel:
    """Everything a project rule can see."""

    def __init__(self, graph: CallGraph, paths: Mapping[str, str]) -> None:
        self.graph = graph
        #: module key → real filesystem path (for findings)
        self.paths = dict(paths)

    def path_of(self, module: str) -> str:
        return self.paths.get(module, module)


class ProjectRule:
    """One interprocedural check over a :class:`ProjectModel`."""

    id: str = ""
    summary: str = ""

    def check_project(self, project: ProjectModel) -> List[Finding]:
        raise NotImplementedError

    def _finding(
        self,
        project: ProjectModel,
        module: str,
        line: int,
        column: int,
        message: str,
    ) -> Finding:
        return Finding(
            path=project.path_of(module),
            line=line,
            column=column + 1,
            rule=self.id,
            message=message,
        )


#: Dotted external calls that block the event loop.
BLOCKING_CALLS: FrozenSet[str] = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "socket.gethostbyaddr",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.popen",
        "os.waitpid",
        "urllib.request.urlopen",
        "open",
        "input",
    }
)

#: Method names that block on sockets/paths regardless of receiver.
BLOCKING_METHODS: FrozenSet[str] = frozenset(
    {
        ".recv", ".recv_into", ".recvfrom", ".accept", ".sendall",
        ".makefile", ".read_text", ".write_text", ".read_bytes",
        ".write_bytes",
    }
)

#: Packages whose async defs must never block the loop.
ASYNC_PACKAGES: Tuple[str, ...] = ("repro/serve/",)


class AsyncBlockingRule(ProjectRule):
    id = "async-blocking"
    summary = (
        "blocking call reachable from an async def in repro.serve "
        "without an executor hop"
    )

    def _blocking_symbol(self, site: CallSite) -> Optional[str]:
        if site.symbol in BLOCKING_CALLS:
            return site.symbol
        if site.symbol.startswith("."):
            return site.symbol if site.symbol in BLOCKING_METHODS else None
        tail = "." + site.symbol.rpartition(".")[2]
        if tail in BLOCKING_METHODS:
            return site.symbol
        return None

    def check_project(self, project: ProjectModel) -> List[Finding]:
        graph = project.graph
        # Functions that block directly, with the blocking symbol.
        blocking: Dict[str, str] = {}
        for qualname in sorted(graph.functions):
            function = graph.functions[qualname]
            for site in function.calls:
                symbol = self._blocking_symbol(site)
                if symbol is not None:
                    blocking[qualname] = f"{symbol}()"
                    break
        # Propagate along call edges (callee blocking → caller
        # blocking), recording the chain for the message.
        changed = True
        while changed:
            changed = False
            for caller in sorted(graph.edges):
                if caller in blocking:
                    continue
                for callee in sorted(graph.edges[caller]):
                    if callee in blocking:
                        witness = blocking[callee]
                        short = callee.rsplit(".", 1)[-1]
                        if witness.count(" <- ") < 4:
                            witness = f"{witness} <- {short}()"
                        blocking[caller] = witness
                        changed = True
                        break
        findings: List[Finding] = []
        for qualname in sorted(graph.functions):
            function = graph.functions[qualname]
            if not function.is_async:
                continue
            if not function.module.startswith(ASYNC_PACKAGES):
                continue
            if qualname not in blocking:
                continue
            # Anchor at the first call site that starts a blocking
            # chain (direct or through a project callee).
            site_line, site_col = function.line, function.column
            detail = blocking[qualname]
            for site in function.calls:
                symbol = self._blocking_symbol(site)
                if symbol is not None:
                    site_line, site_col = site.line, site.column
                    break
                target = graph.resolved.get(qualname, {}).get(
                    (site.line, site.column)
                )
                if (
                    target is not None
                    and target.kind == "project"
                    and target.name in blocking
                ):
                    site_line, site_col = site.line, site.column
                    break
            findings.append(
                self._finding(
                    project,
                    function.module,
                    site_line,
                    site_col,
                    f"async def {function.name!r} reaches blocking "
                    f"{detail}; one blocked coroutine stalls every "
                    f"connection — hop through "
                    f"loop.run_in_executor/asyncio.to_thread instead",
                )
            )
        return findings


#: Methods allowed to write the swapper's published slot / build an
#: index.  Everything else mutating published state is a torn read
#: waiting to happen.
PUBLISH_METHODS: FrozenSet[str] = frozenset(
    {"__init__", "rebuild", "publish", "build"}
)


class SnapshotMutationRule(ProjectRule):
    id = "snapshot-mutation"
    summary = (
        "mutation of published snapshot/index state outside the "
        "designated publish point"
    )

    SERVE_PACKAGE = "repro/serve/"

    def check_project(self, project: ProjectModel) -> List[Finding]:
        graph = project.graph
        findings: List[Finding] = []
        # Swapper classes: anything in repro.serve exposing
        # ``current_index``; the slot it returns is the published ref.
        slots: Dict[str, Set[str]] = {}
        index_classes: Set[str] = set()
        for qualname in sorted(graph.classes):
            cls = graph.classes[qualname]
            if not cls.module.startswith(self.SERVE_PACKAGE):
                continue
            if cls.name.endswith("Index"):
                index_classes.add(qualname)
            if "current_index" in cls.methods:
                slot = self._published_slot(cls, project)
                if slot is not None:
                    slots[qualname] = {slot}
        for qualname in sorted(slots):
            cls = graph.classes[qualname]
            for method_name in sorted(cls.methods):
                if method_name in PUBLISH_METHODS:
                    continue
                method = cls.methods[method_name]
                for write in method.attr_writes:
                    if write.base == "self" and write.attr in (
                        slots[qualname]
                    ):
                        findings.append(
                            self._finding(
                                project,
                                cls.module,
                                write.line,
                                write.column,
                                f"{cls.name}.{method_name} writes the "
                                f"published snapshot slot "
                                f"{write.attr!r} outside the publish "
                                f"point ({'/'.join(sorted(PUBLISH_METHODS))}); "
                                f"readers could observe a torn index",
                            )
                        )
        # Writes to a *published* index object from outside its class.
        for fqual in sorted(graph.functions):
            function = graph.functions[fqual]
            for write in function.attr_writes:
                if write.base in ("self", "cls"):
                    continue
                declared = function.var_types.get(write.base)
                if declared is None or declared not in index_classes:
                    continue
                cls = graph.classes[declared]
                if function.class_name == cls.name and (
                    function.module == cls.module
                ):
                    continue
                findings.append(
                    self._finding(
                        project,
                        function.module,
                        write.line,
                        write.column,
                        f"mutation of {cls.name}.{write.attr} outside "
                        f"{cls.name}'s own methods; snapshot indexes "
                        f"are immutable once published — build a new "
                        f"index and swap it atomically",
                    )
                )
        return findings

    def _published_slot(
        self, cls: ClassSymbol, project: ProjectModel
    ) -> Optional[str]:
        """The ``self.<attr>`` slot the swapper publishes through."""
        del project
        for candidate in ("_index", "index", "_current", "current"):
            if candidate in cls.attr_types or any(
                write.attr == candidate
                for writes in cls.attr_assigns.values()
                for write in writes
            ):
                return candidate
        return None


def project_rules() -> Tuple[ProjectRule, ...]:
    """All interprocedural rules, in reporting order."""
    return (
        AsyncBlockingRule(),
        SnapshotMutationRule(),
    )


def project_rule_ids() -> List[str]:
    return [rule.id for rule in project_rules()]
