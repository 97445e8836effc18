"""The whole-program rule over the :class:`Project` call graph.

Per-file rules (:mod:`repro.analysis.rules`) see one AST at a time;
**RPL-A002** sees the call graph, so it catches a blocking call
*transitively* reachable from an ``async def`` through ordinary sync
calls (depth ≥ 1; depth 0 is RPL-A001's).  The diagnostic prints the
full call chain.

The rule only ever traverses *resolved* call edges: an unknown or
external edge ends the walk, so imprecision in the call graph makes it
quieter, never noisier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.project import FnKey, Project, is_package_path, short_fn

__all__ = ["ProjectRule", "INTERPROC_RULES", "run_project_rules"]

_MAX_DEPTH = 12  # call chains deeper than this degrade to silence


@dataclass(frozen=True)
class ProjectRule:
    """Descriptor for one whole-program rule."""

    id: str
    name: str
    summary: str
    check: Callable[[Project], Iterator[Diagnostic]]


def _chain(keys: list[FnKey]) -> str:
    return " -> ".join(short_fn(key) for key in keys)


def _first_blocking_chain(project: Project, start: FnKey,
                          ) -> tuple[list[FnKey], str] | None:
    """Shortest sync call chain from ``start`` to a blocking call.

    Returns ``(chain, blocking_name)`` where ``chain`` starts at
    ``start``; ``None`` if no blocking call is reachable.  Offloaded
    edges (thread-pool references), async callees (their own roots) and
    unresolved edges are never traversed.
    """
    queue: list[tuple[FnKey, list[FnKey]]] = [(start, [start])]
    seen = {start}
    while queue:
        key, chain = queue.pop(0)
        if len(chain) > _MAX_DEPTH:
            continue
        fn = project.function(key)
        if fn is None:
            continue
        suppressions = project.module_of(key).suppressions
        for line, _col, name in fn.blocking:
            if not suppressions.covers("RPL-A002", line):
                return chain, name
        for edge in project.edges(key):
            if not edge.resolved or edge.offloaded:
                continue
            callee: FnKey = (edge.target[1], edge.target[2])
            callee_fn = project.function(callee)
            if callee_fn is None or callee_fn.is_async or callee in seen:
                continue
            seen.add(callee)
            queue.append((callee, chain + [callee]))
    return None


def check_async_transitive_blocking(project: Project
                                    ) -> Iterator[Diagnostic]:
    for key, fn in project.functions():
        if not fn.is_async:
            continue
        module = project.module_of(key)
        if not is_package_path(module.path):
            continue
        reported: set[FnKey] = set()
        for edge in project.edges(key):
            if not edge.resolved or edge.offloaded:
                continue
            callee: FnKey = (edge.target[1], edge.target[2])
            callee_fn = project.function(callee)
            if callee_fn is None or callee_fn.is_async \
                    or callee in reported:
                continue
            found = _first_blocking_chain(project, callee)
            if found is None:
                continue
            chain, blocking = found
            reported.add(callee)
            if module.suppressions.covers("RPL-A002", edge.line):
                continue
            yield Diagnostic(
                path=module.path, line=edge.line, col=edge.col,
                rule="RPL-A002",
                message=f"async {short_fn(key)} reaches blocking "
                        f"{blocking}() via {_chain([key] + chain)}; the "
                        "event loop stalls for every in-flight request — "
                        "offload with asyncio.to_thread or make the helper "
                        "async")


INTERPROC_RULES: tuple[ProjectRule, ...] = (
    ProjectRule(
        id="RPL-A002",
        name="async-transitive-blocking",
        summary="Blocking call transitively reachable from an async def "
                "through sync helpers (depth >= 1); prints the chain.",
        check=check_async_transitive_blocking,
    ),
)


def run_project_rules(project: Project,
                      rule_ids: set[str] | None = None
                      ) -> list[Diagnostic]:
    """Run the selected whole-program rules and sort the findings."""
    diagnostics: list[Diagnostic] = []
    for rule in INTERPROC_RULES:
        if rule_ids is None or rule.id in rule_ids:
            diagnostics.extend(rule.check(project))
    return sorted(diagnostics)
