"""Whole-program model: per-module facts and the call graph.

Per-file AST rules structurally cannot see cross-module hazards — a
sync helper that sleeps two frames below an ``async def`` passes the
per-file async rule.  This module is the substrate the whole-program
rule (:mod:`repro.analysis.interproc`) stands on:

* :func:`extract_facts` distils one parsed module into a
  :class:`ModuleFacts` — function definitions with their outgoing call
  sites and blocking-call sites, classes with their bases, re-exports,
  and the suppression table.
* :class:`Project` assembles the facts of every analysed module into a
  conservative call graph.  Name and attribute calls are resolved
  through import tables, module re-exports and simple local type
  inference (``plan = FaultPlan.from_env()`` → ``plan.claim()``
  resolves to ``FaultPlan.claim``); ``functools.partial(fn, ...)``
  resolves to ``fn``; calls whose target cannot be proven degrade to an
  *unknown* edge rather than a guess — the whole-program rule never
  traverses unknown edges, so imprecision makes it quieter, not wrong.

Call-graph edges carry an ``offloaded`` flag: a callable *reference*
handed to ``asyncio.to_thread(...)`` or ``loop.run_in_executor(...)``
runs on a worker thread, so the async-reachability rule must not follow
that edge.  (A blocking *call* in the argument list still executes on
the event loop and is not exempt — only references are.)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.analysis.module import (
    ModuleInfo,
    Suppressions,
    dotted_name,
    is_test_path,
)
from repro.analysis.rules import _ASYNC_BLOCKING_CALLS

__all__ = [
    "CallSite",
    "FunctionFacts",
    "ClassFacts",
    "ModuleFacts",
    "Project",
    "Edge",
    "extract_facts",
    "module_name_for",
]


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    ``src/repro/serving/server.py`` → ``repro.serving.server``;
    ``pkg/__init__.py`` → ``pkg``; a leading ``src/`` component is
    dropped so on-disk trees and virtual fixture paths agree.
    """
    parts = [part for part in path.replace("\\", "/").split("/")
             if part not in ("", ".")]
    # Anchor at the last ``src`` component (absolute paths included),
    # else at the first recognisable package root.
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        for root in ("repro", "scripts", "tests"):
            if root in parts:
                parts = parts[parts.index(root):]
                break
        else:
            parts = parts[-1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<root>"


# ---------------------------------------------------------------------------
# facts data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One outgoing call from a function body.

    ``spec`` is the unresolved callee description the :class:`Project`
    later resolves against the global symbol table:

    * ``("direct", dotted)`` — a plain or imported name, canonicalised
      through the module's import/alias tables and local definitions;
    * ``("self", class_canonical, method)`` — ``self.m()`` / ``cls.m()``;
    * ``("typed", type_canonical, method)`` — a method on a receiver
      whose class was inferred locally;
    * ``("unknown", repr)`` — anything else (conservative: not
      traversed).
    """

    line: int
    col: int
    spec: tuple[str, ...]
    offloaded: bool = False


@dataclass(frozen=True)
class FunctionFacts:
    """One function or method definition and everything rules need."""

    qualname: str  # "Cls.method", "fn", or "outer.inner" for nested defs
    is_async: bool
    calls: tuple[CallSite, ...] = ()
    #: blocking-call sites: (line, col, canonical name)
    blocking: tuple[tuple[int, int, str], ...] = ()


@dataclass(frozen=True)
class ClassFacts:
    """One class definition: its name and canonicalised bases."""

    name: str
    bases: tuple[str, ...]


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the whole-program pass needs from one module."""

    path: str
    module: str
    reexports: Mapping[str, str]  # local name -> canonical target
    functions: tuple[FunctionFacts, ...]
    classes: tuple[ClassFacts, ...]
    suppressions: Suppressions


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


class _Extractor:
    """Walks one :class:`ModuleInfo` and produces :class:`ModuleFacts`."""

    def __init__(self, module: ModuleInfo) -> None:
        self.mi = module
        self.module_name = module_name_for(module.path)
        #: simple names defined at module top level (functions/classes)
        self.toplevel: set[str] = {
            node.name for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
        }
        self._relative: dict[str, str] = self._relative_imports()

    # -- name resolution -------------------------------------------------------

    def _relative_imports(self) -> dict[str, str]:
        """Local name → canonical target for relative ``from . import x``."""
        table: dict[str, str] = {}
        package = self.module_name.rsplit(".", 1)[0] \
            if "." in self.module_name else self.module_name
        if self.mi.path.endswith("__init__.py"):
            package = self.module_name
        for node in ast.walk(self.mi.tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            base_parts = package.split(".")
            up = node.level - 1
            if up >= len(base_parts):
                continue  # beyond the root: unresolvable, stay quiet
            base = ".".join(base_parts[: len(base_parts) - up])
            prefix = f"{base}.{node.module}" if node.module else base
            for alias in node.names:
                table[alias.asname or alias.name] = f"{prefix}.{alias.name}"
        return table

    def canonical(self, dotted: str) -> str:
        """Best-effort canonical dotted name seen from this module."""
        head, _, rest = dotted.partition(".")
        if head in self._relative:
            expansion = self._relative[head]
            return f"{expansion}.{rest}" if rest else expansion
        resolved = self.mi.resolve_dotted(dotted)
        head = resolved.split(".", 1)[0]
        if head in self.toplevel:
            return f"{self.module_name}.{resolved}"
        return resolved

    # -- facts -----------------------------------------------------------------

    def extract(self) -> ModuleFacts:
        functions: list[FunctionFacts] = []
        classes: list[ClassFacts] = []
        for node, qualname, class_name in self._definitions():
            if isinstance(node, ast.ClassDef):
                bases = tuple(self.canonical(base)
                              for base in map(dotted_name, node.bases)
                              if base is not None)
                classes.append(ClassFacts(name=node.name, bases=bases))
            else:
                functions.append(self._function_facts(node, qualname,
                                                      class_name))
        return ModuleFacts(
            path=self.mi.path,
            module=self.module_name,
            reexports=self._reexports(),
            functions=tuple(functions),
            classes=tuple(classes),
            suppressions=self.mi.suppressions,
        )

    def _reexports(self) -> dict[str, str]:
        """Module-level names that stand for symbols defined elsewhere."""
        table: dict[str, str] = {}
        for node in self.mi.tree.body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = self.canonical(local)
            elif (isinstance(node, ast.Assign)
                  and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name)):
                dotted = dotted_name(node.value)
                if dotted is not None:
                    table[node.targets[0].id] = self.canonical(dotted)
        return {local: target for local, target in table.items()
                if target != f"{self.module_name}.{local}"}

    def _definitions(self) -> Iterator[tuple[ast.AST, str, str | None]]:
        """Every function/class def with its hierarchical qualname."""

        def walk(body: list[ast.stmt], prefix: str,
                 class_name: str | None) -> Iterator:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{node.name}"
                    yield node, qual, class_name
                    yield from walk(node.body, f"{qual}.", class_name)
                elif isinstance(node, ast.ClassDef):
                    yield node, f"{prefix}{node.name}", None
                    yield from walk(node.body, f"{prefix}{node.name}.",
                                    node.name)
                elif isinstance(node, (ast.If, ast.Try, ast.With,
                                       ast.For, ast.While)):
                    for child in ast.iter_child_nodes(node):
                        if isinstance(child, ast.stmt):
                            yield from walk([child], prefix, class_name)

        yield from walk(self.mi.tree.body, "", None)

    # -- function facts --------------------------------------------------------

    def _function_facts(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                        qualname: str, class_name: str | None
                        ) -> FunctionFacts:
        arguments = (node.args.posonlyargs + node.args.args
                     + node.args.kwonlyargs)
        params = tuple(arg.arg for arg in arguments)
        annotations = {
            arg.arg: self.canonical(ann) for arg in arguments
            if (ann := self._annotation_name(arg.annotation)) is not None
        }
        body_nodes = list(self._own_body(node))
        local_defs = {
            child.name: f"{qualname}.{child.name}"
            for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not node
        }
        assigns = self._local_assigns(body_nodes)
        types = self._local_types(assigns, annotations)
        calls: list[CallSite] = []
        blocking: list[tuple[int, int, str]] = []
        for item in body_nodes:
            if isinstance(item, ast.Call):
                calls.extend(self._call_sites(
                    item, class_name, local_defs, types, params, assigns))
                name = self.mi.resolve(item.func)
                if name in _ASYNC_BLOCKING_CALLS:
                    blocking.append((item.lineno, item.col_offset + 1,
                                     name or ""))
        return FunctionFacts(
            qualname=qualname,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            calls=tuple(calls), blocking=tuple(blocking),
        )

    def _own_body(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk a function body without descending into nested defs.

        Lambda bodies *are* included: their calls run on whatever thread
        invokes them, which for the idioms this repo uses is the
        enclosing function's — attributing them here is the
        conservative choice.
        """
        stack = [child for child in ast.iter_child_nodes(node)
                 if not isinstance(child, (ast.FunctionDef,
                                           ast.AsyncFunctionDef,
                                           ast.ClassDef))]
        while stack:
            current = stack.pop()
            yield current
            for child in ast.iter_child_nodes(current):
                if not isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                    stack.append(child)

    def _annotation_name(self, annotation: ast.expr | None) -> str | None:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str):
            # String annotation: parse the simple dotted-name case.
            text = annotation.value.strip().split("|")[0].strip()
            if text.replace(".", "").replace("_", "").isalnum():
                return text
            return None
        return dotted_name(annotation)

    def _local_assigns(self, body: list[ast.AST]) -> dict[str, ast.expr]:
        assigns: dict[str, ast.expr] = {}
        for item in body:
            if isinstance(item, ast.Assign) and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name):
                assigns[item.targets[0].id] = item.value
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name) \
                    and item.value is not None:
                assigns[item.target.id] = item.value
            elif isinstance(item, (ast.With, ast.AsyncWith)):
                for with_item in item.items:
                    if isinstance(with_item.optional_vars, ast.Name) \
                            and with_item.context_expr is not None:
                        assigns[with_item.optional_vars.id] = \
                            with_item.context_expr
        return assigns

    def _local_types(self, assigns: dict[str, ast.expr],
                     annotations: dict[str, str]) -> dict[str, str]:
        """Variable → canonical class name, where locally provable."""
        types = dict(annotations)
        for name, value in assigns.items():
            inferred = self._infer_type(value)
            if inferred is not None:
                types[name] = inferred
        return types

    def _infer_type(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        dotted = dotted_name(value.func)
        if dotted is None:
            return None
        parts = self.canonical(dotted).split(".")
        # ``FaultPlan(...)`` / ``faults.FaultPlan(...)`` → FaultPlan;
        # ``FaultPlan.from_env(...)`` (a classmethod) → FaultPlan.
        for idx in range(len(parts) - 1, -1, -1):
            if parts[idx][:1].isupper():
                return ".".join(parts[: idx + 1])
        return None

    # -- per-call extraction ---------------------------------------------------

    def _offload_target(self, call: ast.Call) -> ast.expr | None:
        """The callable reference a thread-offload wrapper will run."""
        full = self.mi.resolve(call.func)
        if full == "asyncio.to_thread" and call.args:
            return call.args[0]
        if (isinstance(call.func, ast.Attribute)
                and call.func.attr == "run_in_executor"
                and len(call.args) >= 2):
            return call.args[1]
        return None

    def _call_sites(self, call: ast.Call, class_name: str | None,
                    local_defs: dict[str, str], types: dict[str, str],
                    params: tuple[str, ...], assigns: dict[str, ast.expr]
                    ) -> list[CallSite]:
        def site(func: ast.expr, offloaded: bool = False) -> CallSite:
            return CallSite(line=call.lineno, col=call.col_offset + 1,
                            spec=self._callee_spec(func, class_name,
                                                   local_defs, types,
                                                   params, assigns),
                            offloaded=offloaded)

        sites = [site(call.func)]
        # ``partial(fn, ...)`` — constructed here, invoked wherever it is
        # handed; the conservative reading is an edge to ``fn`` now.
        if sites[0].spec == ("direct", "functools.partial") and call.args:
            sites.append(site(call.args[0]))
        # ``partial(fn, ...)()`` — calling through a just-built partial.
        if isinstance(call.func, ast.Call):
            inner = self.mi.resolve(call.func.func)
            if inner in ("functools.partial", "partial") \
                    and call.func.args:
                sites.append(site(call.func.args[0]))
        target = self._offload_target(call)
        if target is not None:
            if isinstance(target, ast.Call):  # partial(...) offloaded
                inner = self.mi.resolve(target.func)
                if inner in ("functools.partial", "partial") and target.args:
                    target = target.args[0]
            if not isinstance(target, ast.Call):
                sites.append(site(target, offloaded=True))
        return sites

    def _callee_spec(self, func: ast.expr, class_name: str | None,
                     local_defs: dict[str, str], types: dict[str, str],
                     params: tuple[str, ...],
                     assigns: Mapping[str, ast.expr]) -> tuple[str, ...]:
        dotted = dotted_name(func)
        if dotted is None:
            return ("unknown", type(func).__name__)
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and class_name is not None:
            if rest and "." not in rest:
                return ("self", f"{self.module_name}.{class_name}", rest)
            return ("unknown", dotted)
        if not rest and head in local_defs:
            return ("direct", f"{self.module_name}.{local_defs[head]}")
        if rest and head in types and head not in self.mi._import_table:
            if "." not in rest:
                return ("typed", self.canonical(types[head]), rest)
            return ("unknown", dotted)
        if rest and (head in params or head in assigns) \
                and head not in self.mi._import_table \
                and head not in self.mi._alias_table:
            # A method on a local value whose type we could not infer:
            # unknown, not external — nothing may assume it is safe.
            return ("unknown", dotted)
        return ("direct", self.canonical(dotted))


def extract_facts(module: ModuleInfo) -> ModuleFacts:
    """Distil one parsed module into its whole-program facts."""
    return _Extractor(module).extract()


# ---------------------------------------------------------------------------
# the project: the call graph over facts
# ---------------------------------------------------------------------------

FnKey = tuple[str, str]  # (module name, qualname)


@dataclass(frozen=True)
class Edge:
    """One resolved outgoing call edge."""

    line: int
    col: int
    #: ``("fn", module, qualname)`` — resolved package function;
    #: ``("external", name)`` — resolved outside the analysed set;
    #: ``("unknown", why)`` — unresolvable, never traversed.
    target: tuple[str, ...]
    offloaded: bool

    @property
    def resolved(self) -> bool:
        return self.target[0] == "fn"


class Project:
    """Every analysed module, plus the call graph."""

    def __init__(self, facts: Iterable[ModuleFacts]) -> None:
        self.modules: dict[str, ModuleFacts] = {}
        for module_facts in facts:
            self.modules[module_facts.module] = module_facts
        self._functions: dict[FnKey, FunctionFacts] = {}
        self._classes: dict[str, ClassFacts] = {}
        for name, module_facts in self.modules.items():
            for fn in module_facts.functions:
                self._functions[(name, fn.qualname)] = fn
            for cls in module_facts.classes:
                self._classes[f"{name}.{cls.name}"] = cls
        self._edges: dict[FnKey, tuple[Edge, ...]] = {}

    # -- lookups ---------------------------------------------------------------

    def functions(self) -> Iterator[tuple[FnKey, FunctionFacts]]:
        yield from sorted(self._functions.items())

    def function(self, key: FnKey) -> FunctionFacts | None:
        return self._functions.get(key)

    def module_of(self, key: FnKey) -> ModuleFacts:
        return self.modules[key[0]]

    # -- symbol resolution -----------------------------------------------------

    def resolve_symbol(self, dotted: str, *, _seen: frozenset[str]
                       = frozenset()) -> tuple[str, ...]:
        """Resolve a canonical dotted name to a definition.

        Returns ``("fn", module, qualname)``, ``("class", canonical)``,
        ``("external", dotted)`` or ``("unknown", dotted)``.  Re-exports
        (``from repro.dse.screener import X`` in ``repro/dse/__init__``)
        are followed with cycle protection.
        """
        if dotted in _seen:
            return ("unknown", f"re-export cycle at {dotted}")
        _seen = _seen | {dotted}
        # Longest known-module prefix.
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module not in self.modules:
                continue
            remainder = parts[cut:]
            if not remainder:
                return ("external", dotted)  # a module, not a callable
            qualname = ".".join(remainder)
            if (module, qualname) in self._functions:
                return ("fn", module, qualname)
            canonical_cls = f"{module}.{remainder[0]}"
            if canonical_cls in self._classes:
                if len(remainder) == 1:
                    return ("class", canonical_cls)
                method = ".".join(remainder[1:])
                found = self.resolve_method(canonical_cls, method)
                if found is not None:
                    return ("fn",) + found
                return ("unknown", f"no method {method} on {canonical_cls}")
            reexports = self.modules[module].reexports
            if remainder[0] in reexports:
                target = reexports[remainder[0]]
                rest = ".".join(remainder[1:])
                target = f"{target}.{rest}" if rest else target
                return self.resolve_symbol(target, _seen=_seen)
            return ("unknown", f"{dotted} not found in {module}")
        return ("external", dotted)

    def resolve_method(self, canonical_cls: str, method: str,
                       *, _seen: frozenset[str] = frozenset()
                       ) -> FnKey | None:
        """Find ``method`` on a class or its in-package bases."""
        if canonical_cls in _seen:
            return None
        _seen = _seen | {canonical_cls}
        cls = self._classes.get(canonical_cls)
        if cls is None:
            # Maybe a re-exported class name.
            resolved = self.resolve_symbol(canonical_cls)
            if resolved[0] == "class" and resolved[1] != canonical_cls:
                return self.resolve_method(resolved[1], method, _seen=_seen)
            return None
        module = canonical_cls[: -len(cls.name) - 1]
        key = (module, f"{cls.name}.{method}")
        if key in self._functions:
            return key
        for base in cls.bases:
            found = self.resolve_method(base, method, _seen=_seen)
            if found is not None:
                return found
        return None

    # -- the call graph --------------------------------------------------------

    def edges(self, key: FnKey) -> tuple[Edge, ...]:
        """Resolved outgoing call edges of one function (memoised)."""
        cached = self._edges.get(key)
        if cached is not None:
            return cached
        fn = self._functions.get(key)
        edges = tuple(self._resolve_site(site)
                      for site in fn.calls) if fn is not None else ()
        self._edges[key] = edges
        return edges

    def _resolve_site(self, site: CallSite) -> Edge:
        kind = site.spec[0]
        target: tuple[str, ...]
        if kind == "direct":
            resolved = self.resolve_symbol(site.spec[1])
            if resolved[0] == "fn":
                target = resolved
            elif resolved[0] == "class":
                init = self.resolve_method(resolved[1], "__init__")
                target = (("fn",) + init if init is not None
                          else ("external", f"{resolved[1]}()"))
            elif resolved[0] == "external":
                target = resolved
            else:
                target = ("unknown", resolved[1])
        elif kind == "self":
            found = self.resolve_method(site.spec[1], site.spec[2])
            target = (("fn",) + found if found is not None
                      else ("unknown",
                            f"no method {site.spec[2]} on {site.spec[1]}"))
        elif kind == "typed":
            resolved = self.resolve_symbol(site.spec[1])
            canonical = resolved[1] if resolved[0] == "class" \
                else site.spec[1]
            found = self.resolve_method(canonical, site.spec[2])
            if found is not None:
                target = ("fn",) + found
            elif resolved[0] == "external":
                target = ("external", f"{site.spec[1]}.{site.spec[2]}")
            else:
                target = ("unknown",
                          f"no method {site.spec[2]} on {site.spec[1]}")
        else:
            target = ("unknown", site.spec[1] if len(site.spec) > 1 else "?")
        return Edge(line=site.line, col=site.col, target=target,
                    offloaded=site.offloaded)


def short_fn(key: FnKey) -> str:
    """Human-readable ``module:qualname`` for diagnostics."""
    module = key[0]
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}.{key[1]}"


def is_package_path(path: str) -> bool:
    """Whether ``path`` is non-test repro package code (rule scope)."""
    path = path.replace("\\", "/")
    return ("repro/" in path and "repro/analysis/" not in path
            and not is_test_path(path))
