"""Parsed-module model shared by every reprolint rule.

A :class:`ModuleInfo` bundles what rules need to stay cheap and precise:
the AST, a child→parent map, an import table that resolves local names
back to the canonical dotted path (``np.random.randint`` →
``numpy.random.randint``), and the ``# reprolint: disable=...``
suppression comments collected from the token stream (so comments inside
strings are never misread as suppressions).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from functools import cached_property

__all__ = ["ModuleInfo", "Suppressions", "dotted_name", "is_test_path"]

_SUPPRESSION = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


def dotted_name(node: ast.AST) -> str | None:
    """Render an ``a.b.c`` attribute chain, or ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_test_path(path: str) -> bool:
    """Whether ``path`` is test code (exempt from most rules)."""
    parts = path.replace("\\", "/").split("/")
    name = parts[-1]
    return (
        "tests" in parts[:-1]
        or name.startswith("test_")
        or name.endswith("_test.py")
        or name == "conftest.py"
    )


@dataclass(frozen=True)
class Suppressions:
    """The ``# reprolint: disable`` comments of one file."""

    per_line: dict[int, frozenset[str]]
    whole_file: frozenset[str]

    def covers(self, rule_id: str, line: int) -> bool:
        rule_id = rule_id.upper()
        at_line = self.per_line.get(line, frozenset())
        return bool({rule_id, "ALL"} & (self.whole_file | at_line))


class ModuleInfo:
    """One parsed source file plus the lookups rules share."""

    def __init__(self, source: str, path: str) -> None:
        self.source = source
        self.path = path.replace("\\", "/")
        self.tree = ast.parse(source, filename=path)

    # -- structure -------------------------------------------------------------

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child node → parent node, for upward walks."""
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        return parents

    def enclosing(self, node: ast.AST, *kinds: type) -> ast.AST | None:
        """The nearest ancestor of ``node`` that is one of ``kinds``."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, kinds):
                return current
            current = self.parents.get(current)
        return None

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        return self.enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef)

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        found = self.enclosing(node, ast.ClassDef)
        return found if isinstance(found, ast.ClassDef) else None

    # -- imports ---------------------------------------------------------------

    @cached_property
    def _alias_table(self) -> dict[str, str]:
        """Simple name-binding aliases: ``sleep = time.sleep``.

        A bare assignment of a dotted chain to a single name re-binds a
        callable under a new name, which used to escape every
        import-table-based rule (``s = time.sleep; s(1)`` resolved to
        just ``"s"``).  The table maps the bound name to the dotted
        chain it stands for; :meth:`resolve` expands through it after
        the import table.  Heuristic by design: the *last* such
        assignment in the file wins, and parameters that shadow an
        aliased name are not tracked.
        """
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                dotted = dotted_name(node.value)
                if dotted is not None and dotted != node.targets[0].id:
                    aliases[node.targets[0].id] = dotted
        return aliases

    @cached_property
    def _import_table(self) -> dict[str, str]:
        """Local name → canonical dotted prefix it stands for."""
        table: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a``.
                        head = alias.name.split(".", 1)[0]
                        table[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    table[local] = f"{node.module}.{alias.name}"
        return table

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name a call/attribute refers to, if knowable.

        ``np.random.randint`` resolves to ``numpy.random.randint`` given
        ``import numpy as np``; names whose head is not an import are
        returned verbatim (a best-effort fallback that keeps fixture
        snippets without imports checkable).
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        return self.resolve_dotted(dotted)

    def resolve_dotted(self, dotted: str) -> str:
        """Expand ``dotted`` through the alias and import tables.

        Aliases may chain (``r = np.random`` → ``np.random`` → ...); the
        import table applies at most once at the end — re-applying it
        would inflate self-referential imports like ``from datetime
        import datetime`` without bound.
        """
        for _ in range(8):  # bounded: alias chains could cycle
            head, _, rest = dotted.partition(".")
            expansion = self._alias_table.get(head)
            if expansion is None or expansion.split(".", 1)[0] == head:
                break
            dotted = f"{expansion}.{rest}" if rest else expansion
        head, _, rest = dotted.partition(".")
        expansion = self._import_table.get(head)
        if expansion is not None:
            return f"{expansion}.{rest}" if rest else expansion
        return dotted

    # -- suppressions ----------------------------------------------------------

    @cached_property
    def suppressions(self) -> Suppressions:
        per_line: dict[int, set[str]] = {}
        whole_file: set[str] = set()
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESSION.search(token.string)
                if not match:
                    continue
                rules = {
                    rule.strip().upper()
                    for rule in match.group("rules").split(",")
                    if rule.strip()
                }
                if match.group(1) == "disable-file":
                    whole_file |= rules
                else:
                    per_line.setdefault(token.start[0], set()).update(rules)
        except tokenize.TokenError:
            pass  # partial token stream: honour what was parsed
        return Suppressions(
            {line: frozenset(rules) for line, rules in per_line.items()},
            frozenset(whole_file),
        )

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        return self.suppressions.covers(rule_id, line)

