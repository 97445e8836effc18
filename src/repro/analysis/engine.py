"""File walking, rule dispatch and the CLI.

The entry point is ``python -m repro.analysis <paths...>``.  A run is
one serial pass with no state kept between runs: every ``.py`` file is
parsed once, the per-file rules (:mod:`repro.analysis.rules`) run on its
AST and its call-graph facts are extracted; the facts of every file then
form one :class:`~repro.analysis.project.Project` for the whole-program
rule (:mod:`repro.analysis.interproc`).  ``--select``/``--ignore`` pick
rules by id, and findings print as ``file:line:col RULE message``.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.interproc import INTERPROC_RULES, run_project_rules
from repro.analysis.module import ModuleInfo
from repro.analysis.project import Project, extract_facts
from repro.analysis.rules import ALL_RULES

__all__ = ["check_source", "check_project_sources", "check_paths",
           "iter_python_files", "UnknownRuleError", "main"]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".repro_cache", ".venv",
                        "node_modules", ".mypy_cache", ".pytest_cache"})

#: Pseudo-rule for unparseable files; always reported unless ignored.
_SYNTAX_RULE = "RPL-E001"


class UnknownRuleError(ValueError):
    """A ``--select``/``--ignore`` id that names no rule."""

    def __init__(self, rule_id: str, suggestions: list[str]) -> None:
        hint = (f" (did you mean {', '.join(suggestions)}?)"
                if suggestions else "")
        super().__init__(f"no such rule: {rule_id}{hint}")
        self.rule_id = rule_id
        self.suggestions = suggestions


def _known_rule_ids() -> list[str]:
    return ([rule.id for rule in ALL_RULES]
            + [rule.id for rule in INTERPROC_RULES] + [_SYNTAX_RULE])


def _validate_rule_ids(ids: Iterable[str] | None) -> set[str] | None:
    if ids is None:
        return None
    known = _known_rule_ids()
    validated: set[str] = set()
    for raw in ids:
        for rule_id in raw.split(","):
            rule_id = rule_id.strip().upper()
            if not rule_id:
                continue
            if rule_id not in known:
                raise UnknownRuleError(
                    rule_id, difflib.get_close_matches(rule_id, known, n=3,
                                                       cutoff=0.4))
            validated.add(rule_id)
    return validated


def _selected_ids(select: Iterable[str] | None,
                  ignore: Iterable[str] | None) -> set[str]:
    """The rule ids a run reports; syntax errors unless ignored."""
    wanted = _validate_rule_ids(select)
    unwanted = _validate_rule_ids(ignore) or set()
    ids = (set(_known_rule_ids()) if wanted is None
           else wanted | {_SYNTAX_RULE})
    return ids - unwanted


def _parse(source: str, path: str) -> ModuleInfo | Diagnostic:
    """The parsed module, or an ``RPL-E001`` finding if it does not parse."""
    try:
        return ModuleInfo(source, path)
    except SyntaxError as error:
        return Diagnostic(path=path.replace("\\", "/"),
                          line=error.lineno or 1, col=error.offset or 1,
                          rule=_SYNTAX_RULE,
                          message=f"syntax error: {error.msg}")


def _check_module(module: ModuleInfo,
                  ids: set[str]) -> Iterator[Diagnostic]:
    """Unsuppressed findings of the selected per-file rules."""
    for rule in ALL_RULES:
        if rule.id not in ids or not rule.applies_to(module.path):
            continue
        for diagnostic in rule.check(module):
            if not module.is_suppressed(diagnostic.rule, diagnostic.line):
                yield diagnostic


def check_source(
    source: str,
    path: str,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Check one source string as though it lived at ``path``.

    ``path`` drives rule scoping (tests are exempt, ``RPL-A001`` only
    watches the ``repro`` package, ...), so fixtures can probe any scope
    by choosing a virtual path.  Per-file rules only — the whole-program
    rule needs a :class:`Project`; see :func:`check_project_sources`.
    """
    ids = _selected_ids(select, ignore)
    parsed = _parse(source, path)
    if isinstance(parsed, Diagnostic):
        return [parsed] if parsed.rule in ids else []
    return sorted(_check_module(parsed, ids))


def check_project_sources(modules: Sequence[tuple[str, str]],
                          *,
                          select: Iterable[str] | None = None,
                          ignore: Iterable[str] | None = None
                          ) -> list[Diagnostic]:
    """The whole-program rule over ``(path, source)`` fixtures."""
    ids = _selected_ids(select, ignore)
    parsed = [_parse(source, path) for path, source in modules]
    return run_project_rules(
        Project(extract_facts(module) for module in parsed
                if isinstance(module, ModuleInfo)), ids)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (deterministic order)."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for found in sorted(entry.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in found.parts):
                    yield found
        elif entry.suffix == ".py":
            yield entry
        else:
            raise FileNotFoundError(f"not a python file or directory: {entry}")


def check_paths(paths: Sequence[str | Path],
                *,
                select: Iterable[str] | None = None,
                ignore: Iterable[str] | None = None
                ) -> tuple[list[Diagnostic], int]:
    """Every rule over every file under ``paths``.

    Returns the sorted findings and the number of files checked.
    """
    ids = _selected_ids(select, ignore)
    files = list(iter_python_files(paths))
    diagnostics: list[Diagnostic] = []
    facts = []
    for path in files:
        parsed = _parse(path.read_text(encoding="utf-8"), path.as_posix())
        if isinstance(parsed, Diagnostic):
            if parsed.rule in ids:
                diagnostics.append(parsed)
            continue
        diagnostics.extend(_check_module(parsed, ids))
        facts.append(extract_facts(parsed))
    diagnostics.extend(run_project_rules(Project(facts), ids))
    return sorted(diagnostics), len(files)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"    {rule.summary}")
    for project_rule in INTERPROC_RULES:
        lines.append(f"{project_rule.id}  {project_rule.name}  "
                     "[whole-program]")
        lines.append(f"    {project_rule.summary}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: seeded randomness, picklable pool "
                    "callables and no blocking in async code, checked per "
                    "file and over the call graph",
        epilog="Suppress a documented false positive with "
               "'# reprolint: disable=RPL-X000' on the offending line, or "
               "'# reprolint: disable-file=RPL-X000' anywhere in the file.",
    )
    parser.add_argument("paths", nargs="*", default=["src", "scripts"],
                        help="files or directories to check "
                             "(default: src scripts)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE", help="only run these rule IDs")
    parser.add_argument("--ignore", action="append", default=None,
                        metavar="RULE", help="skip these rule IDs")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        diagnostics, checked = check_paths(args.paths, select=args.select,
                                           ignore=args.ignore)
    except (UnknownRuleError, FileNotFoundError) as error:
        print(f"reprolint: {error}", file=sys.stderr)
        return 2

    if diagnostics:
        print("\n".join(diagnostic.render() for diagnostic in diagnostics))
        print(f"reprolint: {len(diagnostics)} finding(s) in {checked} "
              "file(s)", file=sys.stderr)
        return 1
    print(f"reprolint: clean ({checked} file(s) checked)", file=sys.stderr)
    return 0
