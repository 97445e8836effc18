"""Diagnostic records emitted by reprolint rules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: a rule violated at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The canonical ``file:line:col RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"
