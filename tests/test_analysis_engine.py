"""Engine plumbing: rule selection, the catalogue, and a stateless run.

A run is one serial pass that keeps nothing between runs, so linting a
tree must leave that tree (and the working directory) exactly as it
found it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import UnknownRuleError, check_paths, main

CLEAN = (
    '"""Clean module."""\n'
    "\n"
    "def double(values):\n"
    "    return [v * 2 for v in values]\n"
)

VIOLATING = (
    '"""Module with a transitive async-blocking bug."""\n'
    "\n"
    "import time\n"
    "\n"
    "\n"
    "def _backoff():\n"
    "    time.sleep(0.1)\n"
    "\n"
    "\n"
    "async def handle():\n"
    "    _backoff()\n"
)


@pytest.fixture()
def tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "src" / "repro" / "serving"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "clean.py").write_text(CLEAN)
    (pkg / "hot.py").write_text(VIOLATING)
    return tmp_path


def run(tree: Path, **kwargs):
    diagnostics, _checked = check_paths([tree / "src"], **kwargs)
    return diagnostics


class TestRuleSelection:
    def test_unknown_rule_raises_with_suggestions(self, tree):
        with pytest.raises(UnknownRuleError) as info:
            run(tree, select=["RPL-A999"])
        assert "no such rule" in str(info.value)
        assert info.value.suggestions  # near-misses offered

    def test_cli_unknown_rule_exits_2(self, tree, capsys):
        code = main([str(tree / "src"), "--select", "RPL-ZZZ"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no such rule: RPL-ZZZ" in err
        assert "did you mean" in err

    def test_comma_separated_select(self, tree):
        diagnostics = run(tree, select=["RPL-A002,RPL-P001"])
        assert {d.rule for d in diagnostics} == {"RPL-A002"}


class TestStatelessRun:
    def test_run_writes_no_files(self, tree, monkeypatch, capsys):
        monkeypatch.chdir(tree)
        before = sorted(tree.rglob("*"))
        assert main(["src"]) == 1
        assert "RPL-A002" in capsys.readouterr().out
        assert sorted(tree.rglob("*")) == before


class TestListRules:
    def test_catalogue_is_the_five_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("RPL-")]
        assert listed == ["RPL-D001", "RPL-D004", "RPL-P001", "RPL-A001",
                          "RPL-A002"]
        assert "RPL-A002  async-transitive-blocking  [whole-program]" in out
