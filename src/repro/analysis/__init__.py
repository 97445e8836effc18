"""reprolint: AST-based invariant checking for this repository.

The repository's headline guarantees — reproducible sweeps, a
process-parallel pipeline whose results equal the serial build, and a
serving loop that answers every request on time — rest on invariants
that ordinary linters do not know about:

* **determinism** (``RPL-D001``, ``RPL-D004``): no unseeded randomness,
  no generator seeded from entropy or held in module state;
* **pool-safety** (``RPL-P001``): only picklable top-level callables
  cross the ``ProcessPoolExecutor`` boundary;
* **async-safety** (``RPL-A001``, and ``RPL-A002`` over the call
  graph): no blocking call on the serving event loop.

Store keys and pool payloads are checked at run time instead, by
``tests/test_experiments_pipeline.py::TestTrainingKeys`` and
``tests/test_model_fastcv.py::TestDefaultModeParity``.

Run it with::

    PYTHONPATH=src python -m repro.analysis src scripts

Findings print as ``file:line:col RULE message`` and the process exits
non-zero when any survive suppression.  Suppress a documented false
positive with a trailing ``# reprolint: disable=RPL-X000`` comment (or
``# reprolint: disable-file=RPL-X000`` anywhere in the file to suppress
for the whole file).  See ``docs/reprolint.md`` for the rule catalogue.

The implementation is pure-stdlib (``ast`` + ``tokenize``); importing
this package pulls in no third-party dependency.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import (
    UnknownRuleError,
    check_paths,
    check_project_sources,
    check_source,
    main,
)
from repro.analysis.interproc import INTERPROC_RULES, ProjectRule
from repro.analysis.project import ModuleFacts, Project, extract_facts
from repro.analysis.rules import ALL_RULES, Rule, rule_by_id

__all__ = [
    "Diagnostic",
    "Rule",
    "ALL_RULES",
    "rule_by_id",
    "ProjectRule",
    "INTERPROC_RULES",
    "ModuleFacts",
    "Project",
    "extract_facts",
    "check_source",
    "check_paths",
    "check_project_sources",
    "UnknownRuleError",
    "main",
]
