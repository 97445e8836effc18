"""reprolint rule engine: per-rule fixtures, suppressions, CLI, clean tree.

Each rule family gets positive (violating), negative (conforming) and
suppressed fixture snippets, checked through the same
:func:`repro.analysis.check_source` path the CLI uses.  The acceptance
tests at the bottom assert the real ``src`` + ``scripts`` trees are
clean and that deliberately introducing one violation per family makes
the checker exit non-zero with the correct rule ID.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import check_paths, check_source, main, rule_by_id
from repro.analysis.rules import ALL_RULES

REPO = Path(__file__).resolve().parent.parent

#: Default virtual path for fixtures: library code inside the package.
SRC = "src/repro/experiments/example.py"


def ids(source: str, path: str = SRC, **kwargs) -> list[str]:
    return [d.rule for d in check_source(source, path, **kwargs)]


def lines(source: str, path: str = SRC) -> list[tuple[str, int]]:
    return [(d.rule, d.line) for d in check_source(source, path)]


# ---------------------------------------------------------------------------
# RPL-D001: unseeded randomness
# ---------------------------------------------------------------------------


class TestUnseededRandom:
    def test_stdlib_module_function_flagged(self):
        assert ids("import random\nx = random.randint(0, 5)\n") == ["RPL-D001"]

    def test_stdlib_from_import_flagged(self):
        assert ids("from random import shuffle\nshuffle(items)\n") == ["RPL-D001"]

    def test_unseeded_random_instance_flagged(self):
        assert ids("import random\nrng = random.Random()\n") == ["RPL-D001"]

    def test_seeded_random_instance_ok(self):
        assert ids(
            "import random\ndef f():\n    return random.Random(42)\n"
        ) == []

    def test_numpy_legacy_global_flagged(self):
        assert ids("import numpy as np\nx = np.random.rand(4)\n") == ["RPL-D001"]

    def test_numpy_global_seed_flagged(self):
        assert ids("import numpy as np\nnp.random.seed(3)\n") == ["RPL-D001"]

    def test_unseeded_default_rng_flagged(self):
        assert ids(
            "import numpy as np\nrng = np.random.default_rng()\n"
        ) == ["RPL-D001"]

    def test_seeded_default_rng_ok(self):
        # Inside a function: module-level construction is RPL-D004's.
        assert ids(
            "import numpy as np\n"
            "def f():\n    return np.random.default_rng(7)\n"
        ) == []

    def test_generator_method_calls_ok(self):
        source = (
            "import numpy as np\n"
            "def f():\n"
            "    rng = np.random.default_rng(1)\n"
            "    return rng.random() + rng.integers(10)\n"
        )
        assert ids(source) == []

    def test_tests_are_exempt(self):
        assert ids("import random\nrandom.random()\n",
                   path="tests/test_x.py") == []

    def test_global_random_in_helper_flagged(self):
        # The helper is private and only reached through a public
        # function: the draw is flagged where it happens, whoever calls it.
        source = ("import random\n"
                  "def _jitter():\n"
                  "    return random.random()\n"
                  "def serve(x):\n"
                  "    return x + _jitter()\n")
        assert lines(source, path="src/repro/serving/app.py") \
            == [("RPL-D001", 3)]


# ---------------------------------------------------------------------------
# RPL-D004: nondeterministic generator seeds
# ---------------------------------------------------------------------------


class TestNondeterministicSeed:
    def test_none_seed_flagged(self):
        assert ids(
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng(None)\n"
        ) == ["RPL-D004"]

    def test_none_seed_keyword_flagged(self):
        assert ids(
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng(seed=None)\n"
        ) == ["RPL-D004"]

    def test_getpid_seed_flagged(self):
        assert ids(
            "import os\n"
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng(os.getpid())\n"
        ) == ["RPL-D004"]

    def test_entropy_inside_expression_flagged(self):
        # The entropy read hides inside arithmetic: still a launder.
        assert ids(
            "import os\n"
            "import numpy as np\n"
            "def f(base):\n"
            "    return np.random.default_rng(base + os.getpid() * 7)\n"
        ) == ["RPL-D004"]

    def test_wall_clock_seed_flagged_in_script(self):
        # Scripts escape RPL-D002 (they may time themselves), so the
        # seed-laundering check must catch time.time there on its own.
        assert ids(
            "import time\n"
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng(int(time.time()))\n",
            path="scripts/example.py",
        ) == ["RPL-D004"]

    def test_id_seed_flagged(self):
        assert ids(
            "import numpy as np\n"
            "def f(obj):\n"
            "    return np.random.default_rng(id(obj))\n"
        ) == ["RPL-D004"]

    def test_stdlib_random_none_seed_flagged(self):
        assert ids(
            "import random\n"
            "def f():\n"
            "    return random.Random(None)\n"
        ) == ["RPL-D004"]

    def test_system_random_flagged(self):
        assert ids(
            "import random\n"
            "def f():\n"
            "    return random.SystemRandom()\n"
        ) == ["RPL-D004"]

    def test_module_level_generator_flagged(self):
        # Seeded, so RPL-D001 is silent — but module-level generator
        # state still diverges across import orders and worker pools.
        assert ids(
            "import numpy as np\n"
            "RNG = np.random.default_rng(42)\n"
        ) == ["RPL-D004"]

    def test_seeded_rng_in_function_ok(self):
        assert ids(
            "from repro.util import seeded_rng\n"
            "import numpy as np\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed)\n"
        ) == []

    def test_bare_construction_is_d001_not_d004(self):
        assert ids(
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        ) == ["RPL-D001"]

    def test_blessed_helper_module_exempt(self):
        # repro/util.py hosts seeded_rng itself; the module-level /
        # seed-shape checks must not recurse into it.
        assert ids(
            "import numpy as np\n"
            "def seeded_rng(*parts):\n"
            "    return np.random.default_rng(stable_hash(*parts))\n",
            path="src/repro/util.py",
        ) == []

    def test_tests_exempt(self):
        assert ids(
            "import numpy as np\n"
            "RNG = np.random.default_rng(None)\n",
            path="tests/test_example.py",
        ) == []

    def test_suppression_comment(self):
        assert ids(
            "import numpy as np\n"
            "RNG = np.random.default_rng(7)"
            "  # reprolint: disable=RPL-D004\n"
        ) == []


# ---------------------------------------------------------------------------
# RPL-P001: pool safety
# ---------------------------------------------------------------------------

POOL_PREAMBLE = "from concurrent.futures import ProcessPoolExecutor\n"


class TestPoolCallable:
    def test_lambda_submit_flagged(self):
        source = POOL_PREAMBLE + (
            "with ProcessPoolExecutor() as pool:\n"
            "    fut = pool.submit(lambda: 1)\n"
        )
        assert ids(source) == ["RPL-P001"]

    def test_lambda_map_flagged(self):
        source = POOL_PREAMBLE + (
            "with ProcessPoolExecutor() as pool:\n"
            "    results = pool.map(lambda x: x + 1, items)\n"
        )
        assert ids(source) == ["RPL-P001"]

    def test_closure_flagged(self):
        source = POOL_PREAMBLE + (
            "def run(items):\n"
            "    def task(x):\n"
            "        return x + 1\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(task, items))\n"
        )
        assert ids(source) == ["RPL-P001"]

    def test_lambda_inside_partial_flagged(self):
        source = POOL_PREAMBLE + (
            "from functools import partial\n"
            "with ProcessPoolExecutor() as pool:\n"
            "    fut = pool.submit(partial(lambda x: x, 1))\n"
        )
        assert ids(source) == ["RPL-P001"]

    def test_bound_method_flagged(self):
        source = POOL_PREAMBLE + (
            "class Runner:\n"
            "    def task(self, x):\n"
            "        return x\n"
            "    def run(self, pool, items):\n"
            "        return pool.map(self.task, items)\n"
        )
        assert ids(source) == ["RPL-P001"]

    def test_module_level_function_ok(self):
        source = POOL_PREAMBLE + (
            "def task(x):\n"
            "    return x + 1\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(task, items))\n"
        )
        assert ids(source) == []

    def test_partial_of_module_function_ok(self):
        source = POOL_PREAMBLE + (
            "from functools import partial\n"
            "def task(scale, x):\n"
            "    return x\n"
            "def run(pool, items):\n"
            "    return pool.map(partial(task, 3), items)\n"
        )
        assert ids(source) == []

    def test_stored_callable_attribute_ok(self):
        # ``self.worker_task`` holding an injected top-level function (the
        # PhaseRunner pattern) must not be mistaken for a bound method.
        source = POOL_PREAMBLE + (
            "class Runner:\n"
            "    def __init__(self, worker_task):\n"
            "        self.worker_task = worker_task\n"
            "    def run(self, pool, key):\n"
            "        return pool.submit(self.worker_task, key)\n"
        )
        assert ids(source) == []

    def test_builtin_map_with_lambda_ok(self):
        # Plain ``map`` over an iterable is not a pool boundary.
        assert ids("out = list(map(str, items))\n") == []


# ---------------------------------------------------------------------------
# RPL-A001: blocking calls in async bodies
# ---------------------------------------------------------------------------


class TestAsyncBlockingCall:
    def test_time_sleep_in_coroutine_flagged(self):
        assert ids(
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1.0)\n"
        ) == ["RPL-A001"]

    def test_aliased_import_flagged(self):
        assert ids(
            "from time import sleep\n"
            "async def handler():\n"
            "    sleep(0.1)\n"
        ) == ["RPL-A001"]

    def test_open_in_coroutine_flagged(self):
        assert ids(
            "async def handler(path):\n"
            "    with open(path) as f:\n"
            "        return f.read()\n"
        ) == ["RPL-A001"]

    def test_socket_ops_in_coroutine_flagged(self):
        assert ids(
            "import socket\n"
            "async def handler(host):\n"
            "    return socket.create_connection((host, 80))\n"
        ) == ["RPL-A001"]

    def test_subprocess_in_coroutine_flagged(self):
        assert ids(
            "import subprocess\n"
            "async def handler():\n"
            "    subprocess.run(['true'])\n"
        ) == ["RPL-A001"]

    def test_name_binding_alias_flagged(self):
        # ``snooze = time.sleep`` re-binds the callable; the alias table
        # must resolve the call back to ``time.sleep``.
        assert ids(
            "import time\n"
            "snooze = time.sleep\n"
            "async def handler():\n"
            "    snooze(0.1)\n"
        ) == ["RPL-A001"]

    def test_chained_alias_of_from_import_flagged(self):
        assert ids(
            "from time import sleep\n"
            "zzz = sleep\n"
            "async def handler():\n"
            "    zzz(0.1)\n"
        ) == ["RPL-A001"]

    def test_asyncio_sleep_ok(self):
        assert ids(
            "import asyncio\n"
            "async def handler():\n"
            "    await asyncio.sleep(1.0)\n"
        ) == []

    def test_to_thread_reference_ok(self):
        # ``asyncio.to_thread(time.sleep, ...)`` passes the callable as a
        # *reference*; it runs on a worker thread, not the event loop.
        assert ids(
            "import asyncio\n"
            "import time\n"
            "async def handler():\n"
            "    await asyncio.to_thread(time.sleep, 1.0)\n"
        ) == []

    def test_run_in_executor_reference_ok(self):
        assert ids(
            "import asyncio\n"
            "import time\n"
            "async def handler():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, time.sleep, 1.0)\n"
        ) == []

    def test_sync_function_ok(self):
        assert ids(
            "import time\n"
            "def backoff():\n"
            "    time.sleep(1.0)\n"
        ) == []

    def test_sync_helper_nested_in_coroutine_ok(self):
        # The nearest enclosing function decides: a sync helper defined
        # inside a coroutine blocks at *call* time, not definition time.
        assert ids(
            "import time\n"
            "async def handler():\n"
            "    def helper():\n"
            "        time.sleep(1.0)\n"
            "    return helper\n"
        ) == []

    def test_lambda_inside_coroutine_flagged(self):
        # Lambdas are not function scopes for this purpose: the nearest
        # def/async-def still governs.
        assert ids(
            "import time\n"
            "async def handler(run):\n"
            "    return run(lambda: time.sleep(1.0))\n"
        ) == ["RPL-A001"]

    def test_scripts_not_in_scope(self):
        source = "import time\nasync def main():\n    time.sleep(1.0)\n"
        assert ids(source, path="scripts/example.py") == []

    def test_tests_not_in_scope(self):
        source = "import time\nasync def main():\n    time.sleep(1.0)\n"
        assert ids(source, path="tests/test_example.py") == []

    def test_suppressible(self):
        assert ids(
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1.0)  # reprolint: disable=RPL-A001\n"
        ) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_line_suppression(self):
        source = "import random\nx = random.random()  # reprolint: disable=RPL-D001\n"
        assert ids(source) == []

    def test_line_suppression_wrong_rule_keeps_finding(self):
        source = "import random\nx = random.random()  # reprolint: disable=RPL-D002\n"
        assert ids(source) == ["RPL-D001"]

    def test_file_suppression(self):
        source = (
            "# reprolint: disable-file=RPL-D001\n"
            "import random\n"
            "x = random.random()\n"
            "y = random.randint(0, 3)\n"
        )
        assert ids(source) == []

    def test_multiple_rules_one_comment(self):
        source = (
            "import random\n"
            "n = int(x / y) == 0.5 or random.random()"
            "  # reprolint: disable=RPL-D001, RPL-N001, RPL-N002\n"
        )
        assert ids(source) == []

    def test_suppression_comment_inside_string_ignored(self):
        source = (
            "note = '# reprolint: disable-file=RPL-D001'\n"
            "import random\n"
            "x = random.random()\n"
        )
        assert ids(source) == ["RPL-D001"]


# ---------------------------------------------------------------------------
# Engine plumbing
# ---------------------------------------------------------------------------


class TestEngine:
    def test_syntax_error_becomes_diagnostic(self):
        assert ids("def broken(:\n") == ["RPL-E001"]

    def test_diagnostic_format(self):
        (diag,) = check_source("import random\nx = random.random()\n", SRC)
        assert diag.render() == (
            f"{SRC}:2:5 RPL-D001 random.random() uses the hidden global "
            "generator; use a seeded random.Random(seed) instance"
        )

    def test_select_and_ignore(self):
        source = ("import random\nimport numpy as np\n"
                  "RNG = np.random.default_rng(7)\nx = random.random()\n")
        assert ids(source, select=["RPL-D004"]) == ["RPL-D004"]
        assert ids(source, ignore=["RPL-D004"]) == ["RPL-D001"]

    def test_rule_ids_unique_and_wellformed(self):
        seen = [rule.id for rule in ALL_RULES]
        assert len(seen) == len(set(seen))
        assert all(rule.id.startswith("RPL-") for rule in ALL_RULES)
        assert rule_by_id("rpl-d001").name == "unseeded-random"

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "RPL-D001" in out
        assert main([str(tmp_path / "missing.py")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out


# ---------------------------------------------------------------------------
# Acceptance: the real tree is clean; seeded violations are caught
# ---------------------------------------------------------------------------


class TestRealTree:
    def test_src_and_scripts_are_clean(self):
        diagnostics, checked = check_paths([REPO / "src", REPO / "scripts"])
        rendered = "\n".join(d.render() for d in diagnostics)
        assert not diagnostics, f"reprolint findings:\n{rendered}"
        assert checked > 60  # the walk really covered the tree

    def test_cli_process_exits_zero_on_real_tree(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "scripts"],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    #: One deliberate violation per rule family (the acceptance matrix).
    SEEDED_VIOLATIONS = {
        "RPL-D001": "import numpy as np\nrng = np.random.default_rng()\n",
        "RPL-P001": POOL_PREAMBLE
        + "with ProcessPoolExecutor() as pool:\n"
          "    fut = pool.submit(lambda: 1)\n",
    }

    @pytest.mark.parametrize("rule_id", sorted(SEEDED_VIOLATIONS))
    def test_seeded_violation_fails_with_correct_rule(self, rule_id,
                                                      tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "seeded.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(self.SEEDED_VIOLATIONS[rule_id])
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert rule_id in out
