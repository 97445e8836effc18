"""The whole-program rule: chain-bearing fixtures for RPL-A002.

The rule gets seeded-violation fixtures (asserting the rule id AND the
rendered call chain in the diagnostic), conforming twins, and the
conservative-degradation / suppression cases.  Fixtures go through
:func:`repro.analysis.check_project_sources`, the same facts → Project →
rule path the CLI uses.
"""

from __future__ import annotations

from repro.analysis import check_project_sources

SERVING = "src/repro/serving/app.py"
HELPERS = "src/repro/serving/util.py"


def findings(*modules, **kwargs):
    return check_project_sources(list(modules), **kwargs)


def ids(*modules, **kwargs):
    return [d.rule for d in findings(*modules, **kwargs)]


# ---------------------------------------------------------------------------
# RPL-A002: transitively reachable blocking calls
# ---------------------------------------------------------------------------


class TestAsyncTransitiveBlocking:
    def test_two_hop_chain_flagged_with_chain_in_message(self):
        result = findings((SERVING,
                           "import time\n"
                           "def _retry():\n"
                           "    _backoff()\n"
                           "def _backoff():\n"
                           "    time.sleep(0.1)\n"
                           "async def handle():\n"
                           "    _retry()\n"))
        assert [d.rule for d in result] == ["RPL-A002"]
        assert "serving.app.handle -> serving.app._retry -> " \
            "serving.app._backoff" in result[0].message
        assert "time.sleep" in result[0].message
        # Anchored at the call site inside the async def.
        assert result[0].line == 7

    def test_cross_module_chain_flagged(self):
        result = findings(
            (HELPERS,
             "import socket\n"
             "def fetch(host):\n"
             "    return socket.create_connection((host, 80))\n"),
            (SERVING,
             "from repro.serving.util import fetch\n"
             "async def handle(host):\n"
             "    return fetch(host)\n"))
        assert [d.rule for d in result] == ["RPL-A002"]
        assert "serving.app.handle -> serving.util.fetch" \
            in result[0].message

    def test_depth_zero_is_not_a002(self):
        # A direct blocking call inside the async def is RPL-A001's.
        assert ids((SERVING,
                    "import time\n"
                    "async def handle():\n"
                    "    time.sleep(1)\n")) == []

    def test_to_thread_offload_not_flagged(self):
        assert ids((SERVING,
                    "import asyncio\n"
                    "import time\n"
                    "def _blocking():\n"
                    "    time.sleep(1)\n"
                    "async def handle():\n"
                    "    await asyncio.to_thread(_blocking)\n")) == []

    def test_run_in_executor_offload_not_flagged(self):
        assert ids((SERVING,
                    "import time\n"
                    "def _blocking():\n"
                    "    time.sleep(1)\n"
                    "async def handle(loop):\n"
                    "    await loop.run_in_executor(None, _blocking)\n")) \
            == []

    def test_async_callee_is_not_traversed(self):
        # The async helper is its own A002 root; the caller edge into it
        # must not double-report.
        result = findings((SERVING,
                           "import time\n"
                           "def _backoff():\n"
                           "    time.sleep(1)\n"
                           "async def helper():\n"
                           "    _backoff()\n"
                           "async def handle():\n"
                           "    await helper()\n"))
        assert [(d.rule, d.line) for d in result] == [("RPL-A002", 5)]

    def test_unresolved_callee_degrades_silently(self):
        assert ids((SERVING,
                    "async def handle(worker):\n"
                    "    worker.spin()\n")) == []

    def test_suppression_at_call_site(self):
        assert ids((SERVING,
                    "import time\n"
                    "def _backoff():\n"
                    "    time.sleep(0.1)\n"
                    "async def handle():\n"
                    "    _backoff()  # reprolint: disable=RPL-A002\n")) == []

    def test_suppression_at_blocking_site(self):
        assert ids((SERVING,
                    "import time\n"
                    "def _backoff():\n"
                    "    time.sleep(0.1)  # reprolint: disable=RPL-A002\n"
                    "async def handle():\n"
                    "    _backoff()\n")) == []


# ---------------------------------------------------------------------------
# selection plumbing
# ---------------------------------------------------------------------------


class TestSelection:
    def test_select_filters_project_rules(self):
        modules = ((SERVING,
                    "import random\n"
                    "import time\n"
                    "def _jitter():\n"
                    "    time.sleep(0.01)\n"
                    "    return random.random()\n"
                    "async def serve(x):\n"
                    "    return x + _jitter()\n"),)
        assert ids(*modules) == ["RPL-A002"]
        assert ids(*modules, select=["RPL-A002"]) == ["RPL-A002"]
        assert ids(*modules, ignore=["RPL-A002"]) == []
