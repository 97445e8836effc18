"""Whole-program model: facts extraction, symbol resolution, call graph.

The fixture mini-package exercises the shapes that historically break
naive resolvers — import cycles, ``__init__`` re-exports, decorated
functions, method dispatch through inferred receiver types — and the
conservative-degradation contract: anything unresolvable becomes an
``unknown``/``external`` edge, never a crash and never a guess.
"""

from __future__ import annotations

import pytest

from repro.analysis.module import ModuleInfo
from repro.analysis.project import Project, extract_facts, module_name_for

# ---------------------------------------------------------------------------
# fixture mini-package: cycle alpha <-> beta, re-exports, decorators,
# method dispatch, unknown externals
# ---------------------------------------------------------------------------

MINI = {
    "src/repro/mini/__init__.py": (
        "from repro.mini.alpha import ping\n"
        "from repro.mini.beta import Base, Impl\n"
    ),
    "src/repro/mini/alpha.py": (
        "import functools\n"
        "from repro.mini import beta\n"
        "\n"
        "def ping(n):\n"
        "    if n <= 0:\n"
        "        return 0\n"
        "    return beta.pong(n - 1)\n"
        "\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def cached_ping(n):\n"
        "    return ping(n)\n"
    ),
    "src/repro/mini/beta.py": (
        "def pong(n):\n"
        "    from repro.mini.alpha import ping\n"
        "    return ping(n)\n"
        "\n"
        "class Base:\n"
        "    def greet(self):\n"
        "        return self.name()\n"
        "\n"
        "    def name(self):\n"
        "        return 'base'\n"
        "\n"
        "class Impl(Base):\n"
        "    def name(self):\n"
        "        return 'impl'\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return Impl()\n"
    ),
    "src/repro/mini/gamma.py": (
        "import external_lib\n"
        "from repro.mini import ping, Impl\n"
        "\n"
        "def drive():\n"
        "    obj = Impl.make()\n"
        "    obj.greet()\n"
        "    ping(3)\n"
        "    external_lib.thing()\n"
        "    mystery = make_it()\n"
        "    mystery.run()\n"
    ),
}


@pytest.fixture(scope="module")
def project() -> Project:
    return Project(extract_facts(ModuleInfo(source, path))
                   for path, source in MINI.items())


def edge_targets(project, key):
    return [edge.target for edge in project.edges(key)]


class TestModuleNames:
    def test_src_stripped(self):
        assert module_name_for("src/repro/serving/server.py") \
            == "repro.serving.server"

    def test_init_is_package(self):
        assert module_name_for("src/repro/mini/__init__.py") == "repro.mini"

    def test_absolute_path_anchors_at_src(self):
        assert module_name_for("/home/u/repo/src/repro/util.py") \
            == "repro.util"

    def test_scripts_root(self):
        assert module_name_for("scripts/bench_lint.py") \
            == "scripts.bench_lint"


class TestResolution:
    def test_plain_function(self, project):
        assert project.resolve_symbol("repro.mini.alpha.ping") \
            == ("fn", "repro.mini.alpha", "ping")

    def test_reexport_through_init(self, project):
        assert project.resolve_symbol("repro.mini.ping") \
            == ("fn", "repro.mini.alpha", "ping")

    def test_method_on_class(self, project):
        assert project.resolve_symbol("repro.mini.beta.Impl.make") \
            == ("fn", "repro.mini.beta", "Impl.make")

    def test_inherited_method_resolves_to_base(self, project):
        assert project.resolve_method("repro.mini.beta.Impl", "greet") \
            == ("repro.mini.beta", "Base.greet")

    def test_override_resolves_to_subclass(self, project):
        assert project.resolve_method("repro.mini.beta.Impl", "name") \
            == ("repro.mini.beta", "Impl.name")

    def test_unknown_symbol_degrades(self, project):
        kind = project.resolve_symbol("repro.mini.alpha.nothing")[0]
        assert kind == "unknown"

    def test_external_module_degrades(self, project):
        assert project.resolve_symbol("external_lib.thing")[0] == "external"


class TestCallGraph:
    def test_cycle_edges_resolve_both_ways(self, project):
        assert ("fn", "repro.mini.beta", "pong") in edge_targets(
            project, ("repro.mini.alpha", "ping"))
        assert ("fn", "repro.mini.alpha", "ping") in edge_targets(
            project, ("repro.mini.beta", "pong"))

    def test_decorated_function_is_a_node_and_resolves(self, project):
        assert project.function(("repro.mini.alpha", "cached_ping")) \
            is not None
        assert ("fn", "repro.mini.alpha", "ping") in edge_targets(
            project, ("repro.mini.alpha", "cached_ping"))

    def test_typed_method_dispatch_from_classmethod(self, project):
        # obj = Impl.make(); obj.greet() resolves through the inferred
        # Impl receiver to the inherited Base.greet.
        targets = edge_targets(project, ("repro.mini.gamma", "drive"))
        assert ("fn", "repro.mini.beta", "Base.greet") in targets

    def test_reexported_call_resolves(self, project):
        assert ("fn", "repro.mini.alpha", "ping") in edge_targets(
            project, ("repro.mini.gamma", "drive"))

    def test_external_call_marked_external(self, project):
        targets = edge_targets(project, ("repro.mini.gamma", "drive"))
        assert ("external", "external_lib.thing") in targets

    def test_unresolvable_receiver_marked_unknown_without_crash(
            self, project):
        kinds = {target[0] for target in
                 edge_targets(project, ("repro.mini.gamma", "drive"))}
        assert "unknown" in kinds

    def test_self_dispatch(self, project):
        assert ("fn", "repro.mini.beta", "Base.name") in edge_targets(
            project, ("repro.mini.beta", "Base.greet"))


class TestOffloadEdges:
    def test_to_thread_reference_is_offloaded_edge(self):
        project = Project([extract_facts(ModuleInfo(
            "import asyncio\n"
            "import time\n"
            "def helper():\n"
            "    time.sleep(1)\n"
            "async def go():\n"
            "    await asyncio.to_thread(helper)\n",
            "src/repro/mini/off.py"))])
        edges = project.edges(("repro.mini.off", "go"))
        offloaded = [edge for edge in edges if edge.offloaded]
        assert [edge.target for edge in offloaded] \
            == [("fn", "repro.mini.off", "helper")]

    def test_run_in_executor_reference_is_offloaded_edge(self):
        project = Project([extract_facts(ModuleInfo(
            "def helper():\n"
            "    pass\n"
            "async def go(loop):\n"
            "    await loop.run_in_executor(None, helper)\n",
            "src/repro/mini/off2.py"))])
        edges = project.edges(("repro.mini.off2", "go"))
        assert any(edge.offloaded
                   and edge.target == ("fn", "repro.mini.off2", "helper")
                   for edge in edges)

    def test_partial_call_reaches_inner_target(self):
        project = Project([extract_facts(ModuleInfo(
            "from functools import partial\n"
            "def worker(a, b):\n"
            "    pass\n"
            "def build():\n"
            "    return partial(worker, 1)\n",
            "src/repro/mini/part.py"))])
        assert ("fn", "repro.mini.part", "worker") in [
            edge.target
            for edge in project.edges(("repro.mini.part", "build"))]
