"""The per-file reprolint rules.

Three families, one per invariant the rules guard:

* ``RPL-D`` **determinism** — unseeded randomness and generators seeded
  from entropy or held in module state;
* ``RPL-P`` **pool-safety** — unpicklable callables crossing the
  ``ProcessPoolExecutor`` boundary;
* ``RPL-A`` **async-safety** — synchronous blocking calls inside
  ``async def`` bodies, which stall the serving event loop for every
  connection at once (``RPL-A002`` in :mod:`repro.analysis.interproc`
  follows the same calls through sync helpers).

Every rule is a small AST pass over a :class:`~repro.analysis.module.
ModuleInfo`; rules are registered in :data:`ALL_RULES` and documented
for humans in ``docs/reprolint.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.module import ModuleInfo, is_test_path

__all__ = ["Rule", "ALL_RULES", "rule_by_id"]


class Rule:
    """Base class: one invariant, one ``RPL-...`` identifier."""

    id: str = ""
    name: str = ""
    summary: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether the rule runs on ``path`` (default: all non-test code)."""
        return not is_test_path(path)

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, module: ModuleInfo, node: ast.AST, message: str
                   ) -> Diagnostic:
        return Diagnostic(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


def _in_repro_package(path: str) -> bool:
    return "repro/" in path and "repro/analysis/" not in path


def _calls(module: ModuleInfo) -> Iterator[ast.Call]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            yield node


# ---------------------------------------------------------------------------
# RPL-D: determinism
# ---------------------------------------------------------------------------

#: stdlib ``random`` module-level functions that draw from the hidden
#: global generator (process- and import-order-dependent state).
_STDLIB_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed", "binomialvariate",
})

#: ``numpy.random`` constructors that are deterministic *when given a
#: seed argument*; called bare they seed from the OS entropy pool.
_NUMPY_SEEDABLE = frozenset({
    "default_rng", "SeedSequence", "RandomState", "Generator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


class UnseededRandomRule(Rule):
    id = "RPL-D001"
    name = "unseeded-random"
    summary = ("module-level / unseeded RNG calls are nondeterministic "
               "across processes and runs")

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for call in _calls(module):
            full = module.resolve(call.func)
            if full is None:
                continue
            seeded = bool(call.args or call.keywords)
            if full.startswith("numpy.random."):
                leaf = full.rsplit(".", 1)[1]
                if leaf in _NUMPY_SEEDABLE:
                    if not seeded:
                        yield self.diagnostic(
                            module, call,
                            f"{leaf}() without a seed draws OS entropy; "
                            "pass an explicit seed "
                            "(e.g. numpy.random.default_rng(seed))")
                else:
                    yield self.diagnostic(
                        module, call,
                        f"legacy global numpy.random.{leaf}() uses hidden "
                        "module state; use a seeded "
                        "numpy.random.default_rng(seed) instance")
            elif full == "random.Random":
                if not seeded:
                    yield self.diagnostic(
                        module, call,
                        "random.Random() without a seed is "
                        "nondeterministic; pass random.Random(seed)")
            elif full.startswith("random.") and full.count(".") == 1:
                leaf = full.rsplit(".", 1)[1]
                if leaf in _STDLIB_RANDOM_FUNCS:
                    yield self.diagnostic(
                        module, call,
                        f"random.{leaf}() uses the hidden global "
                        "generator; use a seeded random.Random(seed) "
                        "instance")


#: Call targets whose value is process/run-dependent: seeding a
#: generator from any of these launders OS entropy through an
#: "explicit" seed argument, which RPL-D001 cannot see.
_ENTROPY_SEEDS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "os.getpid", "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
})


class NondeterministicSeedRule(Rule):
    id = "RPL-D004"
    name = "nondeterministic-generator-seed"
    summary = ("generators seeded from entropy (or None), and module-level "
               "generator state, escape the seed-plumbing discipline")

    def applies_to(self, path: str) -> bool:
        # repro/util.py defines seeded_rng, the blessed seed-plumbing
        # helper all generator construction should route through.
        return (not is_test_path(path)
                and not path.endswith("repro/util.py"))

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for call in _calls(module):
            full = module.resolve(call.func)
            if full is None:
                continue
            if full in ("random.SystemRandom", "secrets.SystemRandom"):
                yield self.diagnostic(
                    module, call,
                    "SystemRandom draws OS entropy by construction and can "
                    "never replay; use repro.util.seeded_rng(...) instead")
                continue
            leaf = full.rsplit(".", 1)[-1]
            if not ((full.startswith("numpy.random.")
                     and leaf in _NUMPY_SEEDABLE)
                    or full == "random.Random"):
                continue
            seeds = [kw.value for kw in call.keywords if kw.arg == "seed"]
            if call.args:
                seeds.append(call.args[0])
            if not seeds:
                continue  # bare construction is RPL-D001's finding
            flagged = False
            for seed in seeds:
                if isinstance(seed, ast.Constant) and seed.value is None:
                    yield self.diagnostic(
                        module, call,
                        f"{leaf}(None) explicitly requests an OS-entropy "
                        "seed; derive the seed from inputs "
                        "(repro.util.seeded_rng hashes seed parts)")
                    flagged = True
                    break
                source = self._entropy_source(seed, module)
                if source is not None:
                    yield self.diagnostic(
                        module, call,
                        f"{leaf}() seeded from {source} differs every "
                        "process/run; derive the seed from inputs "
                        "(repro.util.seeded_rng hashes seed parts)")
                    flagged = True
                    break
            if flagged:
                continue
            if module.enclosing_function(call) is None:
                yield self.diagnostic(
                    module, call,
                    f"module-level {leaf}(...) is shared mutable state — "
                    "draw order then depends on import and call order "
                    "across the program and diverges between worker "
                    "processes; construct the generator inside the "
                    "consuming function (repro.util.seeded_rng)")

    @staticmethod
    def _entropy_source(seed: ast.AST, module: ModuleInfo) -> str | None:
        """The entropy-reading call inside ``seed``, if any."""
        for node in ast.walk(seed):
            if not isinstance(node, ast.Call):
                continue
            full = module.resolve(node.func)
            if full in _ENTROPY_SEEDS:
                return f"{full}()"
            if isinstance(node.func, ast.Name) and node.func.id == "id":
                return "id() (an address, not a value)"
        return None


# ---------------------------------------------------------------------------
# RPL-P: pool-safety
# ---------------------------------------------------------------------------


class PoolCallableRule(Rule):
    id = "RPL-P001"
    name = "unpicklable-pool-callable"
    summary = ("lambdas, closures and bound methods handed to a process "
               "pool fail (or silently capture state) at pickle time")

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        if "ProcessPoolExecutor" not in module.source:
            return
        for call in _calls(module):
            if not (isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("submit", "map")
                    and call.args):
                continue
            yield from self._check_target(module, call, call.args[0])

    def _check_target(self, module: ModuleInfo, call: ast.Call,
                      target: ast.AST) -> Iterator[Diagnostic]:
        if isinstance(target, ast.Lambda):
            yield self.diagnostic(
                module, target,
                "lambda passed to a process pool cannot be pickled; hoist "
                "it to a module-level function")
            return
        if (isinstance(target, ast.Call)
                and module.resolve(target.func) in ("functools.partial",
                                                    "partial")
                and target.args):
            # partial(top_level_fn, ...) pickles fine; recurse on its head.
            yield from self._check_target(module, call, target.args[0])
            return
        if isinstance(target, ast.Name):
            enclosing = module.enclosing_function(call)
            if enclosing is not None and self._is_local_def(enclosing,
                                                            target.id):
                yield self.diagnostic(
                    module, target,
                    f"function {target.id!r} is defined inside another "
                    "function (a closure); process-pool callables must be "
                    "module top-level")
            return
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")):
            klass = module.enclosing_class(call)
            if klass is not None and any(
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == target.attr
                    for item in klass.body):
                yield self.diagnostic(
                    module, target,
                    f"bound method {target.value.id}.{target.attr} passed "
                    "to a process pool pickles the whole instance; pass a "
                    "module-level function instead")

    @staticmethod
    def _is_local_def(enclosing: ast.AST, name: str) -> bool:
        for node in ast.walk(enclosing):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node is not enclosing and node.name == name):
                return True
        return False


# ---------------------------------------------------------------------------
# RPL-A: async-safety
# ---------------------------------------------------------------------------

#: Synchronous call → what to use instead inside a coroutine.  Resolved
#: through the module's import table, so aliases are caught too.
_ASYNC_BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "await asyncio.sleep(...)",
    "open": "a synchronous helper called before/after the await points",
    "io.open": "a synchronous helper called before/after the await points",
    "socket.socket": "asyncio streams (asyncio.open_connection/start_server)",
    "socket.create_connection": "asyncio.open_connection",
    "socket.getaddrinfo": "loop.getaddrinfo",
    "socket.gethostbyname": "loop.getaddrinfo",
    "subprocess.run": "asyncio.create_subprocess_exec",
    "subprocess.call": "asyncio.create_subprocess_exec",
    "subprocess.check_call": "asyncio.create_subprocess_exec",
    "subprocess.check_output": "asyncio.create_subprocess_exec",
}


class AsyncBlockingCallRule(Rule):
    id = "RPL-A001"
    name = "blocking-call-in-async"
    summary = ("synchronous blocking calls inside async def stall the "
               "event loop for every connection at once")

    def applies_to(self, path: str) -> bool:
        # The serving layer lives in the package; scripts and tests may
        # drive coroutines however they like.
        return _in_repro_package(path) and not is_test_path(path)

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for call in _calls(module):
            full = module.resolve(call.func)
            replacement = _ASYNC_BLOCKING_CALLS.get(full or "")
            if replacement is None:
                continue
            # Only the *nearest* enclosing function matters: a sync
            # helper nested inside a coroutine runs when called, not
            # where it is defined.
            enclosing = module.enclosing_function(call)
            if not isinstance(enclosing, ast.AsyncFunctionDef):
                continue
            yield self.diagnostic(
                module, call,
                f"{full}() blocks the event loop inside "
                f"async def {enclosing.name}; use {replacement}")


ALL_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    NondeterministicSeedRule(),
    PoolCallableRule(),
    AsyncBlockingCallRule(),
)


def rule_by_id(rule_id: str) -> Rule:
    for rule in ALL_RULES:
        if rule.id == rule_id.upper():
            return rule
    raise KeyError(f"unknown rule {rule_id!r}")
