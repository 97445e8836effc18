"""Call timers the benchmark installs around the program's public functions.

A :class:`LayerTracer` wraps functions and methods from the outside: the
program itself is not edited, and nothing is recorded unless the traced
run installs the wrappers.  Every wrapper belongs to a *layer* (a module
name such as ``counters`` or ``fastcv``).  Synchronous wrappers share one
call stack, so a layer's *self time* is its wrapper's duration minus the
durations of the wrappers nested directly inside it; ``policy.decide``,
for example, does not include the ``collect_counters`` call its lazy
features trigger.  Coroutine wrappers are timed on their own and stay off
the stack, because other tasks run while they are suspended.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

__all__ = ["LayerTracer"]

#: ``on_call(args, kwargs, result, seconds)`` hook type for per-call counts.
Hook = Callable[[tuple, dict, Any, float], None]


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class LayerTracer:
    """Per-layer busy and self time, and call and work counts.

    Args:
        clock: monotonic time source (tests pass a fake one).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.outer_time = 0.0  # wall covered by outermost wrappers
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any], *, layer: str,
             on_call: Hook | None = None,
             timed: bool = True) -> Callable[..., Any]:
        """A timed stand-in for ``fn`` recorded as ``name`` in ``layer``.

        ``timed=False`` only counts calls: for hot paths, such as memo
        lookups, where reading the clock would cost more than the call.
        """
        if not timed:
            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                if self.enabled:
                    self.calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def timed_async(*args: Any, **kwargs: Any) -> Any:
                if not self.enabled:
                    return await fn(*args, **kwargs)
                start = self.clock()
                result = await fn(*args, **kwargs)
                seconds = self.clock() - start
                self._record(name, layer, seconds, seconds)
                if on_call is not None:
                    on_call(args, kwargs, result, seconds)
                return result

            return timed_async

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = _Frame()
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child += seconds
                else:
                    self.outer_time += seconds
                self._record(name, layer, seconds, seconds - frame.child)
            if on_call is not None:
                on_call(args, kwargs, result, seconds)
            return result

        return timed

    def _record(self, name: str, layer: str, seconds: float,
                self_seconds: float) -> None:
        self.calls[name] += 1
        self.total[name] += seconds
        self.self_time[name] += self_seconds
        self.self_time[f"layer:{layer}"] += self_seconds

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (work done, outcomes)."""
        if self.enabled:
            self.counts[name] += amount

    def layer_self(self, layer: str) -> float:
        return self.self_time.get(f"layer:{layer}", 0.0)

    # -- installing ----------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, *, layer: str,
                     on_call: Hook | None = None, timed: bool = True) -> None:
        """Replace ``cls.attr`` (as defined on ``cls`` itself).

        A wrapped classmethod receives the class as its first argument.
        """
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped: object = classmethod(self.wrap(
                name, original.__func__, layer=layer, on_call=on_call,
                timed=timed))
        else:
            wrapped = self.wrap(name, original, layer=layer, on_call=on_call,
                                timed=timed)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, original))

    def patch_function(self, module: object, attr: str, name: str, *,
                       layer: str, on_call: Hook | None = None) -> None:
        """Replace a module-level function everywhere it is bound.

        Modules that did ``from x import f`` hold their own reference, so
        every loaded ``repro`` module whose attribute *is* the original
        function gets the wrapper too.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, layer=layer, on_call=on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
