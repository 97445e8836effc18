"""The graceful-degradation ladder: quantized → float → static → baseline.

Every batch walks the rungs top-down and the *first rung that answers
in time* wins.  Model rungs (quantized int8, then float64) are guarded
by one shared :class:`~repro.serving.breaker.CircuitBreaker` and a
wall-clock engine budget; the table rungs (per-program static-best,
then the paper baseline) are synchronous, allocation-free lookups that
cannot fail — the ladder's bottom is unconditional, which is what makes
"every request gets an answer" a guarantee instead of a hope.

Every answer is tagged with the tier that produced it, both on the wire
(the response's ``tier`` field) and in metrics (``serve.tier.<tier>``,
plus ``serve.tier_fallback`` when a batch was answered below the top
rung), so degraded operation is observable rather than silent.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.config.configuration import MicroarchConfig
from repro.model.serialize import WeightStore
from repro.serving.breaker import CircuitBreaker
from repro.serving.engine import (
    BaselineEngine,
    StaticTableEngine,
    SupervisedModelEngine,
)

__all__ = ["DegradationLadder"]


class DegradationLadder:
    """Answer batches from the best rung that is healthy and in budget.

    Args:
        model_engines: restartable model rungs, best first (typically
            ``[quantized, float]``).  May be empty (table-only service).
        static: per-program static-best rung; optional.
        baseline: the infallible bottom rung.
        breaker: shared circuit breaker guarding *all* model rungs.
        engine_budget_s: total wall-clock budget for the model rungs
            per batch; whatever one rung spends comes out of the next
            rung's share.
        clock: monotonic time source.
    """

    def __init__(
        self,
        model_engines: Sequence[SupervisedModelEngine],
        baseline: BaselineEngine,
        static: StaticTableEngine | None = None,
        breaker: CircuitBreaker | None = None,
        engine_budget_s: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if engine_budget_s <= 0:
            raise ValueError("engine_budget_s must be positive")
        self.model_engines = list(model_engines)
        self.static = static
        self.baseline = baseline
        self.breaker = breaker or CircuitBreaker()
        self.engine_budget_s = engine_budget_s
        self.clock = clock

    @property
    def top_tier(self) -> str:
        """The tier a fully healthy service answers from."""
        if self.model_engines:
            return self.model_engines[0].tier
        return (self.static or self.baseline).tier

    def swap_from_store(self, store: WeightStore) -> int:
        """Warm-swap every model rung onto a freshly loaded store.

        All replacement models are built *before* any engine is
        touched: if building one raises (a malformed matrix that
        slipped past the manifest checks), every rung keeps its old
        weights — a hot reload is all-or-nothing, never a partial
        swap.  Returns the number of engines swapped.
        """
        swaps = [(engine, model) for engine in self.model_engines
                 if (model := engine.build_model(store)) is not None]
        for engine, model in swaps:
            engine.swap_model(model)
        return len(swaps)

    def fallback(self, programs: Sequence[str | None]
                 ) -> tuple[list[MicroarchConfig], str]:
        """The synchronous, infallible rungs (static, then baseline)."""
        if self.static is not None:
            try:
                return self.static.predict_all(programs), self.static.tier
            except Exception:
                obs.inc("serve.static_tier_error")
        return self.baseline.predict_all(programs), self.baseline.tier

    async def answer(
        self,
        features: Sequence[Sequence[float]],
        programs: Sequence[str | None],
        batch_key: str,
    ) -> tuple[list[MicroarchConfig], str]:
        """Answer one micro-batch; returns ``(configs, tier)``.

        Model rungs are attempted only while the breaker allows and
        budget remains; each attempt's outcome feeds the breaker.
        Falls through to :meth:`fallback` otherwise — this method never
        raises and never exceeds ``engine_budget_s`` by more than one
        event-loop scheduling quantum.  An engine runs inline in the
        caller's task and suspends only to enact an injected hang or
        slow batch, which the remaining budget cuts short.
        """
        matrix = np.asarray(features, dtype=np.float64)
        budget_ends = self.clock() + self.engine_budget_s
        for engine in self.model_engines:
            remaining = budget_ends - self.clock()
            if remaining <= 0:
                break
            if not self.breaker.allow():
                break
            started = self.clock()
            try:
                with obs.span("serve.engine_batch", tier=engine.tier,
                              rows=len(matrix)):
                    async with asyncio.timeout(remaining):
                        configs = await engine.predict_batch(
                            matrix, batch_key)
            except TimeoutError:
                self.breaker.record_failure()
                obs.inc("serve.engine_timeout")
                obs.inc(f"serve.engine_timeout.{engine.tier}")
            except Exception:
                self.breaker.record_failure()
                obs.inc("serve.engine_error")
                obs.inc(f"serve.engine_error.{engine.tier}")
            else:
                self.breaker.record_success(self.clock() - started)
                self._count(engine.tier, len(configs), fallback=False)
                return configs, engine.tier
        configs, tier = self.fallback(programs)
        self._count(tier, len(configs), fallback=bool(self.model_engines))
        return configs, tier

    def _count(self, tier: str, rows: int, fallback: bool) -> None:
        obs.inc(f"serve.tier.{tier}", rows)
        if fallback:
            obs.inc("serve.tier_fallback", rows)
