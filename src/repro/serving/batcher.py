"""Deadline-aware micro-batching policy.

The server's batching is work-conserving: it never holds a request to
wait for company.  A batch is whatever queued while the shard was busy
with the previous one, so batches form under load and a lone request
goes to the engine at once.  The policy bounds and filters that:

* **size** — a batch never exceeds ``max_batch_size`` rows;
* **deadline** — a request with ``deadline_ms`` must reach the engine
  while a full engine budget still fits before its deadline; one that
  no longer does is split off and answered from the fallback chain.

The policy is pure logic over an injected monotonic clock — the asyncio
server asks it when a batch is full and *which* requests can no longer
afford the engine; tests drive it with a fake clock and no event loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.serving.protocol import PredictRequest

__all__ = ["PendingRequest", "MicroBatchPolicy"]


@dataclass(frozen=True)
class PendingRequest:
    """An admitted request, stamped with arrival and absolute deadline.

    ``deadline`` is on the policy's monotonic clock (``None`` = no
    deadline); ``context`` is an opaque handle the server threads
    through (its connection writer + lock).
    """

    request: PredictRequest
    arrival: float
    deadline: float | None
    context: object = None

    def remaining(self, now: float) -> float:
        """Seconds until the deadline (``inf`` when unconstrained)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline - now


class MicroBatchPolicy:
    """Size watermark with deadline propagation.

    Args:
        max_batch_size: size watermark; a batch takes at most this many
            of the queued requests.
        engine_budget_s: wall-clock budget reserved for the model
            engines (the ladder's per-batch timeout).  A request whose
            remaining deadline budget drops below this cannot get a
            model answer in time and is answered early from the
            fallback chain instead of late from the engine.
        clock: monotonic time source.
    """

    def __init__(
        self,
        max_batch_size: int = 32,
        engine_budget_s: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if engine_budget_s <= 0:
            raise ValueError("engine_budget_s must be positive")
        self.max_batch_size = max_batch_size
        self.engine_budget_s = engine_budget_s
        self.clock = clock

    def admit(self, request: PredictRequest,
              context: object = None) -> PendingRequest:
        """Stamp a parsed request with arrival time and absolute deadline."""
        now = self.clock()
        deadline = (None if request.deadline_ms is None
                    else now + request.deadline_ms / 1000.0)
        return PendingRequest(request=request, arrival=now,
                              deadline=deadline, context=context)

    def is_full(self, pending: Sequence[PendingRequest]) -> bool:
        return len(pending) >= self.max_batch_size

    def split_expired(
        self, pending: Sequence[PendingRequest], now: float | None = None
    ) -> tuple[list[PendingRequest], list[PendingRequest]]:
        """Partition a batch into (engine-eligible, expired).

        Expired requests no longer have a full engine budget before
        their deadline; the server answers them immediately from the
        synchronous fallback chain — an early degraded answer instead
        of a late accurate one.
        """
        now = self.clock() if now is None else now
        eligible: list[PendingRequest] = []
        expired: list[PendingRequest] = []
        for item in pending:
            if item.remaining(now) < self.engine_budget_s:
                expired.append(item)
            else:
                eligible.append(item)
        return eligible, expired
