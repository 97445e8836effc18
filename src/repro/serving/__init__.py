"""Resilient online prediction service for the adaptivity controller.

An asyncio TCP server speaking newline-delimited JSON
(:mod:`~repro.serving.protocol`), micro-batching requests under
deadline pressure (:mod:`~repro.serving.batcher`) into the predictor's
batched argmax path, with a circuit breaker
(:mod:`~repro.serving.breaker`) and a graceful-degradation ladder
(:mod:`~repro.serving.ladder`) between the model and the client:
quantized int8 → float64 → per-program static-best → paper baseline.
Every response is tagged with the tier that produced it.

:func:`build_service` wires the whole stack from a weight-store
directory; ``docs/serving.md`` documents the protocol and semantics,
``scripts/serve_drill.py`` is the chaos drill, ``scripts/bench_serve.py``
the latency/throughput benchmark.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Callable, Mapping

from repro.config.configuration import PROFILING_CONFIG, MicroarchConfig
from repro.serving.batcher import MicroBatchPolicy, PendingRequest
from repro.serving.breaker import CircuitBreaker
from repro.serving.engine import (
    BaselineEngine,
    EngineCrashError,
    StaticTableEngine,
    SupervisedModelEngine,
    float_engine,
    quantized_engine,
)
from repro.serving.ladder import DegradationLadder
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    PredictRequest,
    PredictResponse,
    ProtocolError,
)
from repro.serving.server import PredictionServer

__all__ = [
    "MAX_FRAME_BYTES",
    "BaselineEngine",
    "CircuitBreaker",
    "DegradationLadder",
    "EngineCrashError",
    "MicroBatchPolicy",
    "PendingRequest",
    "PredictRequest",
    "PredictResponse",
    "PredictionServer",
    "ProtocolError",
    "StaticTableEngine",
    "SupervisedModelEngine",
    "build_service",
    "float_engine",
    "quantized_engine",
]


def build_service(
    store_path: str | Path,
    static_table: Mapping[str, MicroarchConfig] | None = None,
    static_default: MicroarchConfig | None = None,
    baseline: MicroarchConfig = PROFILING_CONFIG,
    max_batch_size: int = 32,
    engine_budget_s: float = 0.2,
    queue_limit: int = 64,
    failure_threshold: int = 3,
    cooldown_s: float = 0.25,
    latency_threshold_s: float | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    clock: Callable[[], float] = time.monotonic,
    sock: socket.socket | None = None,
    reuse_port: bool = False,
    shard_id: int | None = None,
) -> PredictionServer:
    """Wire the full serving stack from a weight-store directory.

    The ladder is quantized → float → (static, when a table is given)
    → baseline; both model rungs warm-reload from ``store_path``.
    ``sock``/``reuse_port``/``shard_id`` are the multi-process shard
    hooks (see :mod:`repro.serving.frontend`).
    """
    breaker = CircuitBreaker(
        failure_threshold=failure_threshold,
        cooldown_s=cooldown_s,
        latency_threshold_s=latency_threshold_s,
        clock=clock,
    )
    static = None
    if static_table is not None:
        static = StaticTableEngine(
            static_table, static_default
            if static_default is not None else baseline)
    ladder = DegradationLadder(
        model_engines=[quantized_engine(store_path),
                       float_engine(store_path)],
        baseline=BaselineEngine(baseline),
        static=static,
        breaker=breaker,
        engine_budget_s=engine_budget_s,
        clock=clock,
    )
    policy = MicroBatchPolicy(
        max_batch_size=max_batch_size,
        engine_budget_s=engine_budget_s,
        clock=clock,
    )
    return PredictionServer(ladder, policy=policy, host=host, port=port,
                            queue_limit=queue_limit, sock=sock,
                            reuse_port=reuse_port, shard_id=shard_id)
