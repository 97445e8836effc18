"""One serving shard: a worker process in the multi-shard fleet.

A shard is simply the existing :class:`~repro.serving.server.PredictionServer`
loop running in its own process, with three fleet hooks:

* **Shared accept** — either the shard binds its own socket with
  ``SO_REUSEPORT`` on the fleet's common ``(host, port)`` (the kernel
  then load-balances accepted connections across shards), or it serves
  on a listening socket inherited from the supervisor (the fallback
  for platforms without ``SO_REUSEPORT``).
* **Shared weights** — the engine loads the weight store memory-mapped
  read-only, so all shards' float64 + int8 matrices resolve to the
  same physical pages (:mod:`repro.serving.memory` proves it).
* **Hot reload** — ``SIGHUP`` makes the shard load and fully validate
  the store *off the event loop*, then warm-swap every model rung
  between micro-batches
  (:meth:`~repro.serving.ladder.DegradationLadder.swap_from_store`).
  A store that fails validation (``CorruptInputError``) is counted and
  ignored — the shard keeps answering from its old weights; a partial
  swap cannot happen.

``SIGTERM`` keeps its PR-7 meaning — drain: answer what is queued,
shed new frames explicitly, and exit 0 once clients hang up (or the
drain grace expires).
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import sys
from dataclasses import dataclass, field
from typing import Mapping

from repro import obs
from repro.config.configuration import PROFILING_CONFIG, MicroarchConfig
from repro.experiments.errors import CorruptInputError
from repro.model.serialize import load_weight_store
from repro.serving import build_service

__all__ = ["ShardSpec", "run_shard", "shard_main"]


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to serve (picklable: it
    crosses the ``spawn`` boundary as the process's only argument;
    inherited sockets travel via multiprocessing's fd-passing
    reduction).
    """

    store_path: str
    shard_id: int
    host: str = "127.0.0.1"
    port: int = 0
    reuse_port: bool = False
    sock: socket.socket | None = None
    static_table: Mapping[str, MicroarchConfig] | None = None
    static_default: MicroarchConfig | None = None
    baseline: MicroarchConfig = field(default=PROFILING_CONFIG)
    max_batch_size: int = 32
    engine_budget_s: float = 0.2
    queue_limit: int = 64
    failure_threshold: int = 3
    cooldown_s: float = 0.25
    latency_threshold_s: float | None = None
    drain_grace_s: float = 2.0


async def run_shard(spec: ShardSpec, ready: object | None = None) -> int:
    """Serve one shard until drained; returns the process exit code.

    Args:
        spec: the shard's configuration.
        ready: optional ``multiprocessing.Event``-like handle; set once
            the shard is accepting connections (the supervisor's
            readiness barrier).
    """
    server = build_service(
        spec.store_path,
        static_table=spec.static_table,
        static_default=spec.static_default,
        baseline=spec.baseline,
        max_batch_size=spec.max_batch_size,
        engine_budget_s=spec.engine_budget_s,
        queue_limit=spec.queue_limit,
        failure_threshold=spec.failure_threshold,
        cooldown_s=spec.cooldown_s,
        latency_threshold_s=spec.latency_threshold_s,
        host=spec.host,
        port=spec.port,
        sock=spec.sock,
        reuse_port=spec.reuse_port,
        shard_id=spec.shard_id,
    )
    await server.start()
    server.install_signal_handlers()

    async def _reload() -> None:
        try:
            store = await asyncio.to_thread(
                load_weight_store, spec.store_path)
        except CorruptInputError:
            # The republished store failed full validation (checksums,
            # shapes, dtypes): keep the old weights on every rung.
            obs.inc("serve.reload_corrupt")
            return
        if server.ladder.swap_from_store(store):
            obs.inc("serve.weight_reload")

    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(
            signal.SIGHUP,
            lambda: asyncio.ensure_future(_reload()))
    except (NotImplementedError, AttributeError):
        pass  # platform without SIGHUP: hot reload is supervisor-less
    if ready is not None:
        ready.set()  # type: ignore[attr-defined]
    await server.serve_until_drained()
    # Linger so frames racing the drain get their explicit `shed`
    # response instead of a connection reset.
    await server.wait_connections_closed(spec.drain_grace_s)
    return 0


def shard_main(spec: ShardSpec, ready: object | None = None) -> None:
    """``multiprocessing.Process`` target: run one shard to completion.

    Stamps ``REPRO_SHARD_ID`` so every obs record this process writes
    carries its shard id (merged per-shard in the summary exporter).
    """
    os.environ["REPRO_SHARD_ID"] = str(spec.shard_id)
    sys.exit(asyncio.run(run_shard(spec, ready)))
