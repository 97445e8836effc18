"""The asyncio prediction server: NDJSON in, configurations out.

Request lifecycle::

    readline → parse → admit (bounded queue) → micro-batch → ladder
             ↘ malformed: error frame   ↘ full/draining: shed frame

Batching is work-conserving: the batch loop takes the oldest queued
request as soon as the engine is free, together with whatever else
queued behind it (up to ``max_batch_size``), and never waits for more.

Robustness properties, each load-bearing:

* **Bounded admission** — the queue holds at most ``queue_limit``
  requests; beyond that the server *sheds* with an explicit response
  instead of buffering without bound.  The client sees backpressure
  the moment it exists.
* **Deadline propagation** — requests that can no longer afford the
  engine budget when their batch starts are answered immediately from
  the fallback chain
  (:meth:`~repro.serving.ladder.DegradationLadder.fallback`).
* **Fault isolation** — a malformed frame poisons neither its
  connection nor its neighbours; an engine crash degrades the current
  batch and the supervisor warm-reloads weights for the next.
* **Drain on SIGTERM** — :meth:`drain` stops the listener, sheds
  what is still queued, lets the in-flight batch finish, and flushes
  every connection before returning.

All counters/gauges/histograms go through :mod:`repro.obs`
(``REPRO_OBS=1``), with one histogram per stage of a served request
(``serve.decode_ms``, ``serve.queue_wait_ms``, ``serve.encode_ms``)
beside the ``serve.engine_batch`` span; :meth:`stats` mirrors the
operational numbers as a plain dict so the chaos drill can assert on
them without the metrics pipeline.
"""

from __future__ import annotations

import asyncio
import signal
import socket
from collections import Counter
from typing import Awaitable, Callable

from repro import obs
from repro.config.configuration import MicroarchConfig
from repro.serving.batcher import MicroBatchPolicy, PendingRequest
from repro.serving.ladder import DegradationLadder
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    PredictRequest,
    PredictResponse,
    ProtocolError,
)
from repro.testing import faults

__all__ = ["PredictionServer"]


class _Connection:
    """Per-connection write ordering: responses for one socket are
    serialised through a lock because batch completions interleave."""

    def __init__(self, writer: asyncio.StreamWriter,
                 clock: Callable[[], float]) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.clock = clock

    async def send(self, response: PredictResponse) -> bool:
        async with self.lock:
            if self.writer.is_closing():
                return False
            started = self.clock()
            frame = response.encode()
            obs.observe("serve.encode_ms", (self.clock() - started) * 1e3)
            self.writer.write(frame)
            try:
                await self.writer.drain()
            except (ConnectionError, OSError):
                return False
        return True

    def abort(self) -> None:
        transport = self.writer.transport
        if transport is not None:
            transport.abort()


class PredictionServer:
    """Deadline-aware micro-batching prediction service.

    Args:
        ladder: the degradation ladder that answers batches.
        policy: micro-batching policy (watermarks + deadline math);
            defaults to one sharing the ladder's engine budget.
        host/port: listen address; port 0 picks a free port (read it
            back from :attr:`port` after :meth:`start`).
        queue_limit: admission bound; requests beyond it are shed.
        sock: an already-bound listening socket to serve on instead of
            ``host``/``port`` — the shard supervisor's inherited-socket
            fallback (every shard accepts from one shared socket).
        reuse_port: bind with ``SO_REUSEPORT`` so N shard processes
            can listen on the *same* ``(host, port)`` and the kernel
            load-balances accepted connections among them.
        shard_id: this process's position in the shard fleet; stamped
            into :meth:`stats` and per-shard metrics.
    """

    def __init__(
        self,
        ladder: DegradationLadder,
        policy: MicroBatchPolicy | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        sock: socket.socket | None = None,
        reuse_port: bool = False,
        shard_id: int | None = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.ladder = ladder
        self.policy = policy or MicroBatchPolicy(
            engine_budget_s=ladder.engine_budget_s, clock=ladder.clock)
        self.host = host
        self._requested_port = port
        self._sock = sock
        self.reuse_port = reuse_port
        self.shard_id = shard_id
        self.queue_limit = queue_limit
        self._connections: set[_Connection] = set()
        self._queue: asyncio.Queue[PendingRequest] = asyncio.Queue(
            maxsize=queue_limit)
        self._server: asyncio.base_events.Server | None = None
        self._batch_task: asyncio.Task[None] | None = None
        self._draining = False
        self._drained = asyncio.Event()
        self._batch_seq = 0
        self.counts: Counter[str] = Counter()
        self.tier_counts: Counter[str] = Counter()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._serve_connection, sock=self._sock,
                limit=MAX_FRAME_BYTES + 2)
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self._requested_port,
                limit=MAX_FRAME_BYTES + 2,
                reuse_port=self.reuse_port or None)
        self._batch_task = asyncio.create_task(self._batch_loop())

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (call from the loop)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain()))

    async def drain(self) -> None:
        """Graceful shutdown: stop listening, finish in-flight work.

        New frames on existing connections are shed while draining;
        queued requests are still answered.  Idempotent.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        obs.inc("serve.drain")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._queue.join()
        if self._batch_task is not None:
            self._batch_task.cancel()
            try:
                await self._batch_task
            except asyncio.CancelledError:
                pass
        self._drained.set()

    async def serve_until_drained(self) -> None:
        await self._drained.wait()

    async def wait_connections_closed(self, timeout_s: float = 5.0) -> bool:
        """Wait (bounded) for clients to hang up after a drain.

        Keeps the process alive long enough that frames arriving on
        surviving connections get their explicit ``shed`` response
        instead of a connection reset.  Returns ``True`` if every
        connection closed within ``timeout_s``.
        """
        give_up = self.policy.clock() + timeout_s
        while self._connections:
            if self.policy.clock() >= give_up:
                return False
            await asyncio.sleep(0.02)
        return True

    # -- connection handling ---------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer, self.policy.clock)
        self._connections.add(conn)
        try:
            while True:
                try:
                    line = await reader.readline()
                except asyncio.CancelledError:
                    # Event-loop shutdown while idle on readline.  Exit
                    # normally: a handler task that ends cancelled makes
                    # asyncio's stream machinery log a spurious error on
                    # 3.11 (task.exception() on a cancelled task).
                    break
                except (ValueError, asyncio.LimitOverrunError):
                    # Frame longer than the stream limit: we cannot
                    # trust the framing any more, so answer and close.
                    self._note("malformed")
                    await conn.send(PredictResponse.error(
                        None, f"frame exceeds {MAX_FRAME_BYTES} bytes"))
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                if not await self._handle_frame(line, conn):
                    break
        finally:
            self._connections.discard(conn)
            if not writer.is_closing():
                writer.close()
                try:
                    await writer.wait_closed()
                except (asyncio.CancelledError, ConnectionError, OSError):
                    # A shutdown cancel caught at readline is re-raised
                    # by the next await; absorbing it here lets the
                    # handler task end normally (see above).
                    pass

    async def _handle_frame(self, line: bytes, conn: _Connection) -> bool:
        """Parse/admit one frame; ``False`` ends the connection."""
        started = self.policy.clock()
        try:
            request = PredictRequest.parse(line)
        except ProtocolError as error:
            self._note("malformed")
            return await conn.send(
                PredictResponse.error(error.request_id, error.reason))
        obs.observe("serve.decode_ms", (self.policy.clock() - started) * 1e3)
        modes = faults.claim("serve-conn", request.id)
        if "drop" in modes:
            # Injected mid-request connection drop: the client sees a
            # reset, never a half-written frame.
            self._note("conn_drop")
            conn.abort()
            return False
        self._note("request")
        if self._draining:
            self._note("shed")
            return await conn.send(
                PredictResponse.shed(request.id, "server draining"))
        item = self.policy.admit(request, context=conn)
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self._note("shed")
            obs.inc("serve.shed_queue_full")
            return await conn.send(PredictResponse.shed(
                request.id, f"admission queue full ({self.queue_limit})"))
        obs.set_gauge("serve.queue_depth", float(self._queue.qsize()))
        return True

    # -- batching --------------------------------------------------------------

    async def _batch_loop(self) -> None:
        while True:
            pending = [await self._queue.get()]
            # Work-conserving: what queued while the shard was busy joins
            # this batch; nothing waits for requests yet to arrive.
            while not (self.policy.is_full(pending) or self._queue.empty()):
                pending.append(self._queue.get_nowait())
            obs.set_gauge("serve.queue_depth", float(self._queue.qsize()))
            try:
                await self._answer_batch(pending)
            except Exception:
                # The ladder and fallback chain are designed never to
                # raise; if something slips through anyway, the batch
                # loop must survive it or the whole service stalls.
                self._note("batch_error")
            finally:
                for _ in pending:
                    self._queue.task_done()

    async def _answer_batch(self, pending: list[PendingRequest]) -> None:
        self._batch_seq += 1
        batch_key = str(self._batch_seq)
        obs.observe("serve.batch_size", float(len(pending)))
        self.counts["batches"] += 1
        now = self.policy.clock()
        for item in pending:
            obs.observe("serve.queue_wait_ms", (now - item.arrival) * 1e3)
        eligible, expired = self.policy.split_expired(pending, now)
        sends: list[Awaitable[None]] = []
        if expired:
            # Deadline-aware early fallback: these can no longer afford
            # the engine budget, so a degraded answer *now* beats an
            # accurate answer after the deadline.
            configs, tier = self.ladder.fallback(
                [item.request.program for item in expired])
            obs.inc("serve.deadline_fallback", len(expired))
            sends.extend(self._respond(item, config, tier)
                         for item, config in zip(expired, configs))
        if eligible:
            configs, tier = await self.ladder.answer(
                [item.request.features for item in eligible],
                [item.request.program for item in eligible],
                batch_key)
            sends.extend(self._respond(item, config, tier)
                         for item, config in zip(eligible, configs))
        if sends:
            await asyncio.gather(*sends)

    async def _respond(self, item: PendingRequest, config: MicroarchConfig,
                       tier: str) -> None:
        now = self.policy.clock()
        if item.deadline is not None and now > item.deadline:
            self._note("deadline_miss")
        obs.observe("serve.latency_ms", (now - item.arrival) * 1000.0)
        self._note("ok")
        self.tier_counts[tier] += 1
        conn = item.context
        if isinstance(conn, _Connection):
            await conn.send(PredictResponse.ok(item.request.id, config, tier))

    # -- accounting ------------------------------------------------------------

    def _note(self, event: str) -> None:
        self.counts[event] += 1
        obs.inc(f"serve.{event}")

    def stats(self) -> dict[str, object]:
        """Operational counters for drills/tests (obs-independent)."""
        restarts = sum(engine.restarts
                       for engine in self.ladder.model_engines)
        reloads = sum(engine.reloads
                      for engine in self.ladder.model_engines)
        return {
            "shard_id": self.shard_id,
            "open_connections": len(self._connections),
            "engine_reloads": reloads,
            "requests": self.counts["request"],
            "ok": self.counts["ok"],
            "shed": self.counts["shed"],
            "malformed": self.counts["malformed"],
            "conn_drops": self.counts["conn_drop"],
            "deadline_misses": self.counts["deadline_miss"],
            "batches": self.counts["batches"],
            "tiers": dict(self.tier_counts),
            "engine_restarts": restarts,
            "breaker_trips": self.ladder.breaker.trips,
            "breaker_state": self.ladder.breaker.state,
        }
