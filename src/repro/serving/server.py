"""The asyncio prediction server: NDJSON in, configurations out.

Request lifecycle::

    data_received → split lines → parse → admit (bounded queue)
                    ↘ malformed: error frame   ↘ full/draining: shed frame
    batch loop → ladder (engine inline) → encode → one write per connection

Each connection is an :class:`asyncio.Protocol`: the transport hands it
bytes, and it splits, parses and admits every complete frame in that
same callback.  The batch loop is the server's only Task.  It wakes when
the queue gets a request, takes whatever else queued behind it (up to
``max_batch_size``) and answers the batch in one pass: the ladder calls
the engine inline, and each connection's responses go out in one
``transport.write``.  Batching is therefore work-conserving: a batch is
what queued while the shard was busy, and nothing waits for more.  A
lone request costs two event-loop iterations (its frame arrives, the
batch loop wakes) and creates no Task.

Robustness properties, each load-bearing:

* **Bounded admission** — the queue holds at most ``queue_limit``
  requests; beyond that the server *sheds* with an explicit response
  instead of buffering without bound.  The client sees backpressure
  the moment it exists.
* **A slow reader stalls only itself** — the batch loop never waits for
  a client to read.  When a connection's transport pauses writing (its
  client stopped reading), the server stops reading that connection's
  frames until the transport resumes, so its write buffer grows by at
  most ``queue_limit`` responses and every other connection is served
  as before.
* **Deadline propagation** — requests that can no longer afford the
  engine budget when their batch starts are answered at once from the
  fallback chain
  (:meth:`~repro.serving.ladder.DegradationLadder.fallback`), before the
  engine runs for the rest of the batch.
* **Fault isolation** — a malformed frame poisons neither its
  connection nor its neighbours; an engine crash degrades the current
  batch and the supervisor warm-reloads weights for the next.
* **Drain on SIGTERM** — :meth:`drain` stops the listener, sheds new
  frames, answers what is still queued and stops the batch loop.

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
from typing import Sequence

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


class _Connection(asyncio.Protocol):
    """One client socket: frames in through :meth:`data_received`,
    responses out through :meth:`write`, which never waits."""

    transport: asyncio.Transport

    def __init__(self, server: PredictionServer) -> None:
        self.server = server
        self._unread = b""
        self._paused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self._unread += data
        self._read_frames()

    def pause_writing(self) -> None:
        # The client stopped reading: read none of its frames until it
        # catches up, so that only its own requests wait.
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self.transport.resume_reading()
        self._read_frames()

    def _read_frames(self) -> None:
        """Handle every complete frame read so far, unless paused."""
        data, start = self._unread, 0
        while not (self._paused or self.transport.is_closing()):
            end = data.find(b"\n", start)
            if end < 0:
                if len(data) - start >= MAX_FRAME_BYTES:
                    start = len(data)
                    self._overrun()
                break
            line, start = data[start:end], end + 1
            if len(line) >= MAX_FRAME_BYTES:
                self._overrun()
            elif line.strip():
                self.server._handle_frame(line, self)
        self._unread = data[start:]

    def _overrun(self) -> None:
        # A frame longer than the cap: the framing cannot be trusted any
        # more, so answer and close.
        self.server._note("malformed")
        self.write(self.server._encode(PredictResponse.error(
            None, f"frame exceeds {MAX_FRAME_BYTES} bytes")))
        self.transport.close()

    def write(self, frames: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(frames)


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
        loop = asyncio.get_running_loop()
        if self._sock is not None:
            self._server = await loop.create_server(
                self._connection, sock=self._sock)
        else:
            self._server = await loop.create_server(
                self._connection, self.host, self._requested_port,
                reuse_port=self.reuse_port or None)
        self._batch_task = asyncio.create_task(self._batch_loop())

    def _connection(self) -> _Connection:
        return _Connection(self)

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
        queued requests are still answered.  Open connections stay
        open (:meth:`wait_connections_closed` waits for them).
        Idempotent.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        obs.inc("serve.drain")
        if self._server is not None:
            # Not followed by ``wait_closed``: from Python 3.12.1 on it
            # also waits for every connection to close.
            self._server.close()
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

    # -- admission -------------------------------------------------------------

    def _handle_frame(self, line: bytes, conn: _Connection) -> None:
        """Parse and admit one frame, or answer it at once."""
        started = self.policy.clock()
        try:
            request = PredictRequest.parse(line)
        except ProtocolError as error:
            self._note("malformed")
            conn.write(self._encode(
                PredictResponse.error(error.request_id, error.reason)))
            return
        obs.observe("serve.decode_ms", (self.policy.clock() - started) * 1e3)
        modes = faults.claim("serve-conn", request.id)
        if "drop" in modes:
            # Injected mid-request connection drop: the client sees a
            # reset, never a half-written frame.
            self._note("conn_drop")
            conn.transport.abort()
            return
        self._note("request")
        if self._draining:
            reason = "server draining"
        elif self._queue.full():
            obs.inc("serve.shed_queue_full")
            reason = f"admission queue full ({self.queue_limit})"
        else:
            self._queue.put_nowait(self.policy.admit(request, context=conn))
            obs.set_gauge("serve.queue_depth", float(self._queue.qsize()))
            return
        self._note("shed")
        conn.write(self._encode(PredictResponse.shed(request.id, reason)))

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
        """Answer one batch.  It awaits nothing unless the engine enacts
        an injected hang or slow batch."""
        self._batch_seq += 1
        batch_key = str(self._batch_seq)
        obs.observe("serve.batch_size", float(len(pending)))
        self.counts["batches"] += 1
        now = self.policy.clock()
        for item in pending:
            obs.observe("serve.queue_wait_ms", (now - item.arrival) * 1e3)
        eligible, expired = self.policy.split_expired(pending, now)
        if expired:
            # Deadline-aware early fallback: these can no longer afford
            # the engine budget, so a degraded answer *now* beats an
            # accurate answer after the deadline.
            configs, tier = self.ladder.fallback(
                [item.request.program for item in expired])
            obs.inc("serve.deadline_fallback", len(expired))
            self._respond(expired, configs, tier)
        if eligible:
            configs, tier = await self.ladder.answer(
                [item.request.features for item in eligible],
                [item.request.program for item in eligible],
                batch_key)
            self._respond(eligible, configs, tier)

    def _respond(self, items: Sequence[PendingRequest],
                 configs: Sequence[MicroarchConfig], tier: str) -> None:
        """Encode each answer; one write per connection."""
        frames: dict[_Connection, list[bytes]] = {}
        for item, config in zip(items, configs):
            now = self.policy.clock()
            if item.deadline is not None and now > item.deadline:
                self._note("deadline_miss")
            obs.observe("serve.latency_ms", (now - item.arrival) * 1e3)
            self._note("ok")
            self.tier_counts[tier] += 1
            conn = item.context
            if (isinstance(conn, _Connection)
                    and not conn.transport.is_closing()):
                frames.setdefault(conn, []).append(self._encode(
                    PredictResponse.ok(item.request.id, config, tier)))
        for conn, lines in frames.items():
            conn.write(b"".join(lines))

    def _encode(self, response: PredictResponse) -> bytes:
        started = self.policy.clock()
        frame = response.encode()
        obs.observe("serve.encode_ms", (self.policy.clock() - started) * 1e3)
        return frame

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
