"""The shard supervisor: one port, N worker processes, hot reload.

``ShardSupervisor`` is the fleet's control plane.  It owns three jobs
and deliberately nothing else (the data plane is entirely inside the
shards):

* **Topology** — spawn ``REPRO_SERVE_SHARDS`` worker processes (at
  most one per usable CPU unless ``shards`` is given explicitly;
  ``spawn`` start method: no forked event loops, and the page-sharing
  numbers are honest rather than copy-on-write leftovers), all
  accepting on one ``(host, port)``.  Preferred mechanism is
  ``SO_REUSEPORT`` — each shard binds its own socket and the kernel
  load-balances connections — with an inherited listening socket
  (fd-passed to every shard) as the fallback.  In reuse-port mode the
  supervisor keeps a bound, *non-listening* placeholder socket in the
  group for the fleet's lifetime, so the port cannot be lost to
  another process while a crashed shard is being restarted.
* **Supervision** — :meth:`reap_and_restart` respawns dead shards
  (counted per shard); :meth:`terminate` fans ``SIGTERM`` out, joins
  every shard, and propagates their exit codes.
* **Hot reload** — :meth:`poll_store` hashes the store manifest
  (:func:`~repro.model.serialize.manifest_digest`); on change it fans
  ``SIGHUP`` out and each shard validates + warm-swaps on its own
  event loop.  A corrupt manifest during a poll is counted, not fatal.

The supervisor is synchronous on purpose: it is signal-and-wait
plumbing, driven either by :meth:`run_forever` (a sleep loop) or by a
caller's own cadence (the drill and the soak bench call
:meth:`reap_and_restart` / :meth:`poll_store` from
``asyncio.to_thread``).
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
import os
import signal
import socket
import time
from typing import Mapping

from repro.experiments.errors import CorruptInputError
from repro.model.serialize import manifest_digest
from repro.serving.shard import ShardSpec, shard_main

__all__ = ["ShardSupervisor", "default_shard_count", "reuse_port_supported"]

_ENV_SHARDS = "REPRO_SERVE_SHARDS"
_log = logging.getLogger(__name__)


def default_shard_count() -> int:
    """``REPRO_SERVE_SHARDS`` (default 1), between 1 and the usable CPUs.

    Shards beyond the CPUs this process may run on only compete for
    them, so the environment default stops there; an explicit
    ``ShardSupervisor(shards=N)`` can still overcommit.
    """
    try:
        requested = max(1, int(os.environ.get(_ENV_SHARDS, "1")))
    except ValueError:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    if requested > cpus:
        _log_cap(requested, cpus)
        return cpus
    return requested


@functools.cache
def _log_cap(requested: int, cpus: int) -> None:
    _log.warning("%s=%d exceeds the %d usable CPUs: running %d shards",
                 _ENV_SHARDS, requested, cpus, cpus)


def reuse_port_supported() -> bool:
    """Whether this platform can share a port via ``SO_REUSEPORT``."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    except OSError:
        return False
    return True


class _Shard:
    """Book-keeping for one worker slot (the process may be respawned)."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.process: multiprocessing.process.BaseProcess | None = None
        self.ready: object | None = None
        self.restarts = 0
        self.exit_code: int | None = None


class ShardSupervisor:
    """Run and supervise a fleet of prediction-serving shards.

    Args:
        store_path: the weight-store directory every shard serves from
            (and the hot-reload watch target).
        shards: fleet size; defaults to :func:`default_shard_count`
            (``REPRO_SERVE_SHARDS``, capped at the usable CPUs).
        host/port: the fleet's single listen address (port 0 lets the
            supervisor pick; read :attr:`port` back after
            :meth:`start`).
        reuse_port: force the accept mechanism; ``None`` auto-detects
            (``SO_REUSEPORT`` where available, inherited socket
            otherwise).
        ready_timeout_s: per-:meth:`start` bound on waiting for every
            shard to accept connections.
        **server_kwargs: forwarded into every shard's
            :func:`~repro.serving.build_service` via
            :class:`~repro.serving.shard.ShardSpec` (static_table,
            queue_limit, engine_budget_s, ...).
    """

    def __init__(
        self,
        store_path: str | os.PathLike[str],
        shards: int | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool | None = None,
        ready_timeout_s: float = 30.0,
        static_table: Mapping[str, object] | None = None,
        static_default: object | None = None,
        baseline: object | None = None,
        max_batch_size: int = 32,
        engine_budget_s: float = 0.2,
        queue_limit: int = 64,
        failure_threshold: int = 3,
        cooldown_s: float = 0.25,
        latency_threshold_s: float | None = None,
        drain_grace_s: float = 2.0,
    ) -> None:
        self.store_path = str(store_path)
        self.n_shards = shards if shards is not None else default_shard_count()
        if self.n_shards < 1:
            raise ValueError("shards must be >= 1")
        self.host = host
        self._requested_port = port
        self.reuse_port = (reuse_port if reuse_port is not None
                           else reuse_port_supported())
        self.ready_timeout_s = ready_timeout_s
        self._spec_kwargs = dict(
            static_table=static_table,
            static_default=static_default,
            max_batch_size=max_batch_size,
            engine_budget_s=engine_budget_s,
            queue_limit=queue_limit,
            failure_threshold=failure_threshold,
            cooldown_s=cooldown_s,
            latency_threshold_s=latency_threshold_s,
            drain_grace_s=drain_grace_s,
        )
        if baseline is not None:
            self._spec_kwargs["baseline"] = baseline
        self._ctx = multiprocessing.get_context("spawn")
        self._shards: list[_Shard] = [_Shard(i) for i in range(self.n_shards)]
        self._placeholder: socket.socket | None = None
        self._listen_sock: socket.socket | None = None
        self._port: int | None = None
        self._store_digest: str | None = None
        self.poll_failures = 0
        self.reload_signals = 0
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("supervisor is not started")
        return self._port

    @property
    def pids(self) -> list[int]:
        return [shard.process.pid for shard in self._shards
                if shard.process is not None and shard.process.pid is not None]

    def start(self) -> None:
        """Bind the fleet's port, spawn every shard, wait until all
        are accepting.

        Raises:
            TimeoutError: a shard did not become ready in time (the
                fleet is torn down before raising).
        """
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        if self.reuse_port:
            # Reserve the port for the fleet: bound (never listening),
            # so it holds the SO_REUSEPORT group open across shard
            # restarts without stealing any connections.
            self._placeholder = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM)
            self._placeholder.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            self._placeholder.bind((self.host, self._requested_port))
            self._port = self._placeholder.getsockname()[1]
        else:
            self._listen_sock = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM)
            self._listen_sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listen_sock.bind((self.host, self._requested_port))
            self._listen_sock.listen(128)
            self._port = self._listen_sock.getsockname()[1]
        try:
            self._store_digest = manifest_digest(self.store_path)
        except CorruptInputError:
            self._store_digest = None
        for shard in self._shards:
            self._spawn(shard)
        try:
            self._wait_ready(self._shards)
        except TimeoutError:
            self.terminate()
            raise

    def _spec(self, shard_id: int) -> ShardSpec:
        return ShardSpec(
            store_path=self.store_path,
            shard_id=shard_id,
            host=self.host,
            port=self.port if self.reuse_port else 0,
            reuse_port=self.reuse_port,
            sock=None if self.reuse_port else self._listen_sock,
            **self._spec_kwargs,  # type: ignore[arg-type]
        )

    def _spawn(self, shard: _Shard) -> None:
        shard.ready = self._ctx.Event()
        shard.exit_code = None
        shard.process = self._ctx.Process(
            target=shard_main,
            args=(self._spec(shard.shard_id), shard.ready),
            name=f"repro-serve-shard-{shard.shard_id}",
        )
        shard.process.start()

    def _wait_ready(self, shards: list[_Shard]) -> None:
        give_up = time.monotonic() + self.ready_timeout_s
        for shard in shards:
            remaining = give_up - time.monotonic()
            assert shard.ready is not None
            if remaining <= 0 or not shard.ready.wait(  # type: ignore[attr-defined]
                    timeout=remaining):
                raise TimeoutError(
                    f"shard {shard.shard_id} not ready within "
                    f"{self.ready_timeout_s:.1f}s")

    # -- supervision -----------------------------------------------------------

    def reap_and_restart(self) -> list[int]:
        """Respawn every dead shard; returns the restarted shard ids.

        The rest of the fleet keeps serving throughout — in reuse-port
        mode the placeholder socket keeps the port reserved, in
        inherited-socket mode the shared listener never went away.
        """
        restarted: list[int] = []
        for shard in self._shards:
            process = shard.process
            if process is None or process.is_alive():
                continue
            process.join(timeout=0)
            shard.exit_code = process.exitcode
            shard.restarts += 1
            self._spawn(shard)
            restarted.append(shard.shard_id)
        if restarted:
            self._wait_ready([self._shards[i] for i in restarted])
        return restarted

    def terminate(self, timeout_s: float = 10.0) -> dict[int, int | None]:
        """Fan ``SIGTERM`` out, join everyone, return exit codes.

        Each shard drains (queued requests answered, late frames shed)
        and exits 0; stragglers past ``timeout_s`` are killed.  The
        mapping is shard id → exit code (negative = killed by signal).
        """
        for shard in self._shards:
            process = shard.process
            if process is not None and process.is_alive():
                assert process.pid is not None
                os.kill(process.pid, signal.SIGTERM)
        give_up = time.monotonic() + timeout_s
        codes: dict[int, int | None] = {}
        for shard in self._shards:
            process = shard.process
            if process is None:
                codes[shard.shard_id] = shard.exit_code
                continue
            process.join(timeout=max(0.0, give_up - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            shard.exit_code = process.exitcode
            codes[shard.shard_id] = process.exitcode
        for sock in (self._placeholder, self._listen_sock):
            if sock is not None:
                sock.close()
        self._placeholder = self._listen_sock = None
        return codes

    # -- hot reload ------------------------------------------------------------

    def poll_store(self) -> bool:
        """One watch tick: re-hash the manifest, ``SIGHUP`` on change.

        Returns ``True`` when a reload was signalled.  A missing or
        unreadable manifest (mid-publish, or damage) is counted in
        :attr:`poll_failures` and skipped — the shards keep serving
        their current weights.
        """
        try:
            digest = manifest_digest(self.store_path)
        except CorruptInputError:
            self.poll_failures += 1
            return False
        if digest == self._store_digest:
            return False
        self._store_digest = digest
        self.signal_reload()
        return True

    def signal_reload(self) -> None:
        """Fan ``SIGHUP`` to every live shard (validate + warm-swap)."""
        self.reload_signals += 1
        for shard in self._shards:
            process = shard.process
            if process is not None and process.is_alive():
                assert process.pid is not None
                os.kill(process.pid, signal.SIGHUP)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict[str, object]:
        return {
            "shards": self.n_shards,
            "mode": "reuse_port" if self.reuse_port else "inherited_socket",
            "port": self._port,
            "pids": self.pids,
            "restarts": {shard.shard_id: shard.restarts
                         for shard in self._shards},
            "exit_codes": {shard.shard_id: shard.exit_code
                           for shard in self._shards},
            "reload_signals": self.reload_signals,
            "poll_failures": self.poll_failures,
        }

    def run_forever(self, poll_interval_s: float = 1.0) -> None:
        """Supervise until interrupted: reap dead shards, watch the
        store.  ``KeyboardInterrupt``/``SystemExit`` triggers
        :meth:`terminate`."""
        try:
            while True:
                time.sleep(poll_interval_s)
                self.reap_and_restart()
                self.poll_store()
        finally:
            self.terminate()
