"""The multi-process shard fleet: one port, N workers, hot reload.

Real processes (``spawn``), real sockets, the real supervisor — these
are the small-scale versions of what ``scripts/serve_drill.py`` and
``scripts/bench_serve.py --soak`` run at storm scale: kernel- or
socket-level connection distribution, shard crash + restart, SIGTERM
drain fan-out with explicit ``shed`` responses, and manifest-watch hot
reload that is all-or-nothing under corruption.
"""

import json
import logging
import os
import signal
import socket as socketlib
import threading
import time

import numpy as np
import pytest

from repro.config import TABLE1_PARAMETERS
from repro.model.predictor import ConfigurationPredictor
from repro.model.serialize import load_weight_store, save_weight_store
from repro.serving import PredictResponse, frontend
from repro.serving.frontend import (
    ShardSupervisor,
    default_shard_count,
    reuse_port_supported,
)

FEATURE_DIM = 8


def make_predictor(seed: int) -> ConfigurationPredictor:
    rng = np.random.default_rng(seed)
    weights = {p.name: rng.normal(size=(FEATURE_DIM, len(p.values)))
               for p in TABLE1_PARAMETERS}
    return ConfigurationPredictor.from_weights(weights)


@pytest.fixture()
def store(tmp_path):
    path = tmp_path / "weights"
    save_weight_store(make_predictor(1234), path)
    return path


@pytest.fixture()
def features():
    rng = np.random.default_rng(99)
    return rng.normal(size=(6, FEATURE_DIM))


def offline_configs(store_path, matrix):
    return load_weight_store(store_path).quantized().predict_batch(
        np.asarray(matrix))


class LineClient:
    """A blocking NDJSON client (the tests run sync in the parent)."""

    def __init__(self, port: int, timeout_s: float = 15.0) -> None:
        self.sock = socketlib.create_connection(
            ("127.0.0.1", port), timeout=timeout_s)
        self.file = self.sock.makefile("rwb")

    def send(self, payload: dict) -> None:
        self.file.write(json.dumps(payload).encode() + b"\n")
        self.file.flush()

    def read(self) -> PredictResponse:
        line = self.file.readline()
        assert line, "connection closed mid-read"
        return PredictResponse.decode(line)

    def request(self, payload: dict) -> PredictResponse:
        self.send(payload)
        return self.read()

    def close(self) -> None:
        try:
            self.file.close()
            self.sock.close()
        except OSError:
            pass


def start_fleet(store_path, shards=2, **kwargs):
    kwargs.setdefault("ready_timeout_s", 60.0)
    kwargs.setdefault("engine_budget_s", 0.5)
    supervisor = ShardSupervisor(store_path, shards=shards, **kwargs)
    supervisor.start()
    return supervisor


def assert_served_matches_offline(supervisor, store_path, features,
                                  connections=3, per_connection=4):
    expected = offline_configs(store_path, features)
    clients = [LineClient(supervisor.port) for _ in range(connections)]
    try:
        for c, client in enumerate(clients):
            for n in range(per_connection):
                row = features[(c + n) % len(features)]
                response = client.request({
                    "id": f"c{c}-r{n}",
                    "features": list(row),
                    "deadline_ms": 10_000.0,
                })
                assert response.status == "ok"
                assert response.tier == "quantized"
                assert (response.microarch_config()
                        == expected[(c + n) % len(features)])
    finally:
        for client in clients:
            client.close()


class TestFleetTopology:
    @pytest.mark.skipif(not reuse_port_supported(),
                        reason="SO_REUSEPORT unavailable")
    def test_reuse_port_fleet_serves_bit_identical_and_drains(
            self, store, features):
        supervisor = start_fleet(store, shards=2, reuse_port=True)
        try:
            assert supervisor.stats()["mode"] == "reuse_port"
            assert len(supervisor.pids) == 2
            assert_served_matches_offline(supervisor, store, features)
        finally:
            codes = supervisor.terminate()
        assert codes == {0: 0, 1: 0}

    def test_inherited_socket_fleet_serves_bit_identical(
            self, store, features):
        supervisor = start_fleet(store, shards=2, reuse_port=False)
        try:
            assert supervisor.stats()["mode"] == "inherited_socket"
            assert_served_matches_offline(supervisor, store, features)
        finally:
            codes = supervisor.terminate()
        assert codes == {0: 0, 1: 0}

    def test_default_shard_count_reads_env(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "4")
        assert default_shard_count() == 4
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "garbage")
        assert default_shard_count() == 1
        monkeypatch.delenv("REPRO_SERVE_SHARDS")
        assert default_shard_count() == 1

    def test_default_shard_count_caps_at_usable_cpus(
            self, monkeypatch, caplog, store):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "7")
        frontend._log_cap.cache_clear()
        with caplog.at_level(logging.WARNING, logger=frontend.__name__):
            assert default_shard_count() == 2
            assert default_shard_count() == 2
        assert [r.getMessage() for r in caplog.records] == [
            "REPRO_SERVE_SHARDS=7 exceeds the 2 usable CPUs: "
            "running 2 shards"]
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "2")
        assert default_shard_count() == 2
        # Without an affinity API the CPU count is the cap.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "7")
        assert default_shard_count() == 3
        # An explicit fleet size still overcommits.
        assert ShardSupervisor(store, shards=5).n_shards == 5
        assert ShardSupervisor(store).n_shards == 3


class TestSupervision:
    def test_killed_shard_is_restarted_and_fleet_keeps_serving(
            self, store, features):
        supervisor = start_fleet(store, shards=2)
        try:
            victim = supervisor.pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            restarted: list[int] = []
            while time.monotonic() < deadline and not restarted:
                restarted = supervisor.reap_and_restart()
                if not restarted:
                    time.sleep(0.05)
            assert restarted == [0]
            assert supervisor.stats()["restarts"] == {0: 1, 1: 0}
            assert victim not in supervisor.pids
            # The fleet (including the replacement) still answers.
            assert_served_matches_offline(supervisor, store, features)
        finally:
            codes = supervisor.terminate()
        assert codes == {0: 0, 1: 0}

    def test_sigterm_fans_out_drains_and_sheds_late_frames(
            self, store, features):
        supervisor = start_fleet(store, shards=2, drain_grace_s=5.0)
        clients = [LineClient(supervisor.port) for _ in range(3)]
        codes: dict[int, int | None] = {}
        try:
            # Establish every connection with one answered request.
            for c, client in enumerate(clients):
                response = client.request({
                    "id": f"warm-{c}", "features": list(features[0])})
                assert response.status == "ok"
            terminator = threading.Thread(
                target=lambda: codes.update(supervisor.terminate()))
            terminator.start()
            time.sleep(0.5)  # SIGTERM delivered; drain grace still open
            # Frames racing the drain get an explicit shed, not a reset.
            for c, client in enumerate(clients):
                response = client.request({
                    "id": f"late-{c}", "features": list(features[0])})
                assert response.status == "shed"
                assert "draining" in (response.reason or "")
        finally:
            for client in clients:
                client.close()
            if "terminator" in locals():
                terminator.join(timeout=30.0)
            else:
                codes.update(supervisor.terminate())
        assert codes == {0: 0, 1: 0}


class TestHotReload:
    def wait_for_swap(self, client, store_path, features, timeout_s=20.0):
        expected = offline_configs(store_path, features)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            got = [client.request({"id": f"p{n}", "features": list(row),
                                   "deadline_ms": 10_000.0})
                   for n, row in enumerate(features)]
            assert all(r.status == "ok" for r in got)
            if [r.microarch_config() for r in got] == expected:
                return
            time.sleep(0.05)
        raise AssertionError("shard never swapped to the new weights")

    def test_poll_store_triggers_warm_swap_to_new_weights(
            self, store, features):
        supervisor = start_fleet(store, shards=1)
        client = None
        try:
            client = LineClient(supervisor.port)
            before = offline_configs(store, features)
            response = client.request({
                "id": "a", "features": list(features[0]),
                "deadline_ms": 10_000.0})
            assert response.microarch_config() == before[0]
            assert supervisor.poll_store() is False  # unchanged store

            save_weight_store(make_predictor(999), store)
            after = offline_configs(store, features)
            assert after != before  # the reload must be observable
            assert supervisor.poll_store() is True
            self.wait_for_swap(client, store, features)
            assert supervisor.poll_store() is False  # digest caught up
        finally:
            if client is not None:
                client.close()
            codes = supervisor.terminate()
        assert codes == {0: 0}

    def test_corrupt_republish_never_partially_swaps(self, store, features):
        supervisor = start_fleet(store, shards=1)
        client = None
        try:
            client = LineClient(supervisor.port)
            before = offline_configs(store, features)
            # Arm the engine on the healthy store first.
            warm = client.request({"id": "warm", "features":
                                   list(features[0]),
                                   "deadline_ms": 10_000.0})
            assert warm.microarch_config() == before[0]
            # Damage one array *and* republish a manifest change: the
            # shard must validate the whole store before touching any
            # rung, fail on the checksum, and keep the old weights.
            victims = sorted(store.glob("float_*.npy"))
            victims[0].write_bytes(b"\x93NUMPYgarbage")
            (store / "manifest.json").write_text(
                (store / "manifest.json").read_text() + "\n",
                encoding="utf-8")
            assert supervisor.poll_store() is True  # digest moved
            time.sleep(1.0)  # give the shard time to attempt the reload
            got = [client.request({"id": f"k{n}", "features": list(row),
                                   "deadline_ms": 10_000.0})
                   for n, row in enumerate(features)]
            assert all(r.status == "ok" for r in got)
            assert [r.microarch_config() for r in got] == before
        finally:
            if client is not None:
                client.close()
            codes = supervisor.terminate()
        assert codes == {0: 0}

    def test_missing_manifest_counts_poll_failure(self, store):
        supervisor = start_fleet(store, shards=1)
        try:
            (store / "manifest.json").unlink()
            assert supervisor.poll_store() is False
            assert supervisor.poll_failures == 1
        finally:
            codes = supervisor.terminate()
        assert codes == {0: 0}
