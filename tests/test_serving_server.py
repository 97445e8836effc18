"""End-to-end tests of the asyncio prediction server.

Real sockets on loopback, real event loop, deterministic faults from
``REPRO_FAULTS`` — the same machinery ``scripts/serve_drill.py``
exercises at larger scale.
"""

import asyncio
import json
import socket

import numpy as np
import pytest

from repro.config import PROFILING_CONFIG, TABLE1_PARAMETERS
from repro.model.predictor import ConfigurationPredictor
from repro.model.serialize import save_weight_store
from repro.serving import (
    MicroBatchPolicy,
    PredictionServer,
    PredictResponse,
    build_service,
)

FEATURE_DIM = 8


@pytest.fixture(scope="module")
def offline_predictor():
    rng = np.random.default_rng(1234)
    weights = {p.name: rng.normal(size=(FEATURE_DIM, len(p.values)))
               for p in TABLE1_PARAMETERS}
    return ConfigurationPredictor.from_weights(weights)


@pytest.fixture(scope="module")
def store_path(offline_predictor, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "weights"
    save_weight_store(offline_predictor, path)
    return path


@pytest.fixture
def features():
    rng = np.random.default_rng(99)
    return rng.normal(size=(6, FEATURE_DIM))


STATIC_TABLE = {"mcf": PROFILING_CONFIG.with_value("width", 2)}


def service(store_path, **kwargs):
    kwargs.setdefault("engine_budget_s", 0.25)
    kwargs.setdefault("static_table", STATIC_TABLE)
    return build_service(store_path, **kwargs)


async def send_frames(port, payloads, *, expect=None):
    """One connection, many frames; returns decoded responses."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for payload in payloads:
        line = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode() + b"\n")
        writer.write(line)
    await writer.drain()
    responses = []
    for _ in range(len(payloads) if expect is None else expect):
        line = await asyncio.wait_for(reader.readline(), timeout=5.0)
        if not line:
            break
        responses.append(PredictResponse.decode(line))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return responses


class TestHappyPath:
    def test_quantized_tier_bit_identical_to_offline_batch(
            self, store_path, features):
        async def scenario():
            server = service(store_path)
            await server.start()
            payloads = [{"id": f"r{n}", "features": list(row),
                         "deadline_ms": 5000.0}
                        for n, row in enumerate(features)]
            responses = await send_frames(server.port, payloads)
            await server.drain()
            return server, responses

        server, responses = asyncio.run(scenario())
        assert all(r.status == "ok" for r in responses)
        assert all(r.tier == "quantized" for r in responses)
        # The served answers must be bit-identical to the offline int8
        # batch path over the same feature matrix.
        offline = server.ladder.model_engines[0]._loader().predict_batch(
            np.asarray(features))
        by_id = {r.id: r.microarch_config() for r in responses}
        for n, expected in enumerate(offline):
            assert by_id[f"r{n}"] == expected
        assert server.stats()["deadline_misses"] == 0

    def test_requests_without_deadline_or_program(self, store_path, features):
        async def scenario():
            server = service(store_path)
            await server.start()
            responses = await send_frames(
                server.port, [{"id": "x", "features": list(features[0])}])
            await server.drain()
            return responses

        (response,) = asyncio.run(scenario())
        assert response.status == "ok"
        assert response.tier == "quantized"


class TestWorkConservingBatches:
    def test_lone_requests_are_answered_without_waiting(
            self, store_path, features):
        async def scenario():
            server = build_service(store_path)  # stock settings
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            loop = asyncio.get_running_loop()
            started = loop.time()
            responses = []
            for n in range(20):  # each request waits for the last answer
                writer.write(json.dumps(
                    {"id": f"r{n}", "features": list(features[n % 6])}
                ).encode() + b"\n")
                responses.append(PredictResponse.decode(
                    await asyncio.wait_for(reader.readline(), timeout=5.0)))
            elapsed = loop.time() - started
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return server, responses, elapsed

        server, responses, elapsed = asyncio.run(scenario())
        assert [r.status for r in responses] == ["ok"] * 20
        assert server.stats()["batches"] == 20
        # An age window of even 10 ms per batch would need 200 ms.
        assert elapsed < 0.1

    def test_requests_queued_behind_a_batch_form_the_next_batch(
            self, store_path, features, tmp_path, monkeypatch):
        # The first batch sleeps in the engine while more frames arrive.
        monkeypatch.setenv("REPRO_FAULTS", "slow@serve-engine:quantized/1")
        monkeypatch.setenv("REPRO_FAULT_SLOW_SECONDS", "0.2")
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "faults"))

        async def scenario():
            server = service(store_path, max_batch_size=4)
            batches = []
            answer_batch = server._answer_batch

            async def recording(pending):
                batches.append([item.request.id for item in pending])
                await answer_batch(pending)

            server._answer_batch = recording
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)

            def send(request_id: str) -> None:
                writer.write(json.dumps(
                    {"id": request_id, "features": list(features[0])}
                ).encode() + b"\n")

            send("r0")
            while not batches:
                await asyncio.sleep(0.001)
            for n in range(1, 11):
                send(f"r{n}")
            responses = [PredictResponse.decode(await asyncio.wait_for(
                reader.readline(), timeout=5.0)) for _ in range(11)]
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return batches, responses

        batches, responses = asyncio.run(scenario())
        assert batches == [["r0"], ["r1", "r2", "r3", "r4"],
                           ["r5", "r6", "r7", "r8"], ["r9", "r10"]]
        assert all(r.status == "ok" for r in responses)


class TestSinglePass:
    def test_lone_requests_create_no_task(self, store_path, features):
        async def scenario():
            created = []

            def counting_factory(loop, coro, **kwargs):
                created.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            asyncio.get_running_loop().set_task_factory(counting_factory)
            server = build_service(store_path)  # stock settings
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)

            async def ask(n: int) -> PredictResponse:
                writer.write(json.dumps(
                    {"id": f"r{n}", "features": list(features[n % 6])}
                ).encode() + b"\n")
                return PredictResponse.decode(await reader.readline())

            await ask(0)  # arms the engine
            before = len(created)
            responses = [await ask(n) for n in range(1, 21)]
            per_request = created[before:]
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return server, responses, per_request

        server, responses, per_request = asyncio.run(
            asyncio.wait_for(scenario(), timeout=30.0))
        assert [r.status for r in responses] == ["ok"] * 20
        assert server.stats()["batches"] == 21  # every request alone
        # Frames are read in a protocol callback and each batch is
        # answered inline: no Task per request or per batch.
        assert per_request == []


class TestMalformedFrames:
    def test_malformed_frame_answers_error_and_keeps_connection(
            self, store_path, features):
        async def scenario():
            server = service(store_path)
            await server.start()
            responses = await send_frames(server.port, [
                b"this is not json\n",
                {"id": "ok-after", "features": list(features[0])},
            ])
            await server.drain()
            return server, responses

        server, (error, ok) = asyncio.run(scenario())
        assert error.status == "error"
        assert ok.status == "ok" and ok.id == "ok-after"
        assert server.stats()["malformed"] == 1

    def test_integer_too_large_for_a_float_answers_error(
            self, store_path, features):
        huge = "1" + "0" * 400
        # Past the int/str digit limit (4300 by default), where json.loads
        # itself raises ValueError.
        longer = "1" + "0" * 5000

        async def scenario():
            server = service(store_path)
            await server.start()
            responses = await send_frames(server.port, [
                f'{{"id": "huge", "features": [{huge}]}}\n'.encode(),
                f'{{"id": "late", "features": [1.0], "deadline_ms": {huge}}}'
                '\n'.encode(),
                f'{{"id": "long", "features": [{longer}]}}\n'.encode(),
                {"id": "ok-after", "features": list(features[0])},
            ])
            await server.drain()
            return responses

        huge_feature, huge_deadline, long_feature, ok = asyncio.run(
            scenario())
        assert (huge_feature.status, huge_feature.id) == ("error", "huge")
        assert huge_feature.reason == "'features' must be finite"
        assert (huge_deadline.status, huge_deadline.id) == ("error", "late")
        assert huge_deadline.reason == (
            "'deadline_ms' must be a positive number")
        assert long_feature.status == "error"
        assert ok.status == "ok" and ok.id == "ok-after"

    def test_too_deeply_nested_frame_answers_error_and_keeps_connection(
            self, store_path, features):
        # Nested past the recursion limit but inside the frame size cap,
        # so json.loads raises RecursionError rather than ValueError.
        deep = b'{"id": "deep", "features": ' + b"[" * 60_000 + b"\n"

        async def scenario():
            server = service(store_path)
            await server.start()
            responses = await send_frames(server.port, [
                deep,
                {"id": "ok-after", "features": list(features[0])},
            ])
            await server.drain()
            return server, responses

        server, responses = asyncio.run(scenario())
        assert [r.status for r in responses] == ["error", "ok"]
        assert responses[0].reason.startswith("invalid JSON")
        assert responses[1].id == "ok-after"
        assert server.stats()["malformed"] == 1

    def test_oversized_frame_answers_error_then_closes(self, store_path):
        async def scenario():
            server = service(store_path)
            await server.start()
            huge = b'{"id": "big", "pad": "' + b"x" * (80 * 1024) + b'"}\n'
            responses = await send_frames(server.port, [huge], expect=1)
            await server.drain()
            return responses

        (response,) = asyncio.run(scenario())
        assert response.status == "error"
        assert "exceeds" in response.reason


class TestDeadlines:
    def test_hopeless_deadline_answered_early_from_static_tier(
            self, store_path, features):
        async def scenario():
            server = service(store_path)
            await server.start()
            # 20ms deadline < 250ms engine budget: can never afford the
            # model, must get an immediate degraded answer.
            responses = await send_frames(server.port, [
                {"id": "tight", "features": list(features[0]),
                 "deadline_ms": 20.0, "program": "mcf"}])
            await server.drain()
            return server, responses

        server, (response,) = asyncio.run(scenario())
        assert response.status == "ok"
        assert response.tier == "static"
        assert response.microarch_config() == STATIC_TABLE["mcf"]
        assert server.stats()["deadline_misses"] == 0

    def test_unknown_program_gets_static_default(self, store_path, features):
        async def scenario():
            server = service(store_path)
            await server.start()
            responses = await send_frames(server.port, [
                {"id": "t", "features": list(features[0]),
                 "deadline_ms": 20.0, "program": "not-in-table"}])
            await server.drain()
            return responses

        (response,) = asyncio.run(scenario())
        assert response.tier == "static"
        assert response.microarch_config() == PROFILING_CONFIG


class TestFaultInjection:
    def test_engine_crash_degrades_then_warm_restarts(
            self, store_path, features, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@serve-engine:quantized/1")
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "faults"))

        async def scenario():
            server = service(store_path)
            await server.start()
            first = await send_frames(
                server.port, [{"id": "a", "features": list(features[0])}])
            second = await send_frames(
                server.port, [{"id": "b", "features": list(features[1])}])
            await server.drain()
            return server, first[0], second[0]

        server, first, second = asyncio.run(scenario())
        # Crash batch: answered by the float rung, one tier down.
        assert first.status == "ok" and first.tier == "float"
        # Next batch: supervisor warm-reloaded the quantized engine.
        assert second.status == "ok" and second.tier == "quantized"
        stats = server.stats()
        assert stats["engine_restarts"] == 1
        assert stats["breaker_state"] == "closed"

    def test_repeated_crashes_trip_breaker_to_fallback(
            self, store_path, features, tmp_path, monkeypatch):
        # "**inf": match-all pattern "*", unlimited firing count.
        monkeypatch.setenv("REPRO_FAULTS", "crash@serve-engine:**inf")
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "faults"))

        async def scenario():
            server = service(store_path, failure_threshold=2,
                             cooldown_s=30.0)
            await server.start()
            responses = []
            for n in range(4):
                responses.extend(await send_frames(
                    server.port,
                    [{"id": f"r{n}", "features": list(features[n]),
                      "program": "mcf"}]))
            await server.drain()
            return server, responses

        server, responses = asyncio.run(scenario())
        assert all(r.status == "ok" for r in responses)
        # Once the breaker is open the model tiers are skipped and the
        # static table answers instantly.
        assert responses[-1].tier == "static"
        stats = server.stats()
        assert stats["breaker_trips"] >= 1
        assert stats["breaker_state"] == "open"

    def test_engine_hang_is_bounded_by_engine_budget(
            self, store_path, features, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@serve-engine:quantized/1")
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "faults"))

        async def scenario():
            server = service(store_path, engine_budget_s=0.05)
            await server.start()
            started = asyncio.get_running_loop().time()
            responses = await send_frames(
                server.port, [{"id": "h", "features": list(features[0]),
                               "program": "mcf"}])
            elapsed = asyncio.get_running_loop().time() - started
            await server.drain()
            return responses, elapsed

        (response,), elapsed = asyncio.run(scenario())
        assert response.status == "ok"
        assert response.tier in ("float", "static")
        assert elapsed < 2.0  # nowhere near REPRO_FAULT_HANG_SECONDS

    def test_connection_drop_mid_request(self, store_path, features,
                                         tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "drop@serve-conn:victim")
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "faults"))

        async def scenario():
            server = service(store_path)
            await server.start()
            dropped = await send_frames(
                server.port, [{"id": "victim",
                               "features": list(features[0])}], expect=1)
            survivor = await send_frames(
                server.port, [{"id": "fine", "features": list(features[1])}])
            await server.drain()
            return server, dropped, survivor

        server, dropped, survivor = asyncio.run(scenario())
        assert dropped == []  # reset before any response bytes
        assert survivor[0].status == "ok"
        assert server.stats()["conn_drops"] == 1


class TestBackpressure:
    def test_queue_full_sheds_with_explicit_response(
            self, store_path, features, tmp_path, monkeypatch):
        # Wedge the engine so the admission queue can actually fill.
        monkeypatch.setenv("REPRO_FAULTS", "hang@serve-engine:**inf")
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "faults"))

        async def scenario():
            server = service(store_path, engine_budget_s=0.6,
                             queue_limit=1)
            await server.start()
            payloads = [{"id": f"r{n}", "features": list(features[n]),
                         "program": "mcf"} for n in range(4)]
            responses = await send_frames(server.port, payloads)
            await server.drain()
            return server, responses

        server, responses = asyncio.run(scenario())
        by_status = {}
        for response in responses:
            by_status.setdefault(response.status, []).append(response)
        assert by_status.get("shed"), "expected at least one shed response"
        shed = by_status["shed"][0]
        assert "queue full" in shed.reason
        # Everyone else still got an answer (degraded, but on time).
        assert len(by_status.get("ok", [])) + len(by_status["shed"]) == 4
        assert server.stats()["shed"] >= 1


class TestAdmission:
    def test_shed_request_is_never_admitted(
            self, store_path, features, tmp_path, monkeypatch):
        # Wedge the engine so the one-deep queue stays full.
        monkeypatch.setenv("REPRO_FAULTS", "hang@serve-engine:**inf")
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "faults"))

        class SpyPolicy(MicroBatchPolicy):
            def __init__(self, **kwargs) -> None:
                super().__init__(**kwargs)
                self.admitted = []

            def admit(self, request, context=None):
                self.admitted.append(request.id)
                return super().admit(request, context)

        async def scenario():
            ladder = service(store_path, engine_budget_s=0.3).ladder
            policy = SpyPolicy(engine_budget_s=0.3)
            server = PredictionServer(ladder, policy=policy, queue_limit=1)
            await server.start()
            responses = await send_frames(server.port, [
                {"id": f"r{n}", "features": list(features[n]),
                 "program": "mcf"} for n in range(4)])
            await server.drain()
            return policy.admitted, responses

        admitted, responses = asyncio.run(scenario())
        shed = {r.id for r in responses if r.status == "shed"}
        assert shed, "expected the full queue to shed"
        assert shed.isdisjoint(admitted)
        assert {r.id for r in responses if r.status == "ok"} == set(admitted)


class TestSlowReader:
    def test_client_that_stops_reading_stalls_only_itself(
            self, store_path, features):
        budget_s = 0.25

        async def scenario():
            loop = asyncio.get_running_loop()
            server = service(store_path, engine_budget_s=budget_s)
            await server.start()
            # Accepted sockets inherit the listener's send buffer, so the
            # stalled client's answers back up after a few dozen frames.
            server._server.sockets[0].setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            sock.setblocking(False)
            await loop.sock_connect(sock, ("127.0.0.1", server.port))
            _, stalled = await asyncio.open_connection(sock=sock)
            stalled.write(b"".join(json.dumps(
                {"id": f"a{n}", "features": list(features[n % 6])}
            ).encode() + b"\n" for n in range(3000)))  # and never read
            seen = -1
            while server.stats()["requests"] != seen:
                seen = server.stats()["requests"]
                await asyncio.sleep(0.1)

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            ok_before = server.stats()["ok"]
            responses, waits = [], []
            for n in range(20):
                started = loop.time()
                writer.write(json.dumps(
                    {"id": f"b{n}", "features": list(features[n % 6])}
                ).encode() + b"\n")
                responses.append(PredictResponse.decode(
                    await asyncio.wait_for(reader.readline(), timeout=5.0)))
                waits.append(loop.time() - started)
            ok_after = server.stats()["ok"]
            stalled.transport.abort()
            writer.close()
            await writer.wait_closed()
            await asyncio.wait_for(server.drain(), timeout=5.0)
            return responses, waits, ok_before, ok_after

        responses, waits, ok_before, ok_after = asyncio.run(scenario())
        assert [r.status for r in responses] == ["ok"] * 20
        assert max(waits) < budget_s
        assert ok_after >= ok_before + 20


class TestDrain:
    def test_drain_sheds_new_frames_but_keeps_connections(
            self, store_path, features):
        async def scenario():
            server = service(store_path)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            await server.drain()
            writer.write(json.dumps(
                {"id": "late", "features": list(features[0])}
            ).encode() + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            writer.close()
            await writer.wait_closed()
            return PredictResponse.decode(line)

        response = asyncio.run(scenario())
        assert response.status == "shed"
        assert "draining" in response.reason

    def test_drain_is_idempotent(self, store_path):
        async def scenario():
            server = service(store_path)
            await server.start()
            await server.drain()
            await server.drain()

        asyncio.run(scenario())
