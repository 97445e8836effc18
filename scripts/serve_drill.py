"""Chaos drill for the online prediction service.

Boots the full serving stack (weight store trained on the quick
workload suite, quantized→float→static→baseline ladder) against a real
loopback socket and drives it through a scripted storm: an engine
crash, an engine hang, injected slow batches, malformed and oversized
frames, a connection dropped mid-request, and finally a SIGTERM drain —
all injected deterministically through ``repro.testing.faults``.

After the single-process storm it re-runs the stack as a **multi-process
shard fleet** (:class:`~repro.serving.frontend.ShardSupervisor`, two
shards on one port) and drills the failure modes only a fleet has: a
shard SIGKILLed mid-storm (the supervisor must restart it while the
other shard keeps answering), and a hot weight reload under steady load
(every shard warm-swaps to the republished store with zero dropped or
late in-flight requests, bit-identical to the offline quantized
pipeline before and after the swap).

Gates (exit non-zero on any failure):

* **availability** — every request that was not deliberately dropped
  gets exactly one response (``ok`` or an explicit ``shed``);
* **deadlines** — zero responses sent after their deadline: degraded
  answers arrive early, never late;
* **tier tagging** — every ``ok`` response carries a valid ladder tier
  and a full 14-parameter configuration, and the storm produces at
  least one answer from every degraded rung it targets;
* **bit-identity** — before and after the storm, top-tier answers are
  bit-identical to the offline ``QuantizedPredictor.predict_batch``
  output for the same feature vectors (the serving path adds
  resilience, not numerics);
* **recovery** — after the faults clear, the supervisor has
  warm-restarted the engine and service returns to the top tier.

Run with a hard job timeout: a hung degradation path should fail CI
fast, not stall it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from _serve_common import ServingFixture, build_fixture  # noqa: E402

from repro import obs  # noqa: E402
from repro.config import MicroarchConfig  # noqa: E402
from repro.model import ConfigurationPredictor, save_weight_store  # noqa: E402
from repro.model.serialize import load_weight_store  # noqa: E402
from repro.serving import MAX_FRAME_BYTES, PredictResponse  # noqa: E402
from repro.serving.frontend import ShardSupervisor  # noqa: E402

DEADLINE_MS = 5000.0
ENGINE_BUDGET_S = 0.2
FLEET_SHARDS = 2
STORM_WINDOW = 16

failures: list[str] = []


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"[serve-drill] {status:>4}  {label}", flush=True)
    if not condition:
        failures.append(label)


class Client:
    """A drill client: one connection, responses matched by id."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> "Client":
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)
        return self

    async def __aexit__(self, *_exc) -> None:
        if self.writer is not None and not self.writer.is_closing():
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def send_raw(self, line: bytes) -> None:
        assert self.writer is not None
        self.writer.write(line)
        await self.writer.drain()

    async def request(self, request_id: str, features, program: str,
                      deadline_ms: float = DEADLINE_MS) -> None:
        await self.send_raw(json.dumps({
            "id": request_id, "features": list(features),
            "deadline_ms": deadline_ms, "program": program,
        }).encode() + b"\n")

    async def read_response(self, timeout: float = 5.0
                            ) -> PredictResponse | None:
        """The next response frame; ``None`` on EOF/reset (a drop)."""
        assert self.reader is not None
        try:
            line = await asyncio.wait_for(self.reader.readline(), timeout)
        except (ConnectionError, OSError):
            return None
        if not line:
            return None
        return PredictResponse.decode(line)


async def ask(port: int, request_id: str, replay, **kwargs
              ) -> PredictResponse | None:
    async with Client(port) as client:
        await client.request(request_id, replay.features, replay.program,
                             **kwargs)
        return await client.read_response()


async def replay_burst(port: int, fixture: ServingFixture, tag: str,
                       repeats: int) -> dict[str, PredictResponse | None]:
    """Replay the whole suite ``repeats`` times over parallel
    connections; responses keyed by request id."""

    async def one_connection(lane: int) -> dict[str, PredictResponse | None]:
        got: dict[str, PredictResponse | None] = {}
        async with Client(port) as client:
            ids = []
            for n, item in enumerate(fixture.replay):
                request_id = f"{tag}/{lane}/{item.program}/{item.phase_id}/{n}"
                ids.append(request_id)
                await client.request(request_id, item.features, item.program)
            for request_id in ids:
                response = await client.read_response()
                if response is None:
                    got[request_id] = None
                    break
                got[str(response.id)] = response
        return got

    lanes = await asyncio.gather(*(one_connection(lane)
                                   for lane in range(repeats)))
    merged: dict[str, PredictResponse | None] = {}
    for lane in lanes:
        merged.update(lane)
    return merged


def expected_by_id(fixture: ServingFixture, responses) -> int:
    """Count responses whose config equals the offline quantized answer."""
    offline = {(item.program, item.phase_id): item.offline
               for item in fixture.replay}
    matches = 0
    for request_id, response in responses.items():
        _, _, program, phase_id, _ = request_id.split("/")
        if (response is not None and response.status == "ok"
                and response.microarch_config()
                == offline[(program, int(phase_id))]):
            matches += 1
    return matches


def offline_quantized(fixture: ServingFixture
                      ) -> dict[tuple[str, int], MicroarchConfig]:
    """The offline quantized answers for the store as it is *now* on
    disk (the fixture's cached answers go stale after a hot reload)."""
    matrix = np.stack([item.features for item in fixture.replay])
    answers = load_weight_store(
        fixture.store_path).quantized().predict_batch(matrix)
    return {(item.program, item.phase_id): config
            for item, config in zip(fixture.replay, answers)}


def matches_offline(offline: dict[tuple[str, int], MicroarchConfig],
                    responses) -> int:
    """Count ok responses bit-identical to the given offline answers."""
    matches = 0
    for request_id, response in responses.items():
        _, _, program, phase_id, _ = request_id.split("/")
        if (response is not None and response.status == "ok"
                and response.microarch_config()
                == offline[(program, int(phase_id))]):
            matches += 1
    return matches


async def fleet_storm(port: int, fixture: ServingFixture, tag: str,
                      lanes: int, repeats: int) -> list[dict]:
    """A sustained pipelined storm; per-lane results so a lane whose
    shard was killed (reset connection) is distinguishable from the
    survivors."""

    async def one_lane(lane: int) -> dict:
        got: dict[str, PredictResponse | None] = {}
        ids: list[str] = []
        dropped = False
        pending: list[str] = []
        try:
            async with Client(port) as client:
                for repeat in range(repeats):
                    for n, item in enumerate(fixture.replay):
                        request_id = (f"{tag}/{lane}/{item.program}/"
                                      f"{item.phase_id}/"
                                      f"{repeat * len(fixture.replay) + n}")
                        ids.append(request_id)
                        await client.request(request_id, item.features,
                                             item.program)
                        pending.append(request_id)
                        if len(pending) >= STORM_WINDOW:
                            response = await client.read_response(
                                timeout=10.0)
                            if response is None:
                                dropped = True
                                return {"responses": got, "dropped": True,
                                        "sent": len(ids)}
                            got[str(response.id)] = response
                            pending.pop(0)
                while pending:
                    response = await client.read_response(timeout=10.0)
                    if response is None:
                        dropped = True
                        break
                    got[str(response.id)] = response
                    pending.pop(0)
        except (ConnectionError, OSError):
            dropped = True
        return {"responses": got, "dropped": dropped, "sent": len(ids)}

    return list(await asyncio.gather(*(one_lane(lane)
                                       for lane in range(lanes))))


async def fleet_drill(fixture: ServingFixture) -> None:
    """Phases 10-12: shard kill mid-storm, hot reload under load."""
    supervisor = ShardSupervisor(
        str(fixture.store_path), shards=FLEET_SHARDS,
        static_table=fixture.static_table, baseline=fixture.baseline,
        engine_budget_s=0.5, queue_limit=256,
        ready_timeout_s=120.0)
    await asyncio.to_thread(supervisor.start)
    port = supervisor.port
    codes: dict[int, int | None] = {}
    try:
        offline_before = offline_quantized(fixture)

        # -- phase 10: fleet clean serving -------------------------------------
        burst = await replay_burst(port, fixture, "fclean", repeats=3)
        total = len(fixture.replay) * 3
        check(len(burst) == total
              and all(r is not None for r in burst.values()),
              f"fleet: all {total} requests answered across "
              f"{FLEET_SHARDS} shards ({supervisor.stats()['mode']})")
        check(matches_offline(offline_before, burst) == total,
              "fleet: every shard bit-identical to the offline "
              "quantized path")

        # -- phase 11: shard SIGKILLed mid-storm -------------------------------
        victim = supervisor.pids[0]

        async def kill_and_reap() -> list[int]:
            await asyncio.sleep(0.2)  # land the kill mid-storm
            os.kill(victim, signal.SIGKILL)
            deadline = asyncio.get_running_loop().time() + 30.0
            while asyncio.get_running_loop().time() < deadline:
                restarted = await asyncio.to_thread(
                    supervisor.reap_and_restart)
                if restarted:
                    return restarted
                await asyncio.sleep(0.05)
            return []

        storm, restarted = await asyncio.gather(
            fleet_storm(port, fixture, "fkill", lanes=6, repeats=40),
            kill_and_reap())
        check(restarted == [0],
              "kill: supervisor reaped and restarted the dead shard")
        check(victim not in supervisor.pids
              and supervisor.stats()["restarts"][0] == 1,
              "kill: replacement shard runs under a new pid")
        survivors = [lane for lane in storm if not lane["dropped"]]
        check(len(survivors) >= 1,
              f"kill: {len(survivors)}/{len(storm)} lanes unaffected by "
              f"the dead shard")
        answered: dict[str, PredictResponse] = {}
        for lane in storm:
            answered.update({rid: r for rid, r
                             in lane["responses"].items() if r is not None})
        check(all(r.status in ("ok", "shed") for r in answered.values()),
              "kill: every answered frame is ok or an explicit shed")
        ok_answers = {rid: r for rid, r in answered.items()
                      if r.status == "ok"}
        check(len(ok_answers) > 0
              and matches_offline(offline_before, ok_answers)
              == len(ok_answers),
              "kill: every ok answer during the storm stayed "
              "bit-identical")
        after_kill = await replay_burst(port, fixture, "fpostkill",
                                        repeats=2)
        check(len(after_kill) == len(fixture.replay) * 2
              and matches_offline(offline_before, after_kill)
              == len(after_kill),
              "kill: full fleet service restored after the restart")

        # -- phase 12: hot weight reload under load ----------------------------
        stop = asyncio.Event()
        inflight: list[tuple[str, PredictResponse | None, float]] = []

        async def steady_load(lane: int) -> None:
            loop = asyncio.get_running_loop()
            async with Client(port) as client:
                n = 0
                while not stop.is_set():
                    item = fixture.replay[n % len(fixture.replay)]
                    request_id = (f"fhot/{lane}/{item.program}/"
                                  f"{item.phase_id}/{n}")
                    t0 = loop.time()
                    await client.request(request_id, item.features,
                                         item.program)
                    response = await client.read_response(timeout=10.0)
                    inflight.append((request_id, response,
                                     loop.time() - t0))
                    if response is None:
                        return
                    n += 1

        loaders = [asyncio.create_task(steady_load(lane))
                   for lane in range(3)]
        await asyncio.sleep(0.2)  # load established before the republish

        rng = np.random.default_rng(20260807)
        shapes = {name: matrix.shape for name, matrix
                  in load_weight_store(
                      fixture.store_path).float_weights.items()}
        new_predictor = ConfigurationPredictor.from_weights(
            {name: rng.normal(size=shape)
             for name, shape in shapes.items()})
        await asyncio.to_thread(save_weight_store, new_predictor,
                                fixture.store_path)
        offline_after = offline_quantized(fixture)
        check(offline_after != offline_before,
              "reload: republished store changes the offline answers")
        check(await asyncio.to_thread(supervisor.poll_store),
              "reload: supervisor saw the manifest digest move")

        swapped = False
        deadline = asyncio.get_running_loop().time() + 30.0
        while asyncio.get_running_loop().time() < deadline:
            probe = await replay_burst(port, fixture, "fswap", repeats=4)
            if (all(r is not None for r in probe.values())
                    and matches_offline(offline_after, probe)
                    == len(probe)):
                swapped = True
                break
            await asyncio.sleep(0.1)
        check(swapped,
              "reload: every shard warm-swapped, answers bit-identical "
              "to the new offline pipeline")
        stop.set()
        await asyncio.gather(*loaders)
        check(all(r is not None for _, r, _ in inflight),
              f"reload: zero dropped in-flight requests across the swap "
              f"({len(inflight)} under load)")
        check(all(r.status == "ok" for _, r, _ in inflight
                  if r is not None),
              "reload: every in-flight request answered ok during the "
              "swap")
        check(all(latency * 1e3 <= DEADLINE_MS for _, r, latency
                  in inflight if r is not None),
              "reload: zero late in-flight responses across the swap")

        def old_or_new(request_id: str, response: PredictResponse) -> bool:
            _, _, program, phase_id, _ = request_id.split("/")
            key = (program, int(phase_id))
            return response.microarch_config() in (offline_before[key],
                                                   offline_after[key])

        check(all(old_or_new(rid, r) for rid, r, _ in inflight
                  if r is not None),
              "reload: every mid-swap answer matches the offline "
              "pipeline, old weights or new")
    finally:
        codes = await asyncio.to_thread(supervisor.terminate)
    check(all(code == 0 for code in codes.values())
          and len(codes) == FLEET_SHARDS,
          f"fleet: every shard drained and exited 0 (codes={codes})")


async def drill(fixture: ServingFixture, fault_dir: Path) -> None:
    server = fixture.server(engine_budget_s=ENGINE_BUDGET_S, queue_limit=128,
                            failure_threshold=3, cooldown_s=0.2)
    await server.start()
    port = server.port
    valid_tiers = {"quantized", "float", "static", "baseline"}
    os.environ["REPRO_FAULTS_DIR"] = str(fault_dir)
    os.environ["REPRO_FAULT_HANG_SECONDS"] = "30"
    os.environ["REPRO_FAULT_SLOW_SECONDS"] = "0.02"

    # -- phase 1: clean service ------------------------------------------------
    clean = await replay_burst(port, fixture, "clean", repeats=3)
    total = len(fixture.replay) * 3
    check(len(clean) == total and all(r is not None for r in clean.values()),
          f"clean: all {total} requests answered")
    check(all(r.status == "ok" and r.tier == "quantized"
              for r in clean.values() if r is not None),
          "clean: every answer ok at the quantized top tier")
    check(expected_by_id(fixture, clean) == total,
          "clean: answers bit-identical to offline quantized batch path")
    check(server.stats()["deadline_misses"] == 0, "clean: no deadline misses")
    check(server.stats()["shed"] == 0, "clean: nothing shed")

    # -- phase 2: engine crash -> degraded answer + warm restart ---------------
    os.environ["REPRO_FAULTS"] = "crash@serve-engine:quantized/**1"
    crashed = await ask(port, "crash/0", fixture.replay[0])
    check(crashed is not None and crashed.status == "ok"
          and crashed.tier == "float",
          "crash: answered from the float rung, one tier down")
    recovered = await ask(port, "crash/1", fixture.replay[1])
    check(recovered is not None and recovered.tier == "quantized",
          "crash: next batch back on quantized after warm restart")
    check(server.stats()["engine_restarts"] >= 1,
          "crash: supervisor counted a warm engine restart")

    # -- phase 3: engine hang -> budgeted timeout -> fallback ------------------
    os.environ["REPRO_FAULTS"] = "hang@serve-engine:quantized/**1"
    hung = await ask(port, "hang/0", fixture.replay[0])
    check(hung is not None and hung.status == "ok"
          and hung.tier in ("float", "static"),
          f"hang: degraded answer within budget "
          f"(tier={getattr(hung, 'tier', None)})")
    check(server.stats()["deadline_misses"] == 0,
          "hang: bounded by the engine budget, no deadline miss")

    # -- phase 4: slow batches stay on tier but are visible --------------------
    os.environ["REPRO_FAULTS"] = "slow@serve-engine:quantized/**2"
    slow_responses = [await ask(port, f"slow/{n}", fixture.replay[n % 4])
                      for n in range(2)]
    check(all(r is not None and r.status == "ok" and r.tier == "quantized"
              for r in slow_responses),
          "slow: latency injection keeps answers on the top tier")

    # -- phase 5: malformed + oversized frames ---------------------------------
    os.environ.pop("REPRO_FAULTS", None)
    async with Client(port) as client:
        await client.send_raw(b"not json at all\n")
        bad = await client.read_response()
        check(bad is not None and bad.status == "error",
              "malformed: garbage frame answered with an error frame")
        await client.request("after-garbage", fixture.replay[0].features,
                             fixture.replay[0].program)
        after = await client.read_response()
        check(after is not None and after.status == "ok",
              "malformed: connection survives a garbage frame")
    async with Client(port) as client:
        await client.send_raw(b'{"id":"big","features":['
                              + b"1.0," * (MAX_FRAME_BYTES // 4) + b"1.0]}\n")
        oversized = await client.read_response()
        check(oversized is not None and oversized.status == "error",
              "malformed: oversized frame answered with an error frame")

    # -- phase 6: connection dropped mid-request -------------------------------
    os.environ["REPRO_FAULTS"] = "drop@serve-conn:victim*1"
    victim = await ask(port, "victim", fixture.replay[0])
    check(victim is None, "drop: victim connection reset, no partial frame")
    check(server.stats()["conn_drops"] == 1, "drop: server counted the drop")

    # -- phase 7: mixed storm under load ---------------------------------------
    os.environ["REPRO_FAULTS"] = ";".join([
        "crash@serve-engine:quantized/**2",
        "slow@serve-engine:**2",
    ])
    storm = await replay_burst(port, fixture, "storm", repeats=3)
    os.environ.pop("REPRO_FAULTS", None)
    answered = {rid: r for rid, r in storm.items() if r is not None}
    check(len(storm) == total and len(answered) == total,
          f"storm: all {total} requests answered (ok or shed)")
    check(all(r.status in ("ok", "shed") for r in answered.values()),
          "storm: every response is ok or an explicit shed")
    ok_responses = [r for r in answered.values() if r.status == "ok"]
    check(all(r.tier in valid_tiers for r in ok_responses),
          "storm: every answer tagged with a valid ladder tier")
    check(all(len(r.config) == 14 for r in ok_responses),
          "storm: every answer carries the full 14-parameter config")
    check(any(r.tier != "quantized" for r in ok_responses),
          "storm: degraded tiers visible in the tier tags")
    check(server.stats()["deadline_misses"] == 0,
          "storm: zero deadline violations")

    # -- phase 8: recovery back to bit-identical top tier ----------------------
    await asyncio.sleep(0.25)  # let the breaker cooldown elapse
    final = await replay_burst(port, fixture, "final", repeats=2)
    final_total = len(fixture.replay) * 2
    quantized = [r for r in final.values()
                 if r is not None and r.tier == "quantized"]
    check(len(quantized) == final_total,
          "recovery: service back on the quantized top tier")
    check(expected_by_id(fixture, final) == final_total,
          "recovery: answers bit-identical to the offline batch path again")

    # -- phase 9: SIGTERM drain ------------------------------------------------
    server.install_signal_handlers()
    async with Client(port) as client:
        os.kill(os.getpid(), signal.SIGTERM)
        await asyncio.wait_for(server.serve_until_drained(), timeout=10.0)
        await client.request("too-late", fixture.replay[0].features,
                             fixture.replay[0].program)
        late = await client.read_response()
        check(late is not None and late.status == "shed"
              and "drain" in str(late.reason),
              "drain: post-SIGTERM frames shed explicitly")
    stats = server.stats()
    print(f"[serve-drill] final stats: {stats}", flush=True)
    check(stats["tiers"].get("quantized", 0) > 0
          and sum(stats["tiers"].values()) == stats["ok"],
          "accounting: tier counts cover every ok response")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-drill-") as tmp:
        root = Path(tmp)
        os.environ.pop("REPRO_FAULTS", None)
        print("[serve-drill] building serving fixture "
              "(train + weight store)...", flush=True)
        fixture = build_fixture(root)
        print(f"[serve-drill] replaying {len(fixture.replay)} suite phases, "
              f"feature dim "
              f"{len(fixture.replay[0].features)}", flush=True)
        asyncio.run(drill(fixture, root / "fault-slots"))
        os.environ.pop("REPRO_FAULTS", None)
        os.environ.pop("REPRO_FAULTS_DIR", None)
        print(f"[serve-drill] fleet drill: {FLEET_SHARDS} shards on one "
              f"port", flush=True)
        asyncio.run(fleet_drill(fixture))

        if obs.enabled():
            paths = obs.export_all()
            records = obs.merge_records()
            snap = obs.metrics_snapshot(records)
            counters = snap["counters"]
            check(counters.get("serve.request", 0) > 0,
                  "obs: serving counters exported")
            check(counters.get("serve.engine_restart", 0) >= 1,
                  "obs: engine restarts visible in metrics")
            summary = obs.render_summary(records)
            check("serving:" in summary and "tier mix" in summary,
                  "obs: summary renders the serving section")
            print(summary, flush=True)
            print(f"[serve-drill] wrote {paths['metrics']}", flush=True)

    if failures:
        print(f"[serve-drill] FAILED: {len(failures)} check(s): "
              + "; ".join(failures), file=sys.stderr, flush=True)
        return 1
    print("[serve-drill] PASSED", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
