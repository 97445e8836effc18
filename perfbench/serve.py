"""``serve``: open-loop NDJSON load against the default shard fleet.

One ``ShardSupervisor`` shard with stock ``build_service`` settings
serves a predictor trained on the quick suite.  This process is the only
client: it sends over two connections with Poisson arrivals drawn from
the seed, on a fixed ascending rate ladder, and times every request from
when it was due.  Frames are encoded before timing starts.  The ladder
stops at the first rate that fails; the fixed light and busy rates are
rungs of the same ladder.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.common import (
    Digest,
    WorkloadResult,
    peak_rss_mb,
    percentile,
    proc_cpu_seconds,
    tail_percentile,
)

#: One trained predictor serves every request.
INPUTS = 1
CONNECTIONS = 2
LIGHT_RPS = 250
BUSY_RPS = 1000
#: (rate req/s, seconds).  The light rung is long enough for a p99 with
#: ten samples beyond it.
LADDER = ((250, 5.0), (1000, 2.0), (1500, 1.5), (2000, 1.5), (2500, 1.5),
          (3000, 1.5))
#: The rungs a traced pass replays (tracing compares equal schedules).
TRACED_RUNGS = LADDER[:2]
P99_LIMIT_MS = 50.0
DEADLINE_MS = 1000.0
#: Distinct feature vectors requests draw from.
FEATURE_POOL = 512
#: A backlog grows when more than this much of the rate is unanswered
#: as the rung stops sending.
BACKLOG_S = 0.05
#: Lateness above this in any one-second window is flagged.
LATE_FLAG_MS = 5.0
SHARD_TRACE_ENV = "PERFBENCH_SHARD_TRACE"
#: The serving drill's suite.  Serving cost is per request, and the
#: feature width is the same at any suite size.
TRAINING_SUITE = dict(benchmarks=("mcf", "swim"), n_phases=2,
                      phase_trace_length=1000, pool_size=8,
                      neighbour_count=4)


def shape() -> dict[str, Any]:
    return {"shards": 1, "connections": CONNECTIONS, "ladder": LADDER,
            "light_rps": LIGHT_RPS, "busy_rps": BUSY_RPS,
            "p99_limit_ms": P99_LIMIT_MS, "deadline_ms": DEADLINE_MS,
            "feature_pool": FEATURE_POOL, "training_suite": TRAINING_SUITE}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(seed: int, workdir: Path, index: int = 0) -> dict[str, Any]:
    """Train, publish the weight store and start a one-shard fleet."""
    from repro import ExperimentPipeline, ReproScale
    from repro.experiments import DataStore
    from repro.model import save_weight_store
    from repro.serving.frontend import ShardSupervisor

    workdir.mkdir(parents=True, exist_ok=True)
    scale = ReproScale.quick().with_(seed=seed, **TRAINING_SUITE)
    pipeline = ExperimentPipeline(scale, store=DataStore(workdir / "store"),
                                  workers=1, train_workers=1)
    predictor = pipeline.full_predictor("advanced")
    store_path = save_weight_store(predictor, workdir / "weights")
    supervisor = ShardSupervisor(store_path, shards=1)
    supervisor.start()
    training = np.stack([data.features["advanced"]
                         for data in pipeline.all_phase_data.values()])
    return {"predictor": predictor, "store_path": store_path,
            "supervisor": supervisor, "training": training}


def teardown(fixture: dict[str, Any]) -> None:
    supervisor = fixture.get("supervisor")
    if supervisor is not None:
        supervisor.terminate()
        fixture["supervisor"] = None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Requests:
    """Pre-encoded request pool and the offline answer for each entry.

    ``ties`` maps parameter -> value -> the values whose int8 weight
    columns are identical to that value's.  Such classes score exactly
    the same, and which one the argmax returns then depends on how BLAS
    sums each column for a given batch shape, so any of them is the
    offline answer.
    """

    payloads: list[bytes]  # JSON features array per pool entry
    offline: list[dict[str, int]]
    ties: dict[str, dict[int, frozenset[int]]]

    def matches(self, pick: int, config: dict[str, int]) -> bool:
        offline = self.offline[pick]
        return config.keys() == offline.keys() and all(
            config[name] in self.ties[name][value]
            for name, value in offline.items())


def make_requests(fixture: dict[str, Any], seed: int) -> Requests:
    """Feature vectors near the training phases, drawn from the seed."""
    from repro.model import QuantizedPredictor

    training = fixture["training"]
    rng = np.random.default_rng([seed, 11])
    rows = training[rng.integers(len(training), size=FEATURE_POOL)]
    scale = training.std(axis=0) * 0.05
    noisy = rows + rng.normal(size=rows.shape) * scale
    noisy[:, -1] = 1.0  # the bias column
    payloads = [json.dumps([float(v) for v in row]).encode() for row in noisy]
    # Offline answers from exactly the floats the server will parse.
    parsed = np.array([json.loads(p) for p in payloads])
    quantized = QuantizedPredictor(fixture["predictor"])
    offline = quantized.predict_batch(parsed)
    matrices, _ = quantized.state()
    ties = {}
    for parameter in quantized.parameters:
        columns = matrices[parameter.name]
        ties[parameter.name] = {
            value: frozenset(
                other for j, other in enumerate(parameter.values)
                if np.array_equal(columns[:, j], columns[:, k]))
            for k, value in enumerate(parameter.values)}
    return Requests(payloads, [c.as_dict() for c in offline], ties)


def poisson_schedule(seed: int, rung: int, rate: float, seconds: float
                     ) -> list[float]:
    """Ascending send offsets (s) of a Poisson process at ``rate``."""
    rng = np.random.default_rng([seed, 13, rung])
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return [float(t) for t in offsets[offsets < seconds]]


# ---------------------------------------------------------------------------
# the open-loop client
# ---------------------------------------------------------------------------


@dataclass
class RungOutcome:
    rate: int
    sent: int = 0
    latency_ms: list[float] = field(default_factory=list)  # on-time ok only
    late_ms: list[float] = field(default_factory=list)
    late_windows: list[int] = field(default_factory=list)
    failed: int = 0
    mismatched: int = 0
    tied: int = 0  # matched the offline answer only through a tie
    backlog: int = 0
    shard_cpu_s: float = 0.0
    answers: list[tuple[str, str, tuple]] = field(default_factory=list)
    by_id_latency: dict[str, float] = field(default_factory=dict)

    @property
    def tail(self) -> tuple[float, float] | None:
        return tail_percentile(self.latency_ms)

    @property
    def passed(self) -> bool:
        tail = self.tail
        return (self.failed == 0 and self.mismatched == 0
                and self.backlog <= self.rate * BACKLOG_S
                and tail is not None and tail[1] <= P99_LIMIT_MS)


async def _drive_rung(port: int, requests: Requests, seed: int, rung: int,
                      rate: int, seconds: float) -> RungOutcome:
    outcome = RungOutcome(rate)
    offsets = poisson_schedule(seed, rung, rate, seconds)
    rng = np.random.default_rng([seed, 17, rung])
    picks = rng.integers(len(requests.payloads), size=len(offsets))
    ids = [f"{rung}-{i}" for i in range(len(offsets))]
    frames = [b'{"id": "%s", "deadline_ms": %r, "features": %s}\n'
              % (rid.encode(), DEADLINE_MS, requests.payloads[pick])
              for rid, pick in zip(ids, picks)]

    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(CONNECTIONS)]
    received: list[tuple[float, bytes]] = []
    expected = len(frames)
    all_in = asyncio.Event()

    async def read(reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            received.append((time.perf_counter(), line))
            if len(received) >= expected:
                all_in.set()

    readers = [asyncio.create_task(read(r)) for r, _ in conns]
    sent_at = [0.0] * expected
    start = time.perf_counter() + 0.02
    for i, (offset, frame) in enumerate(zip(offsets, frames)):
        delay = start + offset - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = conns[i % CONNECTIONS][1]
        writer.write(frame)
        sent_at[i] = time.perf_counter()
        if writer.transport.get_write_buffer_size() > 1 << 16:
            await writer.drain()
    outcome.sent = expected
    outcome.backlog = expected - len(received)
    try:
        await asyncio.wait_for(all_in.wait(), timeout=DEADLINE_MS / 1e3 + 2.0)
    except asyncio.TimeoutError:
        pass  # whatever is still missing counts as failed
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in conns:
        writer.close()
    await asyncio.gather(*(w.wait_closed() for _, w in conns),
                         return_exceptions=True)

    index = {rid: i for i, rid in enumerate(ids)}
    seen: set[str] = set()
    for done, line in received:
        response = json.loads(line)
        rid = str(response.get("id"))
        i = index.get(rid)
        if i is None or rid in seen:
            outcome.failed += 1
            continue
        seen.add(rid)
        due = start + offsets[i]
        on_time = (done - sent_at[i]) * 1e3 <= DEADLINE_MS
        if response.get("status") != "ok" or not on_time:
            outcome.failed += 1
            continue
        config = response.get("config")
        offline = requests.offline[picks[i]]
        matched = requests.matches(picks[i], config)
        outcome.mismatched += not matched
        outcome.tied += matched and config != offline
        latency = (done - due) * 1e3
        outcome.latency_ms.append(latency)
        outcome.by_id_latency[rid] = latency
        # Tied classes are one answer: the digest records the offline one.
        answer = offline if matched else config
        outcome.answers.append((rid, response.get("tier"),
                                tuple(sorted(answer.items()))))
    outcome.failed += expected - len(seen)
    late = [(sent_at[i] - start - offsets[i]) * 1e3 for i in range(expected)]
    outcome.late_ms = late
    windows: dict[int, list[float]] = {}
    for offset, value in zip(offsets, late):
        windows.setdefault(int(offset), []).append(value)
    outcome.late_windows = sorted(
        w for w, values in windows.items()
        if percentile(values, 99) > LATE_FLAG_MS)
    return outcome


def drive(port: int, requests: Requests, seed: int,
          rungs: tuple[tuple[int, float], ...], stop_on_fail: bool,
          pid: int) -> list[RungOutcome]:
    """Run the rungs in order, noting the shard's CPU time in each.

    The fixed light and busy rates always run; with ``stop_on_fail``
    the ladder above them stops at the first rate that fails.
    """
    async def main() -> list[RungOutcome]:
        outcomes = []
        for rung, (rate, seconds) in enumerate(rungs):
            cpu0 = proc_cpu_seconds(pid)
            outcome = await _drive_rung(port, requests, seed, rung, rate,
                                        seconds)
            outcome.shard_cpu_s = proc_cpu_seconds(pid) - cpu0
            outcomes.append(outcome)
            if (stop_on_fail and not outcome.passed
                    and rate not in (LIGHT_RPS, BUSY_RPS)):
                break
        return outcomes

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def run_pass(fixtures: list[dict[str, Any]], workdir: Path, seconds: float,
             seed: int, tag: str, rungs=LADDER, ladder: bool = True,
             speed=None) -> WorkloadResult:
    """The ladder's rungs.  A running host-speed sampler is stopped first:
    no handler may delay the open-loop client's sends."""
    if speed is not None:
        speed.stop()
    fixture = fixtures[0]
    result = WorkloadResult()
    supervisor = fixture["supervisor"]
    pid = supervisor.pids[0]
    if "requests" not in fixture:
        fixture["requests"] = make_requests(fixture, seed)
    requests = fixture["requests"]

    t0 = time.perf_counter()
    outcomes = drive(supervisor.port, requests, seed, rungs,
                     stop_on_fail=ladder, pid=pid)
    result.wall_s = time.perf_counter() - t0
    shard_rss = peak_rss_mb(pid)

    by_rate = {o.rate: o for o in outcomes}
    # The first failing rung above the fixed rates is the capacity probe:
    # its failures are the measurement, so they are reported apart from
    # the operations.
    probe = [o for o in outcomes if ladder and not o.passed
             and o.rate not in (LIGHT_RPS, BUSY_RPS)]
    counted = [o for o in outcomes if o not in probe]
    max_rps = 0
    for outcome in outcomes:
        if not outcome.passed:
            break
        max_rps = outcome.rate
    result.attempted = sum(o.sent for o in counted)
    result.failed = sum(o.failed for o in counted)
    mismatched = sum(o.mismatched for o in outcomes)
    result.check("every ok answer equals the offline answer",
                 mismatched == 0, f"{mismatched} differ")
    for rate in (LIGHT_RPS, BUSY_RPS):
        outcome = by_rate.get(rate)
        result.check(f"{rate} req/s: every request on time and ok",
                     outcome is not None and outcome.failed == 0,
                     "" if outcome is None else f"{outcome.failed} failed")

    digest = Digest()
    for outcome in outcomes:
        if outcome.rate in (LIGHT_RPS, BUSY_RPS):
            digest.add(outcome.rate, sorted(outcome.answers))
    result.digest = digest.hexdigest()

    light, busy = by_rate.get(LIGHT_RPS), by_rate.get(BUSY_RPS)
    fixed = [o for o in (light, busy) if o is not None]
    # Requests the shard answers per second of its own CPU time at the
    # fixed rates: its capacity on one whole CPU.
    shard_cpu = sum(o.shard_cpu_s for o in fixed)
    capacity = sum(len(o.latency_ms) for o in fixed) / max(shard_cpu, 1e-9)
    top_tier = sum(1 for o in counted for a in o.answers if a[1] == "quantized")
    result.metrics = {
        "work_per_s": capacity,
        "p50_ms": statistics.median(light.latency_ms) if light else 0.0,
    }
    named = {"top_tier_share": (top_tier / max(result.attempted, 1), "x")}
    percentiles: dict[str, Any] = {}
    for prefix, outcome in (("", light), ("busy_", busy)):
        if outcome is None or not outcome.latency_ms:
            continue
        named[f"{prefix}p50_ms"] = (statistics.median(outcome.latency_ms), "ms")
        tail = outcome.tail
        if tail is not None:
            named[f"{prefix}p99_ms"] = (tail[1], "ms")
        percentiles[f"{prefix}p99_ms"] = {
            "rate": outcome.rate, "samples": len(outcome.latency_ms),
            "percentile": None if tail is None else tail[0]}
    named["capacity_rps"] = (capacity, "req/s")
    if ladder:
        named["max_rps"] = (float(max_rps), "req/s")
    result.named = named
    result.detail.update(
        shard_cpu_s=shard_cpu, shard_rss_mb=shard_rss,
        percentiles=percentiles,
        rungs=[{"rate": o.rate, "sent": o.sent, "failed": o.failed,
                "mismatched": o.mismatched, "tied": o.tied,
                "backlog": o.backlog,
                "passed": o.passed, "shard_cpu_s": o.shard_cpu_s,
                "p50_ms": statistics.median(o.latency_ms)
                if o.latency_ms else None,
                "tail": o.tail, "late_p99_ms": percentile(o.late_ms, 99),
                "late_max_ms": max(o.late_ms),
                "late_windows_s": o.late_windows}
               for o in outcomes],
        probe={"sent": sum(o.sent for o in probe),
               "failed": sum(o.failed for o in probe)})
    result.detail["outcomes"] = outcomes  # not JSON: left out of provenance
    return result


def finish(result: WorkloadResult) -> None:
    """Nothing runs after the timed part."""


# ---------------------------------------------------------------------------
# tracing inside the shard
# ---------------------------------------------------------------------------


def install_serving_layers(tracer) -> dict[str, Any]:
    """Wrap the request path's public calls in this (shard) process."""
    from repro.model import serialize
    from repro.serving import shard
    from repro.serving.batcher import MicroBatchPolicy
    from repro.serving.engine import SupervisedModelEngine
    from repro.serving.ladder import DegradationLadder
    from repro.serving.protocol import PredictRequest, PredictResponse

    state: dict[str, Any] = {"arrival": {}, "residence": {}, "depth": 0,
                             "depth_max": 0, "wait": [], "batch": [],
                             "engine": [], "rows": 0, "top": 0,
                             "fallbacks": 0, "shed": 0, "servers": []}

    def admitted(args, kwargs, pending, _s) -> None:
        state["arrival"][pending.request.id] = pending.arrival
        state["depth"] += 1
        state["depth_max"] = max(state["depth_max"], state["depth"])

    def batch_start(args, kwargs, _result, _s) -> None:
        pending = args[1]
        now = time.monotonic()
        state["batch"].append(len(pending))
        state["depth"] -= len(pending)
        state["wait"].extend((now - item.arrival) * 1e3 for item in pending)

    def encoded(args, kwargs, _result, _s) -> None:
        response = args[0]
        if response.status == "shed":
            state["shed"] += 1
        arrival = state["arrival"].pop(response.id, None)
        if arrival is not None:
            state["residence"][response.id] = (time.monotonic() - arrival) * 1e3

    def engine_batch(args, kwargs, _result, seconds) -> None:
        state["engine"].append(seconds * 1e3)
        state["rows"] += len(args[1])

    def answered(args, kwargs, result, _s) -> None:
        configs, tier = result
        if tier == "quantized":
            state["top"] += len(configs)
        else:
            state["fallbacks"] += len(configs)

    def fell_back(args, kwargs, result, _s) -> None:
        state["fallbacks"] += len(result[0])

    original_build = shard.build_service

    def build_and_keep(*args, **kwargs):
        server = original_build(*args, **kwargs)
        state["servers"].append(server)
        return server

    shard.build_service = build_and_keep
    tracer.patch_method(PredictRequest, "parse", "PredictRequest.parse",
                        layer="protocol")
    tracer.patch_method(PredictResponse, "encode", "PredictResponse.encode",
                        layer="protocol", on_call=encoded)
    tracer.patch_method(MicroBatchPolicy, "admit", "MicroBatchPolicy.admit",
                        layer="batcher", on_call=admitted)
    tracer.patch_method(MicroBatchPolicy, "split_expired",
                        "MicroBatchPolicy.split_expired", layer="batcher",
                        on_call=batch_start)
    tracer.patch_method(SupervisedModelEngine, "predict_batch",
                        "SupervisedModelEngine.predict_batch",
                        layer="engine", on_call=engine_batch)
    tracer.patch_method(DegradationLadder, "answer", "DegradationLadder.answer",
                        layer="ladder", on_call=answered)
    tracer.patch_method(DegradationLadder, "fallback",
                        "DegradationLadder.fallback", layer="ladder",
                        on_call=fell_back)
    tracer.patch_function(serialize, "load_weight_store", "load_weight_store",
                          layer="serialize")
    return state


def traced_shard_main(spec, ready=None) -> None:
    """Shard process target for the traced pass: installs the wrappers,
    then runs ``repro.serving.shard.run_shard`` with the same spec."""
    import sys

    from perfbench.tracing import LayerTracer
    from repro.serving.shard import run_shard

    os.environ["REPRO_SHARD_ID"] = str(spec.shard_id)
    tracer = LayerTracer()
    state = install_serving_layers(tracer)
    code = asyncio.run(run_shard(spec, ready))
    calls = tracer.calls
    stats = state["servers"][-1].stats() if state["servers"] else {}
    summary = {
        "decode_us": _mean_us(tracer, "PredictRequest.parse"),
        "encode_us": _mean_us(tracer, "PredictResponse.encode"),
        "wait_ms": state["wait"], "batch": state["batch"],
        "engine_ms": state["engine"], "rows": state["rows"],
        "top": state["top"], "fallbacks": state["fallbacks"],
        "shed": state["shed"], "depth_max": state["depth_max"],
        "residence": state["residence"],
        "load_ms": (tracer.total["load_weight_store"]
                    / max(calls["load_weight_store"], 1) * 1e3),
        "breaker_trips": stats.get("breaker_trips", 0),
        "covered_s": tracer.outer_time + tracer.total[
            "SupervisedModelEngine.predict_batch"],
    }
    Path(os.environ[SHARD_TRACE_ENV]).write_text(json.dumps(summary))
    sys.exit(code)


def _mean_us(tracer, name: str) -> float:
    calls = tracer.calls[name]
    return tracer.self_time[name] / calls * 1e6 if calls else 0.0


def traced_pass(fixtures: list[dict[str, Any]], workdir: Path,
                seconds: float, seed: int, tracer
                ) -> tuple[WorkloadResult, WorkloadResult, dict[str, float]]:
    """An untraced and a traced pass over the same rungs, each on its own
    fleet; returns both results and the per-layer metrics."""
    import repro.serving.frontend as frontend
    from repro.serving.frontend import ShardSupervisor

    fixture = fixtures[0]
    untraced = run_pass(fixtures, workdir, seconds, seed, "untraced",
                        rungs=TRACED_RUNGS, ladder=False)
    teardown(fixture)

    trace_file = workdir / "shard-trace.json"
    os.environ[SHARD_TRACE_ENV] = str(trace_file)
    tracer.patch_method(ShardSupervisor, "start", "ShardSupervisor.start",
                        layer="frontend")
    original_main = frontend.shard_main
    frontend.shard_main = traced_shard_main
    try:
        supervisor = ShardSupervisor(fixture["store_path"], shards=1)
        supervisor.start()
    finally:
        frontend.shard_main = original_main
        tracer.uninstall()
        del os.environ[SHARD_TRACE_ENV]  # the shard has inherited it
    fixture["supervisor"] = supervisor
    traced = run_pass(fixtures, workdir, seconds, seed, "traced",
                      rungs=TRACED_RUNGS, ladder=False)
    teardown(fixture)
    shard = json.loads(trace_file.read_text())

    outcomes = traced.detail["outcomes"]
    client_latency = {rid: ms for o in outcomes
                      for rid, ms in o.by_id_latency.items()}
    residence = shard["residence"]
    transport = [client_latency[rid] - ms for rid, ms in residence.items()
                 if rid in client_latency]
    late = [v for o in outcomes for v in o.late_ms]
    rows = max(shard["rows"], 1)
    answered = shard["top"] + shard["fallbacks"]
    traced.detail["percentiles"] = {
        name: {"samples": len(values),
               "percentile": (tail_percentile(values) or (None,))[0]}
        for name, values in (("batcher.wait_ms", shard["wait_ms"]),
                             ("batcher.batch_size", shard["batch"]),
                             ("engine.batch_ms", shard["engine_ms"]),
                             ("server.residence_ms",
                              list(residence.values())),
                             ("transport_ms", transport),
                             ("client.late_ms", late))}
    metrics = {
        "protocol.decode_us": shard["decode_us"],
        "protocol.encode_us": shard["encode_us"],
        "batcher.wait_p50_ms": _pct(shard["wait_ms"], 50),
        "batcher.wait_p99_ms": _pct(shard["wait_ms"], 99),
        "batcher.batch_size_mean": (statistics.fmean(shard["batch"])
                                    if shard["batch"] else 0.0),
        "batcher.batch_size_p99": _pct(shard["batch"], 99),
        "server.queue_depth_max": shard["depth_max"],
        "server.shed": shard["shed"],
        "engine.batch_p50_ms": _pct(shard["engine_ms"], 50),
        "engine.batch_p99_ms": _pct(shard["engine_ms"], 99),
        "engine.us_per_row": sum(shard["engine_ms"]) * 1e3 / rows,
        "ladder.top_tier_share": shard["top"] / max(answered, 1),
        "ladder.fallbacks": shard["fallbacks"],
        "breaker.trips": shard["breaker_trips"],
        "server.residence_p50_ms": _pct(list(residence.values()), 50),
        "server.residence_p99_ms": _pct(list(residence.values()), 99),
        "transport.p50_ms": _pct(transport, 50),
        "frontend.start_s": tracer.total["ShardSupervisor.start"],
        "serialize.load_ms": shard["load_ms"],
        "client.late_p99_ms": _pct(late, 99),
        "client.late_max_ms": max(late, default=0.0),
        "client.sent": sum(o.sent for o in outcomes),
        "client.failed": sum(o.failed for o in outcomes),
        "trace.overhead": (traced.detail["shard_cpu_s"]
                           / max(untraced.detail["shard_cpu_s"], 1e-9)),
        "trace.coverage": (shard["covered_s"]
                           / max(traced.detail["shard_cpu_s"], 1e-9)),
    }
    return untraced, traced, metrics


def _pct(values: list[float], q: float) -> float:
    """The tail rule applied to a per-layer sample: 0 when empty, the
    maximum when too few samples support any tail percentile."""
    if not values:
        return 0.0
    if q <= 50:
        return float(statistics.median(values))
    tail = tail_percentile(values, q)
    return float(tail[1]) if tail else float(max(values))
