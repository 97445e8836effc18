"""Benchmark + health gate for the online prediction service.

Boots the full serving stack (weight store trained on the quick
workload suite, quantized top tier) on a loopback socket and replays
the suite's phase feature vectors from concurrent client connections,
measuring what a caller would see:

* client-side latency (p50 / p99, milliseconds, request write to
  response read);
* sustained predictions/sec over the replay window;
* shed rate, deadline misses, and the tier mix of the answers.

Each connection pipelines a window of requests before reading
responses, so the server's micro-batcher actually forms batches —
benchmarking one-request-at-a-time would only ever measure batch size
one.  Results go to ``BENCH_serve.json``.

With ``--soak`` it additionally runs the **multi-shard sustained-load
soak**: a :class:`~repro.serving.frontend.ShardSupervisor` fleet on one
port, driven by closed-loop client *processes* with ramped connection
counts for a fixed duration, producing a per-second
throughput/latency/tier-mix time series with fleet RSS and client GC
tracking, plus an smaps-based proof that the shards share one copy of
the weight pages.  The soak writes a ``soak`` section into
``BENCH_serve.json``.

Usage::

    PYTHONPATH=src python scripts/bench_serve.py           # 4 conns x 200
    PYTHONPATH=src python scripts/bench_serve.py --smoke   # CI-sized
    PYTHONPATH=src python scripts/bench_serve.py --soak    # burst + soak
    PYTHONPATH=src python scripts/bench_serve.py --smoke --soak \
        --shards 2 --soak-seconds 20                       # CI soak

Gates (exit non-zero on violation):

- every request is answered (``ok`` or an explicit ``shed``) — no
  silent losses;
- zero deadline misses: a response sent after its deadline is a
  correctness bug, not a latency blip (always enforced, smoke too);
- a clean run stays on the quantized top tier for >= 95% of answers
  (>= 99% over the soak);
- p99 latency below the request deadline.

Soak-only gates:

- shard speedup: predictions/sec at N shards vs 1 shard must reach
  ``0.75 x min(shards, cpus)`` — exactly ">= 3x at 4 shards" on a
  >= 4-core box — scaled down honestly where the hardware cannot
  physically parallelise (a further x0.8 when shards outnumber cores:
  an overcommitted fleet has only scheduling overhead to prove);
- p99 stability: <= 25% drift between the first and last windows of
  the steady phase;
- page sharing (when ``/proc/<pid>/smaps`` exists and shards >= 2):
  every shard's weight mappings are read-only file maps with zero
  private-dirty pages, and the fleet's summed proportional set size
  for the store stays ~1x the store, not N x;
- every shard exits 0 after the drain.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import multiprocessing.connection
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _serve_common import (  # noqa: E402
    ServingFixture,
    SOAK_OK,
    SOAK_SHED,
    build_fixture,
    soak_client_entry,
)
from bench_train import git_commit  # noqa: E402

from repro import obs  # noqa: E402
from repro.serving import PredictResponse  # noqa: E402
from repro.serving.frontend import ShardSupervisor  # noqa: E402
from repro.serving.memory import (  # noqa: E402
    rss_bytes,
    smaps_supported,
    weight_mapping_report,
)

MIN_TOP_TIER_SHARE = 0.95
MIN_SOAK_TOP_TIER_SHARE = 0.99
MAX_SOAK_P99_DRIFT = 0.25
DEADLINE_MS = 1000.0
CLIENT_PROCESSES = 2


async def replay_connection(port: int, fixture: ServingFixture, lane: int,
                            requests: int, window: int,
                            latencies_ms: list[float],
                            responses: list[PredictResponse]) -> int:
    """Replay ``requests`` suite phases over one connection, pipelining
    up to ``window`` in-flight requests.  Returns the unanswered count."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    sent_at: dict[str, float] = {}
    pending = 0
    unanswered = requests

    async def read_one() -> bool:
        nonlocal pending, unanswered
        line = await asyncio.wait_for(reader.readline(), timeout=30.0)
        if not line:
            return False
        response = PredictResponse.decode(line)
        latencies_ms.append(
            (time.perf_counter() - sent_at.pop(str(response.id))) * 1e3)
        responses.append(response)
        pending -= 1
        unanswered -= 1
        return True

    try:
        for n in range(requests):
            item = fixture.replay[n % len(fixture.replay)]
            request_id = f"{lane}/{n}"
            sent_at[request_id] = time.perf_counter()
            writer.write(json.dumps({
                "id": request_id, "features": list(item.features),
                "deadline_ms": DEADLINE_MS, "program": item.program,
            }).encode() + b"\n")
            await writer.drain()
            pending += 1
            if pending >= window:
                if not await read_one():
                    return unanswered
        while pending > 0:
            if not await read_one():
                return unanswered
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return unanswered


async def run_bench(fixture: ServingFixture, connections: int,
                    requests_per_conn: int, window: int) -> dict:
    server = fixture.server(engine_budget_s=0.2, queue_limit=256)
    await server.start()
    latencies_ms: list[float] = []
    responses: list[PredictResponse] = []
    t0 = time.perf_counter()
    unanswered = await asyncio.gather(*(
        replay_connection(server.port, fixture, lane, requests_per_conn,
                          window, latencies_ms, responses)
        for lane in range(connections)))
    elapsed = time.perf_counter() - t0
    await server.drain()
    stats = server.stats()

    total = connections * requests_per_conn
    answered = len(responses)
    ok = sum(1 for r in responses if r.status == "ok")
    shed = sum(1 for r in responses if r.status == "shed")
    tier_mix: dict[str, int] = {}
    for response in responses:
        if response.status == "ok":
            tier_mix[response.tier] = tier_mix.get(response.tier, 0) + 1
    ordered = sorted(latencies_ms)

    def percentile(fraction: float) -> float:
        if not ordered:
            return float("nan")
        return ordered[min(len(ordered) - 1,
                           int(round(fraction * (len(ordered) - 1))))]

    batches = stats["batches"]
    return {
        "connections": connections,
        "requests_per_connection": requests_per_conn,
        "pipeline_window": window,
        "requests": total,
        "answered": answered,
        "unanswered": sum(unanswered),
        "ok": ok,
        "shed": shed,
        "shed_rate": shed / total if total else 0.0,
        "deadline_ms": DEADLINE_MS,
        "deadline_misses": stats["deadline_misses"],
        "elapsed_seconds": elapsed,
        "predictions_per_sec": ok / elapsed if elapsed else 0.0,
        "latency_p50_ms": percentile(0.50),
        "latency_p99_ms": percentile(0.99),
        "latency_mean_ms": (statistics.fmean(latencies_ms)
                            if latencies_ms else float("nan")),
        "mean_batch_size": ok / batches if batches else 0.0,
        "tier_mix": {tier: tier_mix[tier] for tier in sorted(tier_mix)},
        "top_tier_share": tier_mix.get("quantized", 0) / ok if ok else 0.0,
        "engine_restarts": stats["engine_restarts"],
        "breaker_trips": stats["breaker_trips"],
    }


# ---------------------------------------------------------------------------
# The multi-shard soak
# ---------------------------------------------------------------------------


def _percentile(ordered: list[float], fraction: float) -> float:
    if not ordered:
        return float("nan")
    return ordered[min(len(ordered) - 1,
                       int(round(fraction * (len(ordered) - 1))))]


def _store_bytes(fixture: ServingFixture) -> int:
    return sum(path.stat().st_size
               for path in Path(fixture.store_path).glob("*.npy"))


def _collect_sharing(supervisor: ShardSupervisor,
                     fixture: ServingFixture) -> dict:
    """smaps evidence that the shards share one copy of the weights."""
    if not smaps_supported():
        return {"supported": False}
    reports = []
    for pid in supervisor.pids:
        try:
            reports.append(weight_mapping_report(fixture.store_path, pid))
        except OSError:
            pass  # shard exited between listing and reading
    store_bytes = _store_bytes(fixture)
    return {
        "supported": True,
        "store_bytes": store_bytes,
        "shards_measured": len(reports),
        "per_shard": [{
            "pid": report.pid,
            "mappings": len(report.mappings),
            "rss_bytes": report.rss,
            "pss_bytes": report.pss,
            "private_dirty_bytes": report.private_dirty,
            "all_shared": report.shared,
        } for report in reports],
        "total_rss_bytes": sum(report.rss for report in reports),
        "total_pss_bytes": sum(report.pss for report in reports),
        "all_shared": bool(reports) and all(report.shared
                                            for report in reports),
    }


def _run_fleet_load(fixture: ServingFixture, shards: int, duration_s: float,
                    conn_specs: list[tuple[int, float]], window: int,
                    label: str) -> dict:
    """One fleet run: N shards, closed-loop client processes, per-second
    fleet-RSS sampling.  Returns raw client results + fleet evidence."""
    payloads = [{"features": list(item.features), "program": item.program}
                for item in fixture.replay]
    supervisor = ShardSupervisor(
        str(fixture.store_path), shards=shards,
        static_table=fixture.static_table, baseline=fixture.baseline,
        engine_budget_s=0.2, queue_limit=256,
        ready_timeout_s=120.0)
    print(f"[bench-serve] {label}: starting {shards}-shard fleet...",
          flush=True)
    supervisor.start()
    context = multiprocessing.get_context("spawn")
    buckets = [conn_specs[n::CLIENT_PROCESSES]
               for n in range(CLIENT_PROCESSES)]
    buckets = [bucket for bucket in buckets if bucket]
    processes = []
    pipes = []
    rss_series: list[dict] = []
    sharing: dict = {"supported": False}
    try:
        for bucket in buckets:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=soak_client_entry,
                args=(supervisor.port, payloads, bucket, duration_s,
                      window, DEADLINE_MS, sender))
            process.start()
            sender.close()
            processes.append(process)
            pipes.append(receiver)
        results: list[dict | None] = [None] * len(pipes)
        t_start = time.perf_counter()
        remaining = set(range(len(pipes)))
        while remaining:
            ready = multiprocessing.connection.wait(
                [pipes[index] for index in remaining], timeout=1.0)
            for pipe in ready:
                index = pipes.index(pipe)
                results[index] = pipe.recv()
                remaining.discard(index)
            fleet = 0
            for pid in supervisor.pids:
                try:
                    fleet += rss_bytes(pid)
                except OSError:
                    pass
            rss_series.append({
                "t": round(time.perf_counter() - t_start, 3),
                "fleet_rss_bytes": fleet,
            })
            supervisor.reap_and_restart()
        # Engines are armed now: read the page-sharing evidence while
        # the fleet is still alive.
        sharing = _collect_sharing(supervisor, fixture)
        for process in processes:
            process.join(timeout=60)
    finally:
        codes = supervisor.terminate()
        stats = supervisor.stats()
    return {
        "results": [result for result in results if result is not None],
        "rss_series": rss_series,
        "sharing": sharing,
        "exit_codes": codes,
        "supervisor": stats,
    }


def _aggregate_events(results: list[dict]) -> dict:
    """Rebase every client's events onto one timeline and aggregate."""
    base = min((result["t0"] for result in results), default=0.0)
    events = []  # (t_abs_rel, latency_ms, status, tier)
    for result in results:
        offset = result["t0"] - base
        events.extend((offset + t, latency, status, tier)
                      for t, latency, status, tier in result["events"])
    events.sort(key=lambda event: event[0])
    return {
        "events": events,
        "unanswered": sum(result["unanswered"] for result in results),
        "gc_collections": sum(result["gc_collections"]
                              for result in results),
    }


def _window_metrics(events: list[tuple]) -> dict:
    ok_latencies = sorted(event[1] for event in events
                          if event[2] == SOAK_OK)
    tiers: dict[str, int] = {}
    for event in events:
        if event[2] == SOAK_OK:
            tiers[event[3]] = tiers.get(event[3], 0) + 1
    ok = len(ok_latencies)
    span = (events[-1][0] - events[0][0]) if len(events) > 1 else 0.0
    return {
        "requests": len(events),
        "ok": ok,
        "shed": sum(1 for event in events if event[2] == SOAK_SHED),
        "predictions_per_sec": ok / span if span > 0 else 0.0,
        "latency_p50_ms": _percentile(ok_latencies, 0.50),
        "latency_p99_ms": _percentile(ok_latencies, 0.99),
        "tier_mix": {tier: tiers[tier] for tier in sorted(tiers)},
        "top_tier_share": tiers.get("quantized", 0) / ok if ok else 0.0,
    }


def _per_second_series(events: list[tuple]) -> list[dict]:
    buckets: dict[int, list[tuple]] = {}
    for event in events:
        buckets.setdefault(int(event[0]), []).append(event)
    series = []
    for second in sorted(buckets):
        metrics = _window_metrics(buckets[second])
        series.append({
            "t": second,
            "completed": metrics["requests"],
            "ok": metrics["ok"],
            "shed": metrics["shed"],
            "latency_p50_ms": round(metrics["latency_p50_ms"], 3),
            "latency_p99_ms": round(metrics["latency_p99_ms"], 3),
            "tier_mix": metrics["tier_mix"],
        })
    return series


def _ramp_conn_specs(final_connections: int,
                     duration_s: float) -> tuple[list[tuple[int, float]],
                                                 float, list[dict]]:
    """Connection (lane, start_delay) pairs ramping to the final count.

    Ramp stages occupy the first 30% of the soak; the drift gate judges
    only the steady phase after that.
    """
    stage_counts = sorted({max(1, final_connections // 4),
                           max(2, final_connections // 2),
                           final_connections})
    steady_fraction = 0.3
    specs: list[tuple[int, float]] = []
    stages = []
    previous = 0
    for index, count in enumerate(stage_counts):
        delay = duration_s * steady_fraction * index / len(stage_counts)
        stages.append({"connections": count,
                       "at_seconds": round(delay, 3)})
        for lane in range(previous, count):
            specs.append((lane, delay))
        previous = count
    return specs, steady_fraction, stages


def run_soak(fixture: ServingFixture, shards: int, soak_seconds: float,
             window: int) -> tuple[dict, list[str]]:
    """The sustained-load soak + its gates; returns (report, failures)."""
    cpus = os.cpu_count() or 1
    final_connections = max(4, 2 * shards)
    probe_seconds = max(4.0, soak_seconds / 10.0)
    warmup_s = 1.0

    # Capacity probe: the same client configuration against ONE shard,
    # so the speedup ratio isolates the fleet size.
    probe_specs = [(lane, 0.0) for lane in range(final_connections)]
    probe_run = _run_fleet_load(fixture, 1, probe_seconds, probe_specs,
                                window, "probe (1 shard)")
    probe_agg = _aggregate_events(probe_run["results"])
    probe_steady = [event for event in probe_agg["events"]
                    if event[0] >= warmup_s]
    probe_metrics = _window_metrics(probe_steady)

    # The soak proper: ramped connections against the full fleet.
    conn_specs, steady_fraction, stages = _ramp_conn_specs(
        final_connections, soak_seconds)
    soak_run = _run_fleet_load(fixture, shards, soak_seconds, conn_specs,
                               window, "soak")
    aggregate = _aggregate_events(soak_run["results"])
    events = aggregate["events"]
    overall = _window_metrics(events)
    steady_start = soak_seconds * steady_fraction + warmup_s
    steady = [event for event in events if event[0] >= steady_start]
    steady_metrics = _window_metrics(steady)
    if steady:
        steady_span = steady[-1][0] - steady[0][0]
        quarter = steady_span / 4.0
        first_window = [event for event in steady
                        if event[0] < steady[0][0] + quarter]
        last_window = [event for event in steady
                       if event[0] >= steady[-1][0] - quarter]
    else:
        first_window = last_window = []
    first_p99 = _window_metrics(first_window)["latency_p99_ms"]
    last_p99 = _window_metrics(last_window)["latency_p99_ms"]
    p99_drift = (abs(last_p99 - first_p99) / first_p99
                 if first_p99 and first_p99 == first_p99 else float("nan"))

    single_pps = probe_metrics["predictions_per_sec"]
    steady_pps = steady_metrics["predictions_per_sec"]
    speedup = steady_pps / single_pps if single_pps else float("nan")
    # 0.75x per usable core: exactly the ">= 3x at 4 shards" gate on a
    # >= 4-core box.  When shards outnumber cores the surplus shards
    # are pure scheduling overhead — there is no parallelism left to
    # prove, only that the fleet does not collapse — so the bar drops
    # by a further 0.8.
    required_speedup = 0.75 * min(shards, cpus)
    if shards > cpus:
        required_speedup *= 0.8

    deadline_misses = sum(1 for event in events
                          if event[2] == SOAK_OK and event[1] > DEADLINE_MS)
    rss_values = [sample["fleet_rss_bytes"]
                  for sample in soak_run["rss_series"]
                  if sample["fleet_rss_bytes"] > 0]
    sharing = soak_run["sharing"]

    report = {
        "shards": shards,
        "cpus": cpus,
        "mode": soak_run["supervisor"]["mode"],
        "duration_seconds": soak_seconds,
        "pipeline_window": window,
        "final_connections": final_connections,
        "ramp": stages,
        "client_processes": CLIENT_PROCESSES,
        "requests": overall["requests"],
        "ok": overall["ok"],
        "shed": overall["shed"],
        "unanswered": aggregate["unanswered"],
        "deadline_ms": DEADLINE_MS,
        "deadline_misses_observed": deadline_misses,
        "latency_p50_ms": overall["latency_p50_ms"],
        "latency_p99_ms": overall["latency_p99_ms"],
        "tier_mix": overall["tier_mix"],
        "top_tier_share": overall["top_tier_share"],
        "steady": {
            "start_seconds": steady_start,
            "predictions_per_sec": steady_pps,
            "latency_p99_first_window_ms": first_p99,
            "latency_p99_last_window_ms": last_p99,
            "p99_drift": p99_drift,
        },
        "single_shard": {
            "probe_seconds": probe_seconds,
            "predictions_per_sec": single_pps,
            "latency_p99_ms": probe_metrics["latency_p99_ms"],
            "exit_codes": {str(shard): code for shard, code
                           in probe_run["exit_codes"].items()},
        },
        "speedup": speedup,
        "required_speedup": required_speedup,
        "timeseries": _per_second_series(events),
        "rss": {
            "samples": len(soak_run["rss_series"]),
            "fleet_min_bytes": min(rss_values, default=0),
            "fleet_max_bytes": max(rss_values, default=0),
            "series": soak_run["rss_series"],
        },
        "gc": {"client_collections": aggregate["gc_collections"]},
        "weight_sharing": sharing,
        "restarts": {str(shard): count for shard, count
                     in soak_run["supervisor"]["restarts"].items()},
        "exit_codes": {str(shard): code for shard, code
                       in soak_run["exit_codes"].items()},
    }

    failures: list[str] = []
    if aggregate["unanswered"] > 0:
        failures.append(
            f"soak: {aggregate['unanswered']} requests went unanswered")
    if deadline_misses > 0:
        failures.append(
            f"soak: {deadline_misses} responses observed after their "
            f"{DEADLINE_MS:.0f} ms deadline")
    if overall["top_tier_share"] < MIN_SOAK_TOP_TIER_SHARE:
        failures.append(
            f"soak: top-tier share {overall['top_tier_share']:.2%} < "
            f"{MIN_SOAK_TOP_TIER_SHARE:.0%}")
    if not (speedup == speedup and speedup >= required_speedup):
        failures.append(
            f"soak: speedup {speedup:.2f}x at {shards} shards on "
            f"{cpus} cpus < required {required_speedup:.2f}x")
    if not (p99_drift == p99_drift and p99_drift <= MAX_SOAK_P99_DRIFT):
        failures.append(
            f"soak: p99 drift {p99_drift:.1%} between first/last steady "
            f"windows > {MAX_SOAK_P99_DRIFT:.0%}")
    if any(code != 0 for code in soak_run["exit_codes"].values()):
        failures.append(
            f"soak: non-zero shard exit codes {soak_run['exit_codes']}")
    if sharing.get("supported") and shards >= 2:
        if not sharing["all_shared"]:
            failures.append(
                "soak: weight mappings are not all shared read-only "
                "file-backed pages")
        if sharing["total_pss_bytes"] > 1.2 * sharing["store_bytes"]:
            failures.append(
                f"soak: fleet weight PSS "
                f"{sharing['total_pss_bytes']} > 1.2x store size "
                f"{sharing['store_bytes']} — pages are being copied")
    return report, failures


def main(argv: list[str] | None = None) -> int:
    def positive(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connections", type=positive, default=4)
    parser.add_argument("--requests", type=positive, default=200,
                        help="requests per connection")
    parser.add_argument("--window", type=positive, default=16,
                        help="max in-flight requests per connection")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: 2 connections x 50 requests (every "
                             "gate still holds)")
    parser.add_argument("--soak", action="store_true",
                        help="also run the multi-shard sustained-load soak")
    parser.add_argument("--shards", type=positive, default=4,
                        help="fleet size for the soak (default 4)")
    parser.add_argument("--soak-seconds", type=float, default=60.0,
                        help="soak duration (default 60; CI uses 20)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_serve.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.connections = min(args.connections, 2)
        args.requests = min(args.requests, 50)

    soak_report: dict | None = None
    soak_failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        print("[bench-serve] building serving fixture "
              "(train + weight store)...", flush=True)
        fixture = build_fixture(Path(tmp))
        result = asyncio.run(run_bench(fixture, args.connections,
                                       args.requests, args.window))
        if args.soak:
            # Runs inside the tempdir block: the fleet mmaps the store.
            soak_report, soak_failures = run_soak(
                fixture, args.shards, args.soak_seconds, args.window)

    print(f"[bench-serve] {result['requests']} requests over "
          f"{result['connections']} connections: "
          f"p50 {result['latency_p50_ms']:.2f} ms   "
          f"p99 {result['latency_p99_ms']:.2f} ms   "
          f"{result['predictions_per_sec']:.0f} predictions/s   "
          f"mean batch {result['mean_batch_size']:.1f}   "
          f"shed {result['shed_rate']:.1%}", flush=True)
    print(f"[bench-serve] tier mix: {result['tier_mix']}", flush=True)
    if soak_report is not None:
        steady = soak_report["steady"]
        sharing = soak_report["weight_sharing"]
        print(f"[bench-serve] soak: {soak_report['shards']} shards "
              f"({soak_report['mode']}) for "
              f"{soak_report['duration_seconds']:.0f}s: "
              f"{steady['predictions_per_sec']:.0f} predictions/s steady "
              f"({soak_report['speedup']:.2f}x vs 1 shard, require "
              f">= {soak_report['required_speedup']:.2f}x)   "
              f"p99 drift {steady['p99_drift']:.1%}", flush=True)
        if sharing.get("supported"):
            print(f"[bench-serve] soak weight pages: fleet PSS "
                  f"{sharing['total_pss_bytes']} B vs RSS "
                  f"{sharing['total_rss_bytes']} B over a "
                  f"{sharing['store_bytes']} B store "
                  f"(shared={sharing['all_shared']})", flush=True)

    report = {
        **git_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "smoke": args.smoke,
        **result,
    }
    if soak_report is not None:
        report["soak"] = soak_report
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if obs.enabled():  # REPRO_OBS=1: export spans + serving counters
        paths = obs.export_all()
        print(obs.render_summary(obs.merge_records()))
        print(f"wrote {paths['trace']} (open in https://ui.perfetto.dev)")

    failures = []
    if result["answered"] + result["unanswered"] != result["requests"]:
        failures.append("request accounting does not add up")
    if result["unanswered"] > 0:
        failures.append(f"{result['unanswered']} requests went unanswered")
    if result["deadline_misses"] > 0:
        failures.append(
            f"{result['deadline_misses']} responses sent after their "
            f"deadline")
    if result["top_tier_share"] < MIN_TOP_TIER_SHARE:
        failures.append(
            f"top-tier share {result['top_tier_share']:.1%} "
            f"< {MIN_TOP_TIER_SHARE:.0%} on a clean run")
    if result["latency_p99_ms"] >= DEADLINE_MS:
        failures.append(
            f"p99 latency {result['latency_p99_ms']:.1f} ms >= the "
            f"{DEADLINE_MS:.0f} ms deadline")
    failures.extend(soak_failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
