"""Observability layer: spans, metrics, shards and exporters."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs.shards import (
    append_record,
    iter_shards,
    read_records,
    shard_path,
)


@pytest.fixture()
def obs_dir(tmp_path):
    """Observability enabled into a temp directory, with a fake clock
    ticking one second per call; always restored to env-derived state."""
    ticks = iter(float(i) for i in range(100_000))
    obs.configure(enabled=True, directory=str(tmp_path),
                  clock=lambda: next(ticks))
    yield tmp_path
    obs.reset_from_env()


def test_disabled_by_default(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.reset_from_env()
    assert not obs.enabled()
    with obs.span("nothing", attr=1):
        obs.inc("counter")
        obs.observe("histogram", 2.0)
        obs.set_gauge("gauge", 3.0)
    obs.flush()
    assert obs.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert obs.cg_callback() is None
    assert list(tmp_path.iterdir()) == []


def test_env_enables(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
    obs.reset_from_env()
    try:
        assert obs.enabled()
        with obs.span("from-env"):
            pass
        shard = shard_path(tmp_path, os.getpid())
        names = [r["name"] for r in read_records(shard)]
        assert names == ["from-env"]
    finally:
        obs.reset_from_env()


def test_env_zero_means_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "0")
    obs.reset_from_env()
    try:
        assert not obs.enabled()
    finally:
        obs.reset_from_env()


def test_span_records_timing_and_attrs(obs_dir):
    with obs.span("outer", program="mcf", phase=3):
        with obs.span("inner"):
            pass
    records = list(read_records(shard_path(obs_dir, os.getpid())))
    outer = next(r for r in records if r["name"] == "outer")
    inner = next(r for r in records if r["name"] == "inner")
    # Fake clock: tick 0 went to the instance token at configure time,
    # so outer spans ticks 1..4 and inner 2..3.
    assert outer["start"] == 1.0 and outer["dur"] == 3.0
    assert inner["start"] == 2.0 and inner["dur"] == 1.0
    assert outer["attrs"] == {"program": "mcf", "phase": 3}
    assert inner["parent"] == outer["id"]
    assert outer["parent"] == 0
    assert outer["pid"] == os.getpid()


def test_span_pops_on_exception(obs_dir):
    with pytest.raises(RuntimeError):
        with obs.span("failing"):
            raise RuntimeError("boom")
    with obs.span("after"):
        pass
    records = list(read_records(shard_path(obs_dir, os.getpid())))
    after = next(r for r in records if r["name"] == "after")
    assert after["parent"] == 0  # the failing span was unwound


def test_metrics_aggregate_in_process(obs_dir):
    obs.inc("hits")
    obs.inc("hits", 2.0)
    obs.set_gauge("workers", 4.0)
    obs.set_gauge("workers", 8.0)
    obs.observe("seconds", 1.0)
    obs.observe("seconds", 3.0)
    snap = obs.snapshot()
    assert snap["counters"] == {"hits": 3.0}
    assert snap["gauges"] == {"workers": 8.0}
    # 16 log buckets per doubling: log2(1) * 16 = 0, log2(3) * 16 = 25.4.
    assert snap["histograms"]["seconds"] == {
        "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
        "buckets": {"0": 1, "25": 1}}


def test_flush_writes_max_seq_snapshot(obs_dir):
    obs.inc("n")
    obs.flush()
    obs.inc("n")
    obs.flush()
    records = [r for r in read_records(shard_path(obs_dir, os.getpid()))
               if r["t"] == "metrics"]
    assert [r["seq"] for r in records] == [1, 2]
    # The merger keeps only the last (cumulative) snapshot.
    snap = obs.metrics_snapshot(records)
    assert snap["counters"]["n"] == 2.0


def test_flush_empty_writes_nothing(obs_dir):
    obs.flush()
    assert not shard_path(obs_dir, os.getpid()).exists()


def test_cg_callback_counts_iterations(obs_dir):
    callback = obs.cg_callback()
    assert callback is not None
    callback(None, 0.5)
    callback(None, 0.25)
    assert obs.snapshot()["counters"]["cg.iterations"] == 2.0


def test_merge_sums_across_process_instances(obs_dir):
    # Two process lifetimes, one of them a recycled pid: metrics merge
    # by (pid, inst) so the recycled pid is not double- or under-counted.
    append_record(shard_path(obs_dir, 111), {
        "t": "metrics", "seq": 2, "pid": 111, "inst": 1,
        "counters": {"n": 5.0}, "gauges": {}, "histograms": {}})
    append_record(shard_path(obs_dir, 111), {
        "t": "metrics", "seq": 1, "pid": 111, "inst": 1,
        "counters": {"n": 3.0}, "gauges": {}, "histograms": {}})
    append_record(shard_path(obs_dir, 111), {
        "t": "metrics", "seq": 1, "pid": 111, "inst": 2,
        "counters": {"n": 7.0}, "gauges": {}, "histograms": {}})
    snap = obs.metrics_snapshot(obs.merge_records(obs_dir))
    assert snap["counters"]["n"] == 12.0  # max-seq of inst 1 (5) + inst 2 (7)


def test_histograms_merge_across_processes(obs_dir):
    for pid, (low, high) in ((201, (1.0, 5.0)), (202, (0.5, 2.0))):
        append_record(shard_path(obs_dir, pid), {
            "t": "metrics", "seq": 1, "pid": pid, "inst": 1,
            "counters": {}, "gauges": {},
            "histograms": {"s": {"count": 2, "sum": low + high,
                                 "min": low, "max": high}}})
    merged = obs.metrics_snapshot(obs.merge_records(obs_dir))
    assert merged["histograms"]["s"] == {
        "count": 4, "sum": 8.5, "min": 0.5, "max": 5.0, "buckets": {}}


def test_histogram_buckets_merge_and_give_quantiles(obs_dir):
    for pid, values in ((301, range(1, 51)), (302, range(51, 101))):
        obs.configure(enabled=True, directory=str(obs_dir))
        for value in values:
            obs.observe("ms", float(value))
        append_record(shard_path(obs_dir, pid), {
            "t": "metrics", "seq": 1, "pid": pid, "inst": 1,
            **obs.snapshot()})
    merged = obs.metrics_snapshot(obs.merge_records(obs_dir))["histograms"]
    assert merged["ms"]["count"] == 100
    assert sum(merged["ms"]["buckets"].values()) == 100
    # Each read-back is within one bucket (2 ** (1 / 16): 4.4%).
    assert obs.histogram_quantile(merged["ms"], 0.5) == pytest.approx(
        50.0, rel=0.045)
    assert obs.histogram_quantile(merged["ms"], 0.99) == pytest.approx(
        99.0, rel=0.045)
    assert obs.histogram_quantile(merged["ms"], 1.0) == 100.0  # the max


def test_chrome_trace_event_shape(obs_dir):
    with obs.span("work", program="gcc"):
        pass
    obs.flush()
    trace = obs.chrome_trace(obs.merge_records(obs_dir))
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    (event,) = trace["traceEvents"]
    assert event["ph"] == "X"
    assert event["name"] == "work"
    assert event["ts"] == 1e6 and event["dur"] == 1e6  # seconds -> µs
    assert event["pid"] == os.getpid()
    assert event["args"]["program"] == "gcc"
    json.dumps(trace)  # must be serialisable as-is


def test_render_summary_contents(obs_dir):
    obs.inc("datastore.hit", 3)
    obs.inc("datastore.miss", 1)
    obs.inc("runner.retry", 2)
    with obs.span("phase.compute"):
        pass
    obs.flush()
    summary = obs.render_summary(obs.merge_records(obs_dir))
    assert "75.0%" in summary  # hit rate
    assert "runner retries" in summary and "2" in summary
    assert "runner timeouts" in summary  # reported even at zero
    assert "phase.compute" in summary  # top-spans table


def test_render_summary_dse_section(obs_dir):
    obs.inc("dse.screens")
    obs.inc("dse.configs_screened", 20_000)
    obs.inc("dse.exact_evals", 864)
    obs.inc("dse.exact_saved", 19_136)
    obs.set_gauge("dse.surrogate_r2", 0.979)
    obs.flush()
    records = obs.merge_records(obs_dir)
    snap = obs.metrics_snapshot(records)
    assert snap["derived"]["dse.exact_fraction"] == pytest.approx(
        864 / 20_000)
    summary = obs.render_summary(records)
    assert "DSE configs screened" in summary and "20000" in summary
    assert "DSE exact fraction" in summary and "4.32%" in summary
    assert "DSE surrogate R^2" in summary and "0.979" in summary


def test_render_summary_omits_dse_without_screens(obs_dir):
    obs.inc("datastore.hit", 1)
    obs.flush()
    summary = obs.render_summary(obs.merge_records(obs_dir))
    assert "DSE" not in summary


def test_render_summary_serving_section(obs_dir):
    obs.inc("serve.request", 100)
    obs.inc("serve.ok", 97)
    obs.inc("serve.shed", 3)
    obs.inc("serve.deadline_miss", 0)
    obs.inc("serve.breaker_trip", 2)
    obs.inc("serve.engine_restart", 1)
    obs.inc("serve.tier.quantized", 90)
    obs.inc("serve.tier.float", 6)
    obs.inc("serve.tier.static", 4)
    obs.inc("serve.tier_fallback", 10)
    obs.flush()
    summary = obs.render_summary(obs.merge_records(obs_dir))
    assert "serving:" in summary
    assert "shed" in summary and "3" in summary
    assert "breaker trips" in summary and "2" in summary
    assert "engine restarts" in summary and "1" in summary
    assert "deadline misses" in summary
    assert "tier mix" in summary
    assert "quantized 90.0%" in summary
    assert "float 6.0%" in summary
    assert "static 4.0%" in summary
    assert "decode ms" not in summary  # no stage histograms recorded


def test_render_summary_serving_stage_quantiles(obs_dir):
    obs.inc("serve.request", 100)
    for value in range(1, 101):
        obs.observe("serve.decode_ms", value / 1000.0)
        obs.observe("serve.queue_wait_ms", 1.0)
        obs.observe("serve.encode_ms", 0.01)
    obs.flush()
    lines = obs.render_summary(obs.merge_records(obs_dir)).splitlines()
    decode = next(line for line in lines if "decode ms" in line).split()
    assert float(decode[decode.index("p50") + 1]) == pytest.approx(
        0.050, rel=0.045)
    assert float(decode[decode.index("p99") + 1]) == pytest.approx(
        0.099, rel=0.045)
    assert any("queue wait ms" in line and "p50 1.000  p99 1.000" in line
               for line in lines)
    assert any("encode ms" in line for line in lines)


def test_render_summary_omits_serving_without_traffic(obs_dir):
    obs.inc("runner.retry", 1)
    obs.flush()
    summary = obs.render_summary(obs.merge_records(obs_dir))
    assert "serving:" not in summary
    assert "tier mix" not in summary


def test_export_all_writes_three_files(obs_dir):
    with obs.span("something"):
        obs.inc("c")
    paths = obs.export_all(obs_dir)
    assert sorted(paths) == ["metrics", "summary", "trace"]
    for path in paths.values():
        assert path.is_file() and path.stat().st_size > 0
    metrics = json.loads(paths["metrics"].read_text())
    assert metrics["counters"]["c"] == 1.0
    assert metrics["spans"]["something"]["count"] == 1


def test_read_records_skips_torn_lines(tmp_path):
    shard = shard_path(tmp_path, 1)
    append_record(shard, {"t": "span", "name": "ok"})
    with shard.open("a") as handle:
        handle.write('{"t": "span", "name": "torn...')  # no newline, cut off
    names = [r["name"] for r in read_records(shard)]
    assert names == ["ok"]


def test_iter_shards_sorted(tmp_path):
    for pid in (30, 4, 100):
        append_record(shard_path(tmp_path, pid), {"pid": pid})
    assert [p.name for p in iter_shards(tmp_path)] == [
        "shard-100.jsonl", "shard-30.jsonl", "shard-4.jsonl"]
    assert list(iter_shards(tmp_path / "missing")) == []
