"""Merge per-process shards and export traces, metrics and summaries.

Three consumers, three formats:

* :func:`chrome_trace` — Chrome trace-event JSON (``trace.json``), one
  complete (``"ph": "X"``) event per span, viewable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``;
* :func:`metrics_snapshot` — machine-readable aggregates
  (``metrics.json``) consumed by ``scripts/generate_report.py`` and the
  ``scripts/bench_*.py`` harnesses;
* :func:`render_summary` — the human-readable run summary: process
  count, datastore hit rate, runner retry/timeout/quarantine counts and
  the top spans by cumulative time.

All three read the same merged record list (:func:`merge_records`), so a
run exported twice is identical; :func:`export_all` flushes the calling
process and writes the full set.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs import core
from repro.obs.shards import iter_shards, read_records

__all__ = [
    "chrome_trace",
    "export_all",
    "histogram_quantile",
    "merge_records",
    "metrics_snapshot",
    "render_summary",
]


def merge_records(directory: str | Path | None = None
                  ) -> list[dict[str, object]]:
    """Every record from every shard under ``directory``.

    Defaults to the active state's shard directory.  Records keep their
    shard order; shards are visited in sorted filename order so the
    merge is deterministic for a given set of files.
    """
    if directory is None:
        directory = core._resolve().directory
    records: list[dict[str, object]] = []
    for shard in iter_shards(directory):
        records.extend(read_records(shard))
    return records


def _spans(records: list[dict[str, object]]) -> list[dict[str, object]]:
    return [r for r in records if r.get("t") == "span"]


def chrome_trace(records: list[dict[str, object]]) -> dict[str, object]:
    """Chrome trace-event JSON for every span in ``records``.

    Timestamps are the recording clock's seconds scaled to microseconds;
    the clock's epoch is shared across local processes, so worker spans
    land on the parent's timeline.
    """
    events: list[dict[str, object]] = []
    for record in _spans(records):
        args = dict(record.get("attrs") or {})  # type: ignore[call-overload]
        args["span_id"] = record.get("id")
        if record.get("parent"):
            args["parent_span_id"] = record.get("parent")
        events.append({
            "name": record.get("name"),
            "cat": "repro",
            "ph": "X",
            "ts": round(float(record.get("start", 0.0)) * 1e6, 3),
            "dur": round(float(record.get("dur", 0.0)) * 1e6, 3),
            "pid": record.get("pid"),
            "tid": record.get("pid"),
            "args": args,
        })
    events.sort(key=lambda e: (e["pid"], e["ts"]))  # type: ignore[index]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _latest_metrics(records: list[dict[str, object]]
                    ) -> list[dict[str, object]]:
    """The highest-``seq`` metrics record per process instance.

    Metric records are cumulative totals, so within one process lifetime
    only the last flush counts; distinct lifetimes (keyed by
    ``(pid, inst)`` — pids get recycled) are summed by the caller.
    """
    latest: dict[tuple[object, object], dict[str, object]] = {}
    for record in records:
        if record.get("t") != "metrics":
            continue
        key = (record.get("pid"), record.get("inst"))
        kept = latest.get(key)
        if kept is None or int(record.get("seq", 0)) >= int(kept.get("seq", 0)):  # type: ignore[arg-type]
            latest[key] = record
    return [latest[key] for key in sorted(latest, key=repr)]


def metrics_snapshot(records: list[dict[str, object]]) -> dict[str, object]:
    """Aggregate counters/gauges/histograms/spans across all processes."""
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict[str, Any]] = {}
    for record in _latest_metrics(records):
        for name, value in sorted(dict(record.get("counters") or {}).items()):  # type: ignore[call-overload]
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in sorted(dict(record.get("gauges") or {}).items()):  # type: ignore[call-overload]
            gauges[name] = float(value)  # last writer wins
        for name, agg in sorted(dict(record.get("histograms") or {}).items()):  # type: ignore[call-overload]
            merged = histograms.setdefault(name, {
                "count": 0, "sum": 0.0,
                "min": float("inf"), "max": float("-inf"), "buckets": {},
            })
            merged["count"] += int(agg["count"])
            merged["sum"] += float(agg["sum"])
            merged["min"] = min(merged["min"], float(agg["min"]))
            merged["max"] = max(merged["max"], float(agg["max"]))
            buckets = merged["buckets"]
            for bucket, count in dict(agg.get("buckets") or {}).items():
                buckets[bucket] = buckets.get(bucket, 0) + int(count)

    span_stats: dict[str, dict[str, float]] = {}
    pids = set()
    for record in records:
        pids.add(record.get("pid"))
    for record in _spans(records):
        name = str(record.get("name"))
        stats = span_stats.setdefault(name, {
            "count": 0, "total_s": 0.0, "max_s": 0.0,
        })
        duration = float(record.get("dur", 0.0))  # type: ignore[arg-type]
        stats["count"] += 1
        stats["total_s"] += duration
        stats["max_s"] = max(stats["max_s"], duration)

    # Per-shard serving breakdown: metrics records written by serving
    # shard processes carry a "shard" label (REPRO_SHARD_ID).  Summing
    # across (pid, inst) lifetimes of one shard id folds pre- and
    # post-restart counts together — the per-slot total.
    serving_shards: dict[str, dict[str, float]] = {}
    for record in _latest_metrics(records):
        shard = record.get("shard")
        if shard is None:
            continue
        bucket = serving_shards.setdefault(str(shard), {})
        for name, value in sorted(dict(record.get("counters") or {}).items()):  # type: ignore[call-overload]
            if name.startswith("serve."):
                bucket[name] = bucket.get(name, 0.0) + float(value)

    hits = counters.get("datastore.hit", 0.0)
    misses = counters.get("datastore.miss", 0.0)
    derived: dict[str, float] = {}
    if hits + misses > 0:
        derived["datastore.hit_rate"] = hits / (hits + misses)
    screened = counters.get("dse.configs_screened", 0.0)
    if screened > 0:
        derived["dse.exact_fraction"] = (
            counters.get("dse.exact_evals", 0.0) / screened)
    snapshot: dict[str, object] = {
        "processes": len(pids),
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "histograms": {name: histograms[name]
                       for name in sorted(histograms)},
        "spans": {name: span_stats[name] for name in sorted(span_stats)},
        "derived": derived,
    }
    if serving_shards:
        snapshot["serving_shards"] = {
            shard: {name: bucket[name] for name in sorted(bucket)}
            for shard, bucket in sorted(serving_shards.items())}
    return snapshot


def histogram_quantile(histogram: dict[str, Any], q: float) -> float:
    """The ``q``-quantile of a (merged) histogram, read from its buckets:
    the geometric middle of the bucket holding that rank, clamped into
    the observed ``[min, max]``."""
    rank = q * histogram["count"]
    seen = 0
    for bucket, count in sorted((int(bucket), count) for bucket, count
                                in histogram["buckets"].items()):
        seen += count
        if seen >= rank:
            middle = 2.0 ** ((bucket + 0.5) / core.BUCKETS_PER_OCTAVE)
            return min(max(middle, histogram["min"]), histogram["max"])
    return float(histogram["max"])


#: The served-request stages with a histogram each, as the summary
#: labels them.
_SERVING_STAGES = (
    ("decode", "serve.decode_ms"),
    ("queue wait", "serve.queue_wait_ms"),
    ("encode", "serve.encode_ms"),
    ("admit to answer", "serve.latency_ms"),
)


def _tier_mix_lines(serving: dict[str, float], indent: str,
                    label: str) -> list[str]:
    """A one-line tier-mix rendering of ``serve.tier.*`` counters."""
    tiers = {name.removeprefix("serve.tier."): value
             for name, value in serving.items()
             if name.startswith("serve.tier.")}
    if not tiers:
        return []
    total = sum(tiers.values())
    if total <= 0:
        return []
    mix = ", ".join(
        f"{tier} {value / total:.1%}"
        for tier, value in sorted(tiers.items(), key=lambda item: -item[1]))
    pad = max(1, 22 - len(label) - len(indent) + 4)
    return [f"{indent}{label}{' ' * pad}{mix}"]


def render_summary(records: list[dict[str, object]],
                   top: int = 10) -> str:
    """The human-readable run summary (one screen)."""
    snap = metrics_snapshot(records)
    counters = snap["counters"]
    assert isinstance(counters, dict)
    lines = [
        "observability summary",
        f"  processes observed      {snap['processes']}",
        f"  spans recorded          "
        f"{sum(int(s['count']) for s in snap['spans'].values())}",  # type: ignore[union-attr]
    ]
    derived = snap["derived"]
    assert isinstance(derived, dict)
    if "datastore.hit_rate" in derived:
        lines.append(
            f"  datastore hit rate      "
            f"{derived['datastore.hit_rate']:.1%} "
            f"({counters.get('datastore.hit', 0):.0f} hits / "
            f"{counters.get('datastore.miss', 0):.0f} misses)")
    for label, key, always in (
        ("runner retries", "runner.retry", True),
        ("runner timeouts", "runner.timeout", True),
        ("runner quarantines", "runner.quarantine", True),
        ("pool rebuilds", "runner.pool_rebuild", False),
        ("CG iterations", "cg.iterations", False),
        ("configs priced (batch)", "batch.configs", False),
        ("DSE screens", "dse.screens", False),
        ("DSE configs screened", "dse.configs_screened", False),
        ("DSE exact evals", "dse.exact_evals", False),
        ("DSE exact evals saved", "dse.exact_saved", False),
    ):
        if always or key in counters:
            lines.append(f"  {label:<23} {counters.get(key, 0.0):.0f}")
    if "dse.exact_fraction" in derived:
        gauges = snap["gauges"]
        assert isinstance(gauges, dict)
        lines.append(
            f"  DSE exact fraction      "
            f"{derived['dse.exact_fraction']:.2%}")
        if "dse.surrogate_r2" in gauges:
            lines.append(
                f"  DSE surrogate R^2       "
                f"{gauges['dse.surrogate_r2']:.3f}")
    arena = {name: value for name, value in counters.items()
             if name.startswith("arena.")}
    if arena:
        lines.append("  arena:")
        for label, key in (
            ("policy runs", "arena.runs"),
            ("intervals played", "arena.intervals"),
            ("reconfigurations", "arena.reconfigurations"),
            ("profiled intervals", "arena.profiled_intervals"),
        ):
            lines.append(f"    {label:<21} {arena.get(key, 0.0):.0f}")
        intervals = arena.get("arena.intervals", 0.0)
        if intervals:
            lines.append(
                f"    reconfiguration rate  "
                f"{arena.get('arena.reconfigurations', 0.0) / intervals:.1%}")
    serving = {name: value for name, value in counters.items()
               if name.startswith("serve.")}
    if serving:
        lines.append("  serving:")
        for label, key in (
            ("requests", "serve.request"),
            ("answered", "serve.ok"),
            ("shed", "serve.shed"),
            ("malformed frames", "serve.malformed"),
            ("deadline misses", "serve.deadline_miss"),
            ("deadline fallbacks", "serve.deadline_fallback"),
            ("breaker trips", "serve.breaker_trip"),
            ("engine restarts", "serve.engine_restart"),
            ("tier fallbacks", "serve.tier_fallback"),
        ):
            lines.append(f"    {label:<21} {serving.get(key, 0.0):.0f}")
        lines.extend(_tier_mix_lines(serving, indent="    ",
                                     label="tier mix"))
        histograms = snap["histograms"]
        assert isinstance(histograms, dict)
        for label, key in _SERVING_STAGES:
            if key in histograms:
                lines.append(
                    f"    {label + ' ms':<21} "
                    f"p50 {histogram_quantile(histograms[key], 0.5):.3f}  "
                    f"p99 {histogram_quantile(histograms[key], 0.99):.3f}")
        shards = snap.get("serving_shards")
        if isinstance(shards, dict) and shards:
            lines.append("    per shard:")
            for shard_id, bucket in sorted(
                    shards.items(), key=lambda item: item[0]):
                assert isinstance(bucket, dict)
                lines.append(
                    f"      shard {shard_id}: "
                    f"{bucket.get('serve.request', 0.0):.0f} requests, "
                    f"{bucket.get('serve.ok', 0.0):.0f} ok, "
                    f"{bucket.get('serve.engine_restart', 0.0):.0f} "
                    f"engine restarts, "
                    f"{bucket.get('serve.weight_reload', 0.0):.0f} "
                    f"weight reloads")
                lines.extend(_tier_mix_lines(bucket, indent="        ",
                                             label="tier mix"))
    spans = snap["spans"]
    assert isinstance(spans, dict)
    if spans:
        ranked = sorted(spans.items(),
                        key=lambda item: -float(item[1]["total_s"]))
        lines.append(f"  top {min(top, len(ranked))} spans by cumulative "
                     "time:")
        lines.append(f"    {'span':<24} {'count':>7} {'total s':>10} "
                     f"{'max s':>9}")
        for name, stats in ranked[:top]:
            lines.append(
                f"    {name:<24} {int(stats['count']):>7} "
                f"{stats['total_s']:>10.3f} {stats['max_s']:>9.3f}")
    return "\n".join(lines)


def export_all(directory: str | Path | None = None) -> dict[str, Path]:
    """Flush, merge and write ``trace.json`` / ``metrics.json`` /
    ``summary.txt`` under the shard directory.  Returns the paths."""
    core.flush()
    if directory is None:
        directory = core._resolve().directory
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    records = merge_records(root)
    paths = {
        "trace": root / "trace.json",
        "metrics": root / "metrics.json",
        "summary": root / "summary.txt",
    }
    paths["trace"].write_text(
        json.dumps(chrome_trace(records)) + "\n", encoding="utf-8")
    paths["metrics"].write_text(
        json.dumps(metrics_snapshot(records), indent=2, sort_keys=True)
        + "\n", encoding="utf-8")
    paths["summary"].write_text(render_summary(records) + "\n",
                                encoding="utf-8")
    return paths
