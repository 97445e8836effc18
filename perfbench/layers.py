"""Which public calls the traced run times, and the per-layer metrics.

Layers are the program's module names.  ``install_sim_layers`` covers the
simulation stack that ``reproduce`` and ``control`` drive; the serving
layers live with the ``serve`` workload because they are installed inside
the server shard's own process.
"""

from __future__ import annotations

import importlib
from typing import Any

from perfbench.tracing import LayerTracer

__all__ = ["PER_LAYER", "install_sim_layers", "sim_layer_metrics",
           "zero_layer_metrics"]

#: Every per-layer metric (name, unit, better); BENCHMARK.json lists the
#: same.  A layer a workload never calls reports 0.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("workloads.busy_s", "s", "lower"),
    ("workloads.kinst_per_s", "kinst/s", "higher"),
    ("counters.calls", "count", "lower"),
    ("counters.busy_s", "s", "lower"),
    ("counters.sim_kinst_per_s", "kinst/s", "higher"),
    ("characterize.calls", "count", "lower"),
    ("characterize.busy_s", "s", "lower"),
    ("characterize.kinst_per_s", "kinst/s", "higher"),
    ("sweeps.busy_s", "s", "lower"),
    ("sweeps.fresh_ratio", "ratio", "lower"),
    ("batch.calls", "count", "lower"),
    ("batch.configs", "count", "lower"),
    ("batch.configs_per_s", "1/s", "higher"),
    ("interval.evaluations", "count", "lower"),
    ("interval.busy_s", "s", "lower"),
    ("arena.eval_memo_hit_ratio", "ratio", "higher"),
    ("fastcv.busy_s", "s", "lower"),
    ("fastcv.fits", "count", "lower"),
    ("fastcv.fit_ms", "ms", "lower"),
    ("datastore.put_s", "s", "lower"),
    ("datastore.get_s", "s", "lower"),
    ("datastore.bytes_written", "bytes", "lower"),
    ("datastore.hit_ratio", "ratio", "higher"),
    ("detector.busy_s", "s", "lower"),
    ("detector.phase_changes", "count", "lower"),
    ("arena.loop_self_s", "s", "lower"),
    ("arena.oracle_s", "s", "lower"),
    ("policy.decide_self_s", "s", "lower"),
    ("policy.update_s", "s", "lower"),
    ("arena.reconfigurations", "count", "lower"),
    ("arena.profiled_intervals", "count", "lower"),
    ("protocol.decode_us", "us", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("batcher.wait_p50_ms", "ms", "lower"),
    ("batcher.wait_p99_ms", "ms", "lower"),
    ("batcher.batch_size_mean", "count", "higher"),
    ("batcher.batch_size_p99", "count", "higher"),
    ("server.queue_depth_max", "count", "lower"),
    ("server.shed", "count", "lower"),
    ("engine.batch_p50_ms", "ms", "lower"),
    ("engine.batch_p99_ms", "ms", "lower"),
    ("engine.us_per_row", "us", "lower"),
    ("ladder.top_tier_share", "ratio", "higher"),
    ("ladder.fallbacks", "count", "lower"),
    ("breaker.trips", "count", "lower"),
    ("server.residence_p50_ms", "ms", "lower"),
    ("server.residence_p99_ms", "ms", "lower"),
    ("transport.p50_ms", "ms", "lower"),
    ("frontend.start_s", "s", "lower"),
    ("serialize.load_ms", "ms", "lower"),
    ("client.late_p99_ms", "ms", "lower"),
    ("client.late_max_ms", "ms", "lower"),
    ("client.sent", "count", "higher"),
    ("client.failed", "count", "lower"),
    ("setup.fastcv_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def zero_layer_metrics() -> dict[str, float]:
    """Every per-layer metric at 0: a layer the workload never calls."""
    return {name: 0.0 for name, _, _ in PER_LAYER}


def _per_s(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def install_sim_layers(tracer: LayerTracer) -> None:
    """Wrap the simulation stack's public calls (after ``repro`` is
    imported, so every module that bound a function is patched)."""
    from repro.config.space import DesignSpace
    from repro.control.arena import AdaptivityPolicy, Arena
    from repro.counters.features import FeatureExtractor
    from repro.experiments.datastore import DataStore
    from repro.model.softmax import SoftmaxClassifier
    from repro.phases.detector import PhaseDetector
    from repro.timing.batch import BatchIntervalEvaluator
    from repro.timing.interval import IntervalEvaluator
    from repro.workloads.program import Program

    def count_inst(counter: str):
        def hook(args: tuple, kwargs: dict, result: Any, _s: float) -> None:
            tracer.count(counter, len(result))
        return hook

    for attr in ("phase_trace", "phase_warm_trace", "interval_trace"):
        tracer.patch_method(Program, attr, f"Program.{attr}",
                            layer="workloads",
                            on_call=count_inst("workloads.inst"))

    def traced_inst(counter: str):
        def hook(args: tuple, kwargs: dict, result: Any, _s: float) -> None:
            warm = kwargs.get("warm_trace")
            tracer.count(counter, len(args[0]) + (len(warm) if warm else 0))
        return hook

    # Package __init__ files re-export these functions under the module's
    # own name, so the modules are looked up by their full names.
    collector = importlib.import_module("repro.counters.collector")
    char_mod = importlib.import_module("repro.timing.characterize")
    sweeps = importlib.import_module("repro.experiments.sweeps")
    fastcv = importlib.import_module("repro.model.fastcv")
    detector = importlib.import_module("repro.phases.detector")
    tracer.patch_function(collector, "collect_counters", "collect_counters",
                          layer="counters",
                          on_call=traced_inst("counters.inst"))
    tracer.patch_method(FeatureExtractor, "extract", "FeatureExtractor.extract",
                        layer="counters")
    tracer.patch_function(char_mod, "characterize", "characterize",
                          layer="characterize",
                          on_call=traced_inst("characterize.inst"))

    def sweep_requested(args: tuple, kwargs: dict, result: Any,
                        _s: float) -> None:
        pool = args[1] if len(args) > 1 else kwargs["pool"]
        tracer.count("sweeps.requested", len(pool))

    def count_requested(args: tuple, kwargs: dict, result: Any,
                        _s: float) -> None:
        tracer.count("sweeps.requested", len(result))

    tracer.patch_function(sweeps, "run_phase_sweep", "run_phase_sweep",
                          layer="sweeps", on_call=sweep_requested)
    for attr in ("random_neighbours", "one_at_a_time"):
        tracer.patch_method(DesignSpace, attr, f"DesignSpace.{attr}",
                            layer="sweeps", on_call=count_requested)

    def batch_configs(args: tuple, kwargs: dict, result: Any,
                      _s: float) -> None:
        tracer.count("batch.configs", len(result.configs))

    tracer.patch_method(BatchIntervalEvaluator, "evaluate_batch",
                        "evaluate_batch", layer="batch",
                        on_call=batch_configs)
    tracer.patch_method(IntervalEvaluator, "evaluate",
                        "IntervalEvaluator.evaluate", layer="interval")
    tracer.patch_method(Arena, "evaluate", "Arena.evaluate", layer="arena",
                        timed=False)

    tracer.patch_function(fastcv, "fast_leave_one_program_out",
                          "fast_leave_one_program_out", layer="fastcv")
    tracer.patch_method(SoftmaxClassifier, "fit", "SoftmaxClassifier.fit",
                        layer="fastcv")

    # Reads time ``_load``: both ``get`` and a ``get_or_compute`` hit go
    # through it.  Hits and misses come from the stores' own counters.
    tracer.patch_method(DataStore, "put", "DataStore.put", layer="datastore")
    tracer.patch_method(DataStore, "_load", "DataStore.read",
                        layer="datastore")

    def phase_change(args: tuple, kwargs: dict, result: Any,
                     _s: float) -> None:
        if result.phase_changed:
            tracer.count("detector.phase_changes")

    tracer.patch_method(PhaseDetector, "observe",
                        "PhaseDetector.observe", layer="detector",
                        on_call=phase_change)
    tracer.patch_function(detector, "signature_of", "signature_of",
                          layer="detector")

    def run_outcome(args: tuple, kwargs: dict, result: Any,
                    _s: float) -> None:
        tracer.count("arena.reconfigurations", result.reconfigurations)
        tracer.count("arena.profiled_intervals", result.profiled_intervals)

    tracer.patch_method(Arena, "run_policy", "Arena.run_policy",
                        layer="arena", on_call=run_outcome)
    tracer.patch_method(Arena, "oracle_run", "Arena.oracle_run",
                        layer="arena")
    for cls in _subclasses(AdaptivityPolicy):
        for attr in ("decide", "update"):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, f"policy.{attr}",
                                    layer="policy")


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def sim_layer_metrics(tracer: LayerTracer, *, bytes_written: float,
                      store_hits: int, store_misses: int) -> dict[str, float]:
    """The simulation-stack per-layer metrics from one traced pass."""
    t, calls, counts = tracer.self_time, tracer.calls, tracer.counts
    workloads_s = tracer.layer_self("workloads")
    fits = calls["SoftmaxClassifier.fit"]
    arena_evals = calls["Arena.evaluate"]
    return {
        "workloads.busy_s": workloads_s,
        "workloads.kinst_per_s": _per_s(counts["workloads.inst"] / 1e3,
                                        workloads_s),
        "counters.calls": calls["collect_counters"],
        "counters.busy_s": tracer.layer_self("counters"),
        "counters.sim_kinst_per_s": _per_s(counts["counters.inst"] / 1e3,
                                           t["collect_counters"]),
        "characterize.calls": calls["characterize"],
        "characterize.busy_s": tracer.layer_self("characterize"),
        "characterize.kinst_per_s": _per_s(
            counts["characterize.inst"] / 1e3, t["characterize"]),
        "sweeps.busy_s": tracer.layer_self("sweeps"),
        "sweeps.fresh_ratio": _per_s(counts["batch.configs"],
                                     counts["sweeps.requested"]),
        "batch.calls": calls["evaluate_batch"],
        "batch.configs": counts["batch.configs"],
        "batch.configs_per_s": _per_s(counts["batch.configs"],
                                      t["evaluate_batch"]),
        "interval.evaluations": calls["IntervalEvaluator.evaluate"],
        "interval.busy_s": tracer.layer_self("interval"),
        "arena.eval_memo_hit_ratio": (
            1.0 - calls["IntervalEvaluator.evaluate"] / arena_evals
            if arena_evals else 0.0),
        "fastcv.busy_s": tracer.layer_self("fastcv"),
        "fastcv.fits": fits,
        "fastcv.fit_ms": (tracer.total["SoftmaxClassifier.fit"] / fits * 1e3
                          if fits else 0.0),
        "datastore.put_s": t["DataStore.put"],
        "datastore.get_s": t["DataStore.read"],
        "datastore.bytes_written": bytes_written,
        "datastore.hit_ratio": _per_s(store_hits, store_hits + store_misses),
        "detector.busy_s": tracer.layer_self("detector"),
        "detector.phase_changes": counts["detector.phase_changes"],
        "arena.loop_self_s": t["Arena.run_policy"],
        "arena.oracle_s": t["Arena.oracle_run"],
        "policy.decide_self_s": t["policy.decide"],
        "policy.update_s": t["policy.update"],
        "arena.reconfigurations": counts["arena.reconfigurations"],
        "arena.profiled_intervals": counts["arena.profiled_intervals"],
    }
