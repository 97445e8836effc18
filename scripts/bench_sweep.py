"""Benchmark the batch configuration-evaluation engine and the pipeline.

Times three things and writes them to ``BENCH_sweep.json`` so the perf
trajectory is tracked from PR to PR:

1. **scalar** — the seed's per-config ``IntervalEvaluator`` loop over a
   random pool (the V-C stage-1 shape);
2. **batch** — the same pool through ``BatchIntervalEvaluator`` in one
   vectorized pass, checked result for result against the scalar loop;
3. **pipeline** — end-to-end ``ExperimentPipeline`` wall time into a
   fresh cache (quick scale), serial and with ``--workers`` fan-out.

Usage::

    PYTHONPATH=src python scripts/bench_sweep.py            # full (1000 configs)
    PYTHONPATH=src python scripts/bench_sweep.py --smoke    # CI-sized

In every mode the script exits non-zero unless each batch
``EfficiencyResult`` equals (``==``) the scalar evaluator's; outside
``--smoke`` it also requires the batch engine to be >= 10x the scalar
loop.

The worker fan-out is judged on **steady state**: pool spawn + worker
warmup is a once-per-pool cost (measured separately as
``pool_warmup_seconds``), so the gate compares
``workers{N}_seconds - pool_warmup_seconds`` against the serial build
and fails only when that steady-state time diverges beyond tolerance —
a raw ``workers2 > serial`` at small scales is pool amortisation, not
an engine regression.  One pair of builds is too noisy to judge, so
both builds run ``--repeats`` times, alternating which runs first; the
gate reads the median of the pairs' steady ratios, and every pair is
in the report.  The gate binds only when the machine has at
least ``--workers`` cores: on an overcommitted box the fan-out has no
parallelism available and pays pure IPC overhead, which is recorded
but is not a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from bench_train import git_commit
from repro import obs
from repro.config.space import DesignSpace
from repro.experiments.datastore import DataStore
from repro.experiments.pipeline import ExperimentPipeline, warm_worker
from repro.experiments.scale import ReproScale
from repro.timing.batch import BatchIntervalEvaluator
from repro.timing.characterize import characterize
from repro.timing.interval import IntervalEvaluator
from repro.timing.resources import derive_machine_params
from repro.workloads.generator import PhaseSpec, TraceGenerator

REQUIRED_SPEEDUP = 10.0
#: steady-state fan-out may be at most this much slower than serial
#: (scheduling jitter allowance) before it counts as a regression.
MAX_STEADY_FANOUT_RATIO = 1.15


def _characterization(trace_length: int):
    spec = PhaseSpec(
        name="bench-int", load_frac=0.24, store_frac=0.10, branch_frac=0.14,
        ilp_mean=8.0, serial_frac=0.3, footprint_blocks=600,
        reuse_alpha=1.5, code_blocks=60,
    )
    generator = TraceGenerator(spec)
    return characterize(
        generator.generate(trace_length, stream_seed=1),
        warm_trace=generator.generate(trace_length, stream_seed=2),
    )


def bench_evaluators(pool_size: int, trace_length: int, repeats: int) -> dict:
    char = _characterization(trace_length)
    pool = DesignSpace(seed=7).random_sample(pool_size)
    scalar = IntervalEvaluator()
    batch = BatchIntervalEvaluator()

    # Cold machine-params cache for both paths: the comparison is the
    # engine, not the memoization.  The scalar side's cold cost includes
    # one one-row derive_machine_params_arrays call per configuration,
    # so its time and the speedup read higher than in BENCH_sweep.json
    # runs recorded while the scalar path had its own Cacti formulas,
    # although the batch path is the same.
    scalar_seconds = []
    for _ in range(repeats):
        derive_machine_params.cache_clear()
        t0 = time.perf_counter()
        scalar_results = [scalar.evaluate(char, config) for config in pool]
        scalar_seconds.append(time.perf_counter() - t0)

    batch_seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        batch_results = batch.evaluate_many(char, pool)
        batch_seconds.append(time.perf_counter() - t0)

    mismatches = sum(a != b for a, b in zip(scalar_results, batch_results))

    # Median, not min: min-of-N systematically flatters whichever path
    # happens to dodge a scheduler hiccup, and single samples (the old
    # smoke behaviour) are noisy enough to flip the speedup gate.
    t_scalar = statistics.median(scalar_seconds)
    t_batch = statistics.median(batch_seconds)
    return {
        "pool_size": pool_size,
        "scalar": {
            "seconds": t_scalar,
            "configs_per_sec": pool_size / t_scalar,
        },
        "batch": {
            "seconds": t_batch,
            "configs_per_sec": pool_size / t_batch,
        },
        "speedup": t_scalar / t_batch,
        "mismatches": mismatches,
    }


def _noop() -> None:
    return None


def measure_pool_warmup(scale: ReproScale, workers: int) -> float:
    """Seconds to spawn a ``workers``-process pool and build each worker's
    pipeline state (suite + shared config pool).

    This cost is paid once per pool, not per phase: at smoke scale it
    dominates the fan-out wall time, which is why
    ``workers{N}_seconds`` can exceed ``serial_seconds`` there without
    being an engine regression.  Recorded separately so the JSON
    trajectory reads net of it.
    """
    with tempfile.TemporaryDirectory() as directory:
        t0 = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=partial(warm_worker, scale, directory),
        ) as pool:
            # One trivial task per worker forces every process (and its
            # initializer) to actually spawn before the timer stops.
            for future in [pool.submit(_noop) for _ in range(workers)]:
                future.result()
        return time.perf_counter() - t0


def bench_pipeline(scale: ReproScale, workers: int, repeats: int) -> dict:
    """Serial and ``workers``-process builds into fresh caches,
    ``repeats`` pairs of them, each pair in the other order than the
    last.  Times are medians; ``pairs`` keeps every pair."""
    def run(n_workers: int) -> tuple[float, dict[str, float]]:
        with tempfile.TemporaryDirectory() as directory:
            pipeline = ExperimentPipeline(
                scale, store=DataStore(directory), workers=n_workers
            )
            t0 = time.perf_counter()
            pipeline.all_phase_data
            elapsed = time.perf_counter() - t0
            # Fingerprint the results so the fan-out is checked for
            # *parity*, not just speed: a worker-pool build must land on
            # bit-identical numbers.
            return elapsed, pipeline.suite_ratios(pipeline.oracle)

    sides = [1, workers] if workers > 1 else [1]
    seconds: dict[int, list[float]] = {n: [] for n in sides}
    ratios = []
    for pair in range(repeats):
        for n_workers in (sides if pair % 2 == 0 else sides[::-1]):
            elapsed, suite_ratios = run(n_workers)
            seconds[n_workers].append(elapsed)
            ratios.append(suite_ratios)
    result = {
        "scale": scale.tag,
        "phases": len(scale.benchmarks or ()) * scale.n_phases or None,
        "repeats": repeats,
        "serial_seconds": statistics.median(seconds[1]),
        "parity_ok": all(r == ratios[0] for r in ratios),
    }
    if workers > 1:
        warmup_seconds = measure_pool_warmup(scale, workers)
        steady = [max(t - warmup_seconds, 0.0) for t in seconds[workers]]
        pairs = [
            {"serial_first": pair % 2 == 0, "serial_seconds": serial,
             f"workers{workers}_seconds": fanout,
             "steady_ratio": steady_s / serial if serial else None}
            for pair, (serial, fanout, steady_s) in enumerate(
                zip(seconds[1], seconds[workers], steady))
        ]
        pair_ratios = [p["steady_ratio"] for p in pairs
                       if p["steady_ratio"] is not None]
        result[f"workers{workers}_seconds"] = statistics.median(
            seconds[workers])
        result["pool_warmup_seconds"] = warmup_seconds
        result[f"workers{workers}_steady_seconds"] = statistics.median(steady)
        result["steady_ratio_vs_serial"] = (
            statistics.median(pair_ratios) if pair_ratios else None)
        result["pairs"] = pairs
    return result


def main(argv: list[str] | None = None) -> int:
    def positive(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool-size", type=positive, default=1000,
                        help="stage-1 pool size to price (default 1000)")
    parser.add_argument("--trace-length", type=positive, default=8000)
    parser.add_argument("--repeats", type=positive, default=3,
                        help="timing repetitions (evaluator runs and "
                             "pipeline build pairs); medians are reported")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker count for the pipeline fan-out timing")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: small sizes, no speedup gate "
                             "(equality is still enforced)")
    parser.add_argument("--skip-pipeline", action="store_true")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_sweep.json")
    args = parser.parse_args(argv)

    if args.smoke:
        args.pool_size = min(args.pool_size, 128)
        args.trace_length = min(args.trace_length, 2000)

    evaluators = bench_evaluators(
        args.pool_size, args.trace_length, args.repeats
    )
    print(
        f"scalar: {evaluators['scalar']['configs_per_sec']:,.0f} configs/s   "
        f"batch: {evaluators['batch']['configs_per_sec']:,.0f} configs/s   "
        f"speedup: {evaluators['speedup']:.1f}x   "
        f"mismatches: {evaluators['mismatches']}"
    )

    report = {
        **git_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "smoke": args.smoke,
        "evaluators": evaluators,
    }

    if not args.skip_pipeline:
        scale = ReproScale.quick()
        if args.smoke:
            scale = scale.with_(benchmarks=("mcf", "swim"), n_phases=2,
                                phase_trace_length=1000, pool_size=8,
                                neighbour_count=4)
        pipeline = bench_pipeline(scale, args.workers, args.repeats)
        report["pipeline"] = pipeline
        print(f"pipeline ({pipeline['scale']}, median of {args.repeats}): "
              f"{pipeline['serial_seconds']:.1f}s serial"
              + (f", {pipeline[f'workers{args.workers}_seconds']:.1f}s "
                 f"on {args.workers} workers "
                 f"({pipeline[f'workers{args.workers}_steady_seconds']:.1f}s "
                 f"steady after "
                 f"{pipeline['pool_warmup_seconds']:.1f}s pool warmup); "
                 f"steady ratios "
                 + ", ".join(f"{p['steady_ratio']:.3f}"
                             for p in pipeline["pairs"])
                 if args.workers > 1 else ""))

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if obs.enabled():  # REPRO_OBS=1: merge worker shards and export
        paths = obs.export_all()
        print(obs.render_summary(obs.merge_records()))
        print(f"wrote {paths['trace']} (open in https://ui.perfetto.dev)")

    failures = []
    if not args.skip_pipeline and not report["pipeline"]["parity_ok"]:
        failures.append(
            "pipeline results with worker fan-out diverge from the serial "
            "build (expected bit-identical oracle ratios)"
        )
    if evaluators["mismatches"]:
        failures.append(
            f"{evaluators['mismatches']} batch results differ from the "
            f"scalar evaluator's (expected every result equal)"
        )
    if not args.smoke and evaluators["speedup"] < REQUIRED_SPEEDUP:
        failures.append(
            f"speedup {evaluators['speedup']:.1f}x < {REQUIRED_SPEEDUP}x"
        )
    cpus = os.cpu_count() or 1
    if (not args.smoke and not args.skip_pipeline
            and cpus >= args.workers > 1):
        steady_ratio = report["pipeline"]["steady_ratio_vs_serial"]
        if steady_ratio is not None and steady_ratio > MAX_STEADY_FANOUT_RATIO:
            failures.append(
                f"steady-state fan-out {steady_ratio:.2f}x the serial build "
                f"(median of {args.repeats} pairs; > "
                f"{MAX_STEADY_FANOUT_RATIO}x after excluding the "
                f"once-per-pool warmup)"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
