"""Benchmark leave-one-program-out cross-validation training.

Times four runs of the same synthetic suite and writes them to
``BENCH_train.json``:

1. **reference** — the serial loop kept as the test oracle in
   ``tests/reference_crossval.py``: per-fold dataset rebuilds, one
   all-ones CG fit per (fold, parameter) over the original objective;
2. **fastcv** — ``fast_leave_one_program_out`` in-process: good sets and
   datasets assembled once, each fold a row mask, each fit through the
   per-fit objective;
3. **fastcv workers** — the same with the (fold, parameter) fits fanned
   out over ``--workers`` processes through a fresh ``DataStore``;
4. **cached** — the workers run again on the populated store, so every
   fold's weights are read back instead of trained.

Every fit starts from all-ones weights and the production objective
evaluates the reference arithmetic in the same order, so the gates are
equality: the script exits non-zero unless all three fastcv runs predict
exactly what the reference predicts.  There is no speed gate.

The CG budget is high enough that every fit runs to convergence (the
paper specifies no iteration cap).

Usage::

    PYTHONPATH=src python scripts/bench_train.py           # full scale
    PYTHONPATH=src python scripts/bench_train.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.config.parameters import TABLE1_PARAMETERS
from repro.config.space import DesignSpace
from repro.experiments.datastore import DataStore
from repro.model.fastcv import fast_leave_one_program_out
from repro.model.training import PhaseRecord

ROOT = Path(__file__).resolve().parent.parent
# The reference loop lives under tests/.
sys.path.insert(0, str(ROOT))

from tests.reference_crossval import leave_one_program_out  # noqa: E402


def make_records(
    n_programs: int,
    n_phases: int,
    n_features: int,
    pool_size: int,
    seed: int = 0,
) -> list[PhaseRecord]:
    """A structured synthetic suite with a learnable counters->config map.

    Each phase's ideal parameter settings are a fixed (tanh-squashed
    linear) function of its counter vector, shared across programs, and
    a configuration's efficiency decays with its distance from the
    ideal — so leave-one-out models genuinely generalise to the held-out
    program, as on the real pipeline data.  Mild noise keeps good sets
    plural (several configs within the 5% band per phase).
    """
    rng = np.random.default_rng(seed)
    pool = DesignSpace(seed=seed + 1).random_sample(pool_size)
    parameters = TABLE1_PARAMETERS
    projection = rng.normal(size=(len(parameters), n_features))
    projection /= np.sqrt(n_features)
    # Each pool config as per-parameter value fractions in [0, 1].
    fractions = np.array([
        [parameter.index_of(config[parameter.name])
         / max(1, parameter.cardinality - 1)
         for parameter in parameters]
        for config in pool
    ])
    records = []
    for program_index in range(n_programs):
        for phase_id in range(n_phases):
            z = rng.normal(size=n_features)
            ideal = 0.5 + 0.5 * np.tanh(projection @ z)
            distance = np.mean(np.abs(fractions - ideal), axis=1)
            noise = rng.normal(scale=0.004, size=len(pool))
            scores = 1.0 - 0.8 * distance + noise
            records.append(PhaseRecord(
                program=f"prog{program_index:02d}",
                phase_id=phase_id,
                features=z,
                evaluations={config: float(score)
                             for config, score in zip(pool, scores)},
            ))
    return records


def git_commit() -> dict:
    """The checked-out commit and whether tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain",
                                  "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def timed(run):
    t0 = time.perf_counter()
    result = run()
    return result, time.perf_counter() - t0


def bench(args: argparse.Namespace) -> dict:
    records = make_records(args.programs, args.phases, args.features,
                           args.pool_size, seed=args.seed)
    hyper = dict(regularization=0.5, threshold=0.05,
                 max_iterations=args.max_iterations)

    print(f"suite: {args.programs} programs x {args.phases} phases, "
          f"{args.features} features, pool {args.pool_size}, "
          f"CG budget {args.max_iterations}")

    reference, reference_seconds = timed(
        lambda: leave_one_program_out(records, **hyper))
    print(f"reference:      {reference_seconds:.1f}s")

    fastcv, fastcv_seconds = timed(
        lambda: fast_leave_one_program_out(records, **hyper))
    print(f"fastcv:         {fastcv_seconds:.1f}s "
          f"({reference_seconds / fastcv_seconds:.2f}x reference)")

    with tempfile.TemporaryDirectory() as directory:
        store = DataStore(directory)

        def fan_out() -> dict:
            return fast_leave_one_program_out(
                records, **hyper, workers=args.workers, store=store)

        workers, workers_seconds = timed(fan_out)
        print(f"fastcv workers: {workers_seconds:.1f}s on {args.workers} "
              f"workers ({fastcv_seconds / workers_seconds:.2f}x "
              f"in-process)")
        cached, cached_seconds = timed(fan_out)
        print(f"cached rerun:   {cached_seconds:.2f}s")

    return {
        "suite": {
            "programs": args.programs,
            "phases_per_program": args.phases,
            "features": args.features,
            "pool_size": args.pool_size,
            "max_iterations": args.max_iterations,
            "folds": args.programs,
            "fits": args.programs * len(TABLE1_PARAMETERS),
        },
        "workers": args.workers,
        "reference_seconds": reference_seconds,
        "fastcv_seconds": fastcv_seconds,
        "fastcv_workers_seconds": workers_seconds,
        "cached_seconds": cached_seconds,
        "fastcv_speedup": reference_seconds / fastcv_seconds,
        "workers_speedup": fastcv_seconds / workers_seconds,
        "equal_to_reference": {
            "fastcv": fastcv == reference,
            "fastcv_workers": workers == reference,
            "cached": cached == reference,
        },
    }


def main(argv: list[str] | None = None) -> int:
    def positive(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=positive, default=26,
                        help="benchmark programs / leave-one-out folds")
    parser.add_argument("--phases", type=positive, default=10,
                        help="phases per program")
    parser.add_argument("--features", type=positive, default=32,
                        help="counter-vector dimensionality")
    parser.add_argument("--pool-size", type=positive, default=300,
                        help="evaluated configurations per phase")
    parser.add_argument("--max-iterations", type=positive, default=1500,
                        help="CG budget; the default is high enough that "
                             "every fit runs to convergence")
    parser.add_argument("--workers", type=positive, default=2,
                        help="fold fan-out processes for the workers run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: small sizes (the equality gates "
                             "still apply)")
    parser.add_argument("--output", type=Path,
                        default=ROOT / "BENCH_train.json")
    args = parser.parse_args(argv)

    if args.smoke:
        args.programs = min(args.programs, 6)
        args.phases = min(args.phases, 3)
        args.features = min(args.features, 12)
        args.pool_size = min(args.pool_size, 80)
        args.max_iterations = min(args.max_iterations, 300)

    results = bench(args)
    report = {
        "bench": "train",
        **git_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "smoke": args.smoke,
        **results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if obs.enabled():  # REPRO_OBS=1: merge worker shards and export
        paths = obs.export_all()
        print(obs.render_summary(obs.merge_records()))
        print(f"wrote {paths['trace']} (open in https://ui.perfetto.dev)")

    failures = [
        f"{run} predictions differ from the reference loop"
        for run, equal in results["equal_to_reference"].items() if not equal
    ]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
