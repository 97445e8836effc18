"""``reproduce``: cold-cache Figure 4 builds, then warm re-runs.

All 26 programs go through ``ExperimentPipeline`` defaults on a fresh
``DataStore``, with few phases and short traces, so cross-validation is
the paper's leave-one-of-26-out (364 fits per feature set) and a build
takes seconds.  A run builds the suite for two inputs drawn from its
seed: how long cross-validation takes depends on the input, and two
inputs per run halve that spread's weight.  The warm re-runs read back
the entries the last cold build wrote.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.common import Digest, WorkloadResult, input_seed
from perfbench.hostspeed import HostSpeed

#: Suite inputs per run, each built once per round of builds.
INPUTS = 2
SHAPE = {"n_phases": 1, "phase_trace_length": 1000}
FEATURE_SETS = ("advanced", "basic")
#: Warm re-runs per pass; their median is ``rerun_s``.
RERUNS = 9
#: (phase, config) pairs re-priced by the scalar evaluator.
REPRICE_SAMPLE = 64
#: Leave-one-program-out fits per feature set: 26 folds x 14 parameters.
FITS_PER_SET = 26 * 14


def scale_for(seed: int):
    from repro import ReproScale

    return ReproScale.default().with_(seed=seed, **SHAPE)


def shape() -> dict[str, Any]:
    return {"programs": 26, **SHAPE, "inputs": INPUTS, "reruns": RERUNS,
            "reprice_sample": REPRICE_SAMPLE}


def setup(seed: int, workdir: Path, index: int) -> dict[str, Any]:
    """Nothing to build ahead: the cold build starts from an empty store."""
    from repro.experiments import DataStore

    workdir.mkdir(parents=True, exist_ok=True)
    return {"scale": scale_for(input_seed(seed, index)), "DataStore": DataStore}


def _build(fixture: dict[str, Any], store_dir: Path):
    from repro import ExperimentPipeline

    scale = fixture["scale"]
    store = fixture["DataStore"](store_dir)
    pipeline = ExperimentPipeline(scale, store=store, workers=1,
                                  train_workers=1)
    data = pipeline.all_phase_data
    predictions = {fs: pipeline.predictions(fs) for fs in FEATURE_SETS}
    ratios = {fs: pipeline.suite_ratios(predictions[fs])
              for fs in FEATURE_SETS}
    return pipeline, data, predictions, ratios


def run_pass(fixtures: list[dict[str, Any]], workdir: Path, seconds: float,
             seed: int, tag: str, tracer=None,
             speed: HostSpeed | None = None) -> WorkloadResult:
    """Rounds of cold builds, one per input, then warm re-runs of the
    last build; metrics and checks."""
    from repro import ExperimentPipeline
    from repro.config.configuration import MicroarchConfig
    from repro.experiments.baselines import geomean
    from repro.timing.interval import IntervalEvaluator

    result = WorkloadResult()
    speed = speed or HostSpeed()

    # Rounds of cold builds, one build per input on a fresh store, repeat
    # until ``seconds`` have passed.  Only the last build is kept, so peak
    # memory does not grow with the number of builds; the others leave
    # their digests.
    cold = []
    digests: dict[int, list[str]] = {i: [] for i in range(len(fixtures))}
    phases = missing = invalid = 0
    uncovered: list[str] = []
    stores = []  # every build's and re-run's DataStore (their counters)
    t0 = time.perf_counter()
    while (not cold or len(cold) % len(fixtures)
           or time.perf_counter() - t0 < seconds):
        index = len(cold) % len(fixtures)
        fixture = fixtures[index]
        # Let the previous build go before the next starts.
        build = pipeline = data = predictions = ratios = None
        mark = speed.mark()
        build = _build(fixture, workdir / f"store-{tag}-{len(cold)}")
        cold.append(speed.span(mark))
        digests[index].append(output_digest(*build))
        pipeline, data, predictions, ratios = build
        stores.append(pipeline.store)
        phases += len(pipeline.phase_keys)
        missing += sum(key not in data for key in pipeline.phase_keys)
        uncovered += [f"{fs} (input {index})" for fs in FEATURE_SETS
                      if set(predictions[fs]) != set(pipeline.phase_keys)]
        invalid += sum(
            not (isinstance(c, MicroarchConfig)
                 and MicroarchConfig.from_indices(c.as_indices()) == c)
            for fs in FEATURE_SETS for c in predictions[fs].values())
    scale = fixture["scale"]
    store_dir = pipeline.store.directory

    build_dirs = [store.directory for store in stores]
    reruns = []
    warm_equal = True
    for _ in range(RERUNS):
        mark = speed.mark()
        warm = ExperimentPipeline(scale, store=fixture["DataStore"](store_dir),
                                  workers=1, train_workers=1)
        warm_predictions = {fs: warm.predictions(fs) for fs in FEATURE_SETS}
        warm_ratios = {fs: warm.suite_ratios(warm_predictions[fs])
                       for fs in FEATURE_SETS}
        reruns.append(speed.span(mark))
        stores.append(warm.store)
        warm_equal &= (warm_predictions == predictions
                       and warm_ratios == ratios)
    result.wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    result.detail["stores"] = stores
    result.detail["store_dirs"] = build_dirs

    ratio_adv = geomean(list(ratios["advanced"].values()))
    ratio_basic = geomean(list(ratios["basic"].values()))
    cold_s = [span.scaled_s for span in cold]
    rerun_s = statistics.median(span.scaled_s for span in reruns)

    # -- output checks: every build, then the last one -------------------
    result.check("every phase built", not missing, f"{missing} missing")
    result.check("predictions cover every phase", not uncovered,
                 ", ".join(uncovered))
    result.check("predictions are Table I configurations", not invalid,
                 f"{invalid} invalid")
    result.check("warm re-run equals the cold build", warm_equal)
    result.check("builds of the same input agree",
                 all(len(set(d)) == 1 for d in digests.values()),
                 f"{len(cold)} builds of {len(fixtures)} inputs")

    rng = np.random.default_rng([seed, 7])
    pairs = [(key, config) for key in pipeline.phase_keys
             for config in data[key].evaluations]
    scalar = IntervalEvaluator()
    mismatches = 0
    for index in rng.choice(len(pairs), size=min(REPRICE_SAMPLE, len(pairs)),
                            replace=False):
        key, config = pairs[int(index)]
        repriced = scalar.evaluate(data[key].characterization, config)
        mismatches += repriced != data[key].evaluations[config]
    result.check("scalar re-pricing equals batch pricing", mismatches == 0,
                 f"{mismatches} of {REPRICE_SAMPLE} differ")

    # -- accounting: phases and CV fits of every build ---------------------
    result.attempted = phases + len(cold) * FITS_PER_SET * len(FEATURE_SETS)
    result.failed = missing + FITS_PER_SET * len(uncovered)
    digest = Digest()
    for index in sorted(digests):
        digest.add(index, digests[index][0])
    result.digest = digest.hexdigest()

    phases_per_s = phases / sum(cold_s)
    result.metrics = {"work_per_s": phases_per_s,
                      "p50_ms": statistics.median(cold_s) * 1e3}
    result.named = {
        "phases_per_s": (phases_per_s, "phases/s"),
        "cold_s": (statistics.median(cold_s), "s"),
        "cold_wall_s": (statistics.median(s.wall_s for s in cold), "s"),
        "rerun_s": (rerun_s, "s"),
        "ratio_advanced": (ratio_adv, "x"),
        "ratio_gap": (ratio_adv / ratio_basic, "x"),
    }
    result.detail.update(
        cold=[vars(span) for span in cold],
        reruns=[vars(span) for span in reruns], pipeline=pipeline,
        percentiles={"cold_s": {"samples": len(cold), "percentile": 50},
                     "rerun_s": {"samples": len(reruns), "percentile": 50}})
    return result


def output_digest(pipeline, data, predictions, ratios) -> str:
    """Digest of every phase evaluation, prediction and suite ratio."""
    digest = Digest()
    for key in pipeline.phase_keys:
        digest.add(key, sorted(
            (c.as_indices(), r.cycles, r.time_ns, r.energy_pj)
            for c, r in data[key].evaluations.items()))
    for fs in sorted(predictions):
        digest.add(fs, sorted(predictions[fs].items()), ratios[fs])
    return digest.hexdigest()


def finish(result: WorkloadResult) -> None:
    """Accuracy against the cycle-level model (outside the timed part)."""
    from repro.experiments.figures import evaluator_validation

    validation = evaluator_validation(result.detail["pipeline"])
    rho = validation.mean_rank_correlation
    result.named["evaluator_rank_corr"] = (rho, "rho")


def teardown(fixture: dict[str, Any]) -> None:
    """Nothing outlives the set-up's own objects."""
