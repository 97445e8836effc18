"""Benchmark harness fixtures.

The benches share one default-scale :class:`ExperimentPipeline` whose
results are cached on disk (``.repro_cache/``): the first run pays for the
pipeline (minutes), later runs load from cache in seconds.  Set
``REPRO_BENCH_SCALE=quick`` to run the whole harness at miniature scale.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentPipeline, ReproScale


def _scale() -> ReproScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    if name == "quick":
        return ReproScale.quick()
    if name == "paper":
        return ReproScale.paper()
    return ReproScale.default()


@pytest.fixture(scope="session")
def pipeline() -> ExperimentPipeline:
    pipe = ExperimentPipeline(_scale(), verbose=True)
    # Materialise the shared data once so individual benches time only
    # their own analysis.
    pipe.all_phase_data
    return pipe


@pytest.fixture(scope="session")
def ablation_pipeline() -> ExperimentPipeline:
    """A reduced pipeline (8 benchmarks x 4 phases) for design-choice
    ablations, which retrain the model several times."""
    scale = _scale().with_(
        benchmarks=("mcf", "crafty", "swim", "eon", "gcc", "art",
                    "parser", "applu"),
        n_phases=4,
    )
    pipe = ExperimentPipeline(scale, verbose=True)
    pipe.all_phase_data
    return pipe


def loo_average_ratio(
    pipe: ExperimentPipeline,
    feature_set: str = "advanced",
    threshold: float = 0.05,
    regularization: float = 0.5,
) -> float:
    """Leave-one-program-out CV with explicit knobs; returns the suite's
    geometric-mean efficiency ratio vs the pipeline baseline."""
    from repro.experiments.baselines import geomean
    from repro.model.fastcv import fast_leave_one_program_out

    predictions = fast_leave_one_program_out(
        pipe.phase_records(feature_set),
        threshold=threshold,
        regularization=regularization,
        max_iterations=pipe.scale.max_iterations,
    )
    return geomean(list(pipe.suite_ratios(predictions).values()))


def emit(title: str, text: str) -> None:
    """Print one experiment's output block (pytest -s shows it)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{text}\n", flush=True)
