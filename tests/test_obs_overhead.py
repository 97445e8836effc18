"""Overhead guard: instrumentation must be free when off, inert when on.

Two contracts:

* with ``REPRO_OBS`` unset, the instrumented hot loops (batch evaluation
  of 1k configurations, one ``characterize()`` call, one
  ``collect_counters()`` call) stay within noise of an uninstrumented
  baseline — checked by comparing the disabled-path
  span/metric machinery cost against the work it wraps;
* with ``REPRO_OBS`` on, results are **bit-identical**: observability is
  purely observational and never perturbs a number.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import obs
from repro.config.space import DesignSpace
from repro.counters.collector import collect_counters
from repro.timing.batch import BatchIntervalEvaluator
from repro.timing.characterize import characterize
from repro.workloads.generator import PhaseSpec, TraceGenerator

POOL_SIZE = 1000


#: The spans inside one ``characterize()`` call.
CHARACTERIZE_SPANS = ("characterize.ilp", "characterize.caches",
                      "characterize.branches")
#: The spans inside one ``collect_counters()`` call.
COUNTERS_SPANS = ("counters.simulate", "counters.distances")


@pytest.fixture(scope="module")
def char_inputs():
    spec = PhaseSpec(
        name="overhead-int", load_frac=0.24, store_frac=0.10,
        branch_frac=0.14, ilp_mean=8.0, serial_frac=0.3,
        footprint_blocks=600, reuse_alpha=1.5, code_blocks=60,
    )
    generator = TraceGenerator(spec)
    return (generator.generate(4000, stream_seed=1),
            generator.generate(4000, stream_seed=2))


@pytest.fixture(scope="module")
def batch_inputs(char_inputs):
    trace, warm = char_inputs
    char = characterize(trace, warm_trace=warm)
    pool = DesignSpace(seed=11).random_sample(POOL_SIZE)
    return char, pool


def _snapshot(result):
    return (result.cycles.tobytes(), result.time_ns.tobytes(),
            result.energy_pj.tobytes())


def test_disabled_hooks_cost_less_than_the_work(batch_inputs, monkeypatch):
    """The no-op fast path (1 span + 1 counter per batch call) must be
    orders of magnitude cheaper than evaluating the 1k-config batch it
    wraps — so the instrumented loop is within noise of uninstrumented.

    Expressed as a relative bound (hook cost < 5% of one batch call,
    best-of-N both sides) rather than wall-clock deltas between two runs
    of the same heavy loop, which flake on shared CI machines.
    """
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.reset_from_env()
    char, pool = batch_inputs
    evaluator = BatchIntervalEvaluator()
    evaluator.evaluate_batch(char, pool)  # warm caches/JIT-ish paths

    work_seconds = min(
        _timed(lambda: evaluator.evaluate_batch(char, pool))
        for _ in range(5))

    def hooks() -> None:
        with obs.span("batch.evaluate", configs=POOL_SIZE):
            obs.inc("batch.configs", POOL_SIZE)

    hooks()
    hook_seconds = min(_timed(hooks) for _ in range(5))

    assert hook_seconds < 0.05 * work_seconds, (
        f"disabled obs hooks cost {hook_seconds * 1e6:.1f}µs per batch "
        f"call vs {work_seconds * 1e3:.2f}ms of work — no longer near-zero")


def test_characterize_hooks_cost_less_than_the_work(char_inputs,
                                                    monkeypatch):
    """The three disabled spans inside ``characterize()`` cost < 5% of
    one call (best-of-N both sides, as above)."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.reset_from_env()
    trace, warm = char_inputs
    work_seconds = min(
        _timed(lambda: characterize(trace, warm_trace=warm))
        for _ in range(5))

    def hooks() -> None:
        for name in CHARACTERIZE_SPANS:
            with obs.span(name):
                pass

    hooks()
    hook_seconds = min(_timed(hooks) for _ in range(5))

    assert hook_seconds < 0.05 * work_seconds, (
        f"disabled obs hooks cost {hook_seconds * 1e6:.1f}µs per "
        f"characterize() vs {work_seconds * 1e3:.2f}ms of work")


def test_characterize_bit_identical_with_obs_enabled(char_inputs, tmp_path):
    trace, warm = char_inputs
    obs.reset_from_env()
    assert not obs.enabled()
    baseline = characterize(trace, warm_trace=warm)

    obs.configure(enabled=True, directory=str(tmp_path))
    try:
        observed = characterize(trace, warm_trace=warm)
        obs.flush()
    finally:
        obs.reset_from_env()

    assert repr(observed) == repr(baseline)
    names = {r.get("name") for r in obs.merge_records(tmp_path)}
    assert set(CHARACTERIZE_SPANS) <= names


def test_collect_counters_hooks_cost_less_than_the_work(char_inputs,
                                                       monkeypatch):
    """The two disabled spans inside ``collect_counters()`` cost < 5% of
    one call (best-of-N both sides, as above)."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.reset_from_env()
    trace, warm = char_inputs
    work_seconds = min(
        _timed(lambda: collect_counters(trace, warm_trace=warm))
        for _ in range(3))

    def hooks() -> None:
        for name in COUNTERS_SPANS:
            with obs.span(name):
                pass

    hooks()
    hook_seconds = min(_timed(hooks) for _ in range(5))

    assert hook_seconds < 0.05 * work_seconds, (
        f"disabled obs hooks cost {hook_seconds * 1e6:.1f}µs per "
        f"collect_counters() vs {work_seconds * 1e3:.2f}ms of work")


def test_collect_counters_identical_with_obs_enabled(char_inputs, tmp_path):
    trace, warm = char_inputs
    obs.reset_from_env()
    assert not obs.enabled()
    baseline = collect_counters(trace, warm_trace=warm)

    obs.configure(enabled=True, directory=str(tmp_path))
    try:
        observed = collect_counters(trace, warm_trace=warm)
        obs.flush()
    finally:
        obs.reset_from_env()

    assert repr(observed) == repr(baseline)
    names = {r.get("name") for r in obs.merge_records(tmp_path)}
    assert set(COUNTERS_SPANS) <= names


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_results_bit_identical_with_obs_enabled(batch_inputs, tmp_path):
    char, pool = batch_inputs
    evaluator = BatchIntervalEvaluator()

    obs.reset_from_env()
    assert not obs.enabled()
    baseline = _snapshot(evaluator.evaluate_batch(char, pool))

    obs.configure(enabled=True, directory=str(tmp_path))
    try:
        instrumented = _snapshot(evaluator.evaluate_batch(char, pool))
        # The hooks did record...
        assert obs.snapshot()["counters"]["batch.configs"] == POOL_SIZE
    finally:
        obs.reset_from_env()

    # ...and never touched a number.
    assert instrumented == baseline


def test_quick_pipeline_results_identical_with_obs(tmp_path):
    """End-to-end: the same miniature sweep with and without obs lands on
    bit-identical oracle ratios (cache-isolated builds)."""
    from repro.experiments.datastore import DataStore
    from repro.experiments.pipeline import ExperimentPipeline
    from repro.experiments.scale import ReproScale

    scale = ReproScale.quick().with_(
        benchmarks=("mcf", "swim"), n_phases=2, phase_trace_length=1000,
        pool_size=8, neighbour_count=4)

    def build(name: str) -> dict[str, float]:
        pipeline = ExperimentPipeline(
            scale, store=DataStore(tmp_path / name), workers=1)
        return pipeline.suite_ratios(pipeline.oracle)

    obs.reset_from_env()
    plain = build("plain")
    obs.configure(enabled=True, directory=str(tmp_path / "obs"))
    try:
        observed = build("observed")
    finally:
        obs.reset_from_env()
    assert observed == plain
    # The observed build actually produced spans.
    names = {r.get("name") for r in obs.merge_records(tmp_path / "obs")}
    assert "phase.compute" in names
