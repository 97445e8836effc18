"""Golden-number guard for the quick-scale headline results.

EXPERIMENTS.md quotes Fig. 4/6 headline ratios from the quick-scale
pipeline; until now they were hand-checked.  This suite pins them:

* **exact golden values** (2% relative tolerance) — the pipeline is
  deterministic, so drift beyond float-noise means an algorithmic change
  that must be acknowledged by updating the goldens *and* EXPERIMENTS.md;
* **structural orderings** (strict) — the paper's qualitative claims
  (advanced counters beat basic, the model sits between per-program
  static and the oracle, everything beats the best-overall-static
  baseline) must hold regardless of the exact numbers.

Golden values were measured from the deterministic quick-scale build
(seeded workloads, all-ones CG initialisation); the shared
``quick_pipeline`` fixture serves them from the on-disk cache.
"""

from __future__ import annotations

import math

import pytest

from repro.control.arena import DEFAULT_SCENARIOS, SoftmaxPolicy
from repro.counters.features import AdvancedFeatureExtractor
from repro.experiments.arena import build_arena
from repro.experiments.figures import figure4, figure6, section8_overheads

from tests.reference_controller import run_reference_controller

RTOL = 0.02

#: Quick-scale geomean of the advanced-counter model vs best static.
GOLDEN_FIG4_ADVANCED = 1.5979
#: Quick-scale geomean of the basic-counter model vs best static.
GOLDEN_FIG4_BASIC = 1.0508
#: Quick-scale Fig. 6 averages (model, per-program static, oracle).
GOLDEN_FIG6 = (1.5979, 1.2158, 1.9425)
#: (model - 1) / (oracle - 1): the paper reports 74% at full scale.
GOLDEN_ORACLE_FRACTION = 0.6344

#: Per-benchmark advanced-counter ratios (Fig. 4 bars).
GOLDEN_FIG4_BARS = {
    "mcf": 0.981,
    "crafty": 2.153,
    "swim": 1.481,
    "eon": 2.261,
    "gcc": 1.927,
    "art": 1.222,
}


@pytest.fixture(scope="module")
def fig4(quick_pipeline):
    return figure4(quick_pipeline)


@pytest.fixture(scope="module")
def fig6(quick_pipeline):
    return figure6(quick_pipeline)


def test_fig4_averages_match_goldens(fig4):
    assert fig4.advanced_average == pytest.approx(GOLDEN_FIG4_ADVANCED,
                                                 rel=RTOL)
    assert fig4.basic_average == pytest.approx(GOLDEN_FIG4_BASIC, rel=RTOL)


def test_fig4_per_benchmark_bars_match_goldens(fig4):
    assert sorted(fig4.advanced) == sorted(GOLDEN_FIG4_BARS)
    for name, golden in GOLDEN_FIG4_BARS.items():
        assert fig4.advanced[name] == pytest.approx(golden, rel=RTOL), name


def test_advanced_counters_beat_basic(fig4):
    """The paper's central Fig. 4 claim, as an ordering."""
    assert fig4.advanced_average > fig4.basic_average
    assert fig4.basic_average > 1.0  # even basic counters beat best static


def test_fig6_averages_match_goldens(fig6):
    for measured, golden in zip(fig6.averages, GOLDEN_FIG6):
        assert measured == pytest.approx(golden, rel=RTOL)


def test_fig6_best_static_ordering(fig6):
    """1 < per-program static < model < oracle: the limit-study ordering
    (Fig. 6) that makes the adaptive predictor worth building."""
    model_avg, per_program_avg, oracle_avg = fig6.averages
    assert 1.0 < per_program_avg < model_avg < oracle_avg


def test_oracle_fraction_matches_golden(fig6):
    fraction = fig6.fraction_of_available
    assert fraction == pytest.approx(GOLDEN_ORACLE_FRACTION, rel=RTOL)
    assert 0.0 < fraction < 1.0


def test_oracle_beats_baseline_on_every_benchmark(fig6):
    """The oracle picks each phase's best *sampled* configuration, and
    the baseline is itself in the sample — so every benchmark's oracle
    ratio is >= 1.  (The model may beat the oracle on individual
    benchmarks: it can predict configurations outside the sampled pool,
    the effect Fig. 7(b) reports.)"""
    for name in fig6.oracle:
        assert fig6.oracle[name] >= 1.0 - 1e-12, name
        assert math.isfinite(fig6.model[name])


def test_softmax_via_arena_is_bit_identical_to_controller(quick_pipeline):
    """ISSUE 10 golden guard on the quick suite: routing the paper's
    softmax controller through the arena's policy interface reproduces
    the reference figure 2 loop's decisions and accounting bit-for-bit
    on every quick-scale program.  Any divergence means the arena
    changed the controller's semantics."""
    predictor = quick_pipeline.full_predictor("advanced")
    arena = build_arena(quick_pipeline, max_intervals=12, use_store=False)
    paper = DEFAULT_SCENARIOS[0]
    policy = SoftmaxPolicy(predictor)
    for name, program in quick_pipeline.programs.items():
        run = arena.run_policy(policy, name, paper)
        golden = run_reference_controller(
            predictor, AdvancedFeatureExtractor(), program, max_intervals=12)
        assert len(run.records) == len(golden), name
        for ours, theirs in zip(run.records, golden):
            assert ours.config == theirs.config, name
            assert ours.profiled == theirs.profiled, name
            assert ours.reconfigured == theirs.reconfigured, name
            # Float equality is deliberate — bit-identity is the gate.
            assert ours.time_ns == theirs.time_ns, name
            assert ours.energy_pj == theirs.energy_pj, name
            assert ours.stall_ns == theirs.stall_ns, name
            assert ours.reconfig_energy_pj == theirs.reconfig_energy_pj, name


#: Section VIII on the first three quick-scale programs, 25 intervals each:
#: (reconfiguration rate, time overhead, energy overhead).
GOLDEN_SECTION8 = (0.30666666666666664, 0.0005393583652126255,
                   0.0002145666683527926)


def test_section8_overheads_match_goldens(quick_pipeline):
    """Section VIII's numbers are pinned exactly: the controller run
    behind them is deterministic end to end."""
    result = section8_overheads(quick_pipeline,
                                tuple(quick_pipeline.benchmark_names[:3]),
                                max_intervals=25)
    assert (result.reconfiguration_rate, result.time_overhead,
            result.energy_overhead) == GOLDEN_SECTION8
