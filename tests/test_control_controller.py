"""Tests for the paper's controller (the figure 2 loop).

The controller is :class:`~repro.control.arena.SoftmaxPolicy` run through
the arena loop; these tests pin its behaviour on a two-phase program.
"""

import numpy as np
import pytest

from repro.config import DesignSpace, PROFILING_CONFIG
from repro.control.arena import (
    DEFAULT_SCENARIOS,
    Arena,
    SoftmaxPolicy,
)
from repro.counters import BasicFeatureExtractor
from repro.model import ConfigurationPredictor
from repro.workloads import PhaseSpec, Program

PAPER, FREE, _ = DEFAULT_SCENARIOS


@pytest.fixture(scope="module")
def trained_predictor():
    """A predictor trained on synthetic targets (content irrelevant —
    controller mechanics are under test)."""
    rng = np.random.default_rng(0)
    space = DesignSpace(seed=0)
    features = []
    goods = []
    dim = BasicFeatureExtractor().dimension
    for _ in range(12):
        features.append(np.concatenate([rng.random(dim - 1), [1.0]]))
        goods.append([space.random_configuration() for _ in range(2)])
    return ConfigurationPredictor(max_iterations=20).fit(features, goods)


@pytest.fixture(scope="module")
def program():
    specs = (
        PhaseSpec(name="ctl-a", code_blocks=24, footprint_blocks=128),
        PhaseSpec(name="ctl-b", code_blocks=180, footprint_blocks=2048,
                  fp_frac=0.5, branch_frac=0.08),
    )
    return Program(name="ctl", phase_specs=specs,
                   schedule=(0,) * 5 + (1,) * 5 + (0,) * 5,
                   interval_length=3000, seed=4)


@pytest.fixture(scope="module")
def arena(program, baseline_config):
    return Arena({"ctl": program}, baseline_config)


def run(arena, trained_predictor, scenario=PAPER):
    policy = SoftmaxPolicy(trained_predictor, feature_set="basic")
    return arena.run_policy(policy, "ctl", scenario)


class TestAdaptiveRun:
    def test_runs_all_intervals(self, arena, trained_predictor, program):
        report = run(arena, trained_predictor)
        assert report.intervals == program.n_intervals
        assert report.time_ns > 0 and report.energy_pj > 0

    def test_profiles_each_new_phase_once(self, arena, trained_predictor):
        report = run(arena, trained_predictor)
        # Two distinct phases: two profiling intervals (recurrence
        # reuses); an occasional mid-phase false split adds at most one.
        assert 2 <= report.profiled_intervals <= 3

    def test_reconfigures_sparsely(self, arena, trained_predictor):
        report = run(arena, trained_predictor)
        assert report.reconfiguration_rate <= 0.5
        assert report.reconfigurations >= 2

    def test_profiling_interval_runs_profiling_config(self, arena,
                                                      trained_predictor):
        report = run(arena, trained_predictor)
        for record in report.records:
            if record.profiled:
                assert record.config == PROFILING_CONFIG

    def test_recurring_phase_reuses_prediction(self, arena,
                                               trained_predictor):
        report = run(arena, trained_predictor)
        configs = {}
        for record in report.records:
            if not record.profiled and record.phase_id >= 0:
                configs.setdefault(record.phase_id, set()).add(record.config)
        for phase_id, used in configs.items():
            assert len(used) == 1

    def test_max_intervals(self, program, baseline_config,
                           trained_predictor):
        capped = Arena({"ctl": program}, baseline_config, max_intervals=4)
        assert run(capped, trained_predictor).intervals == 4

    def test_overheads_accounted(self, arena, trained_predictor):
        with_overheads = run(arena, trained_predictor, PAPER)
        without = run(arena, trained_predictor, FREE)
        assert with_overheads.overhead_time_ns > 0
        assert without.overhead_time_ns == 0
        assert with_overheads.time_ns > without.time_ns

    def test_overheads_are_small(self, arena, trained_predictor):
        """Paper section VIII: overheads amortise to a few percent."""
        with_overheads = run(arena, trained_predictor, PAPER)
        without = run(arena, trained_predictor, FREE)
        assert with_overheads.time_ns / without.time_ns < 1.15

    def test_untrained_predictor_rejected(self):
        with pytest.raises(ValueError):
            SoftmaxPolicy(ConfigurationPredictor())


class TestStaticRun:
    def test_static_never_reconfigures(self, arena, baseline_config):
        report = arena.static_reference("ctl", baseline_config, PAPER)
        assert report.reconfigurations == 0
        assert report.profiled_intervals == 0
        assert all(r.config == baseline_config for r in report.records)

    def test_efficiency_computable(self, program, baseline_config):
        capped = Arena({"ctl": program}, baseline_config, max_intervals=3)
        report = capped.static_reference("ctl", baseline_config, PAPER)
        total = 3 * program.interval_length
        assert report.efficiency(total) > 0
