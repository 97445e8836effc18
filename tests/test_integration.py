"""End-to-end integration tests tying every subsystem together."""

import numpy as np
import pytest

from repro import (
    AdvancedFeatureExtractor,
    ConfigurationPredictor,
    DesignSpace,
    IntervalEvaluator,
    build_program,
    characterize,
    collect_counters,
    spec2000_suite,
)
from repro.control.arena import DEFAULT_SCENARIOS, Arena, SoftmaxPolicy
from repro.experiments.baselines import geomean
from repro.phases import extract_phases


class TestTrainPredictImprove:
    """The core claim at miniature scale: a predictor trained on some
    programs improves efficiency on programs it has never seen."""

    @pytest.fixture(scope="class")
    def world(self):
        space = DesignSpace(seed=11)
        pool = space.random_sample(28)
        evaluator = IntervalEvaluator()
        extractor = AdvancedFeatureExtractor()

        def materials(name, n_phases=3):
            program = build_program(spec2000_suite((name,))[0],
                                    n_phases=n_phases, n_intervals=4,
                                    interval_length=5000)
            out = []
            for phase_id in range(n_phases):
                trace = program.phase_trace(phase_id)
                warm = program.phase_warm_trace(phase_id)
                counters = collect_counters(trace, warm_trace=warm)
                char = characterize(trace, warm_trace=warm)
                evaluations = {c: evaluator.evaluate(char, c).efficiency
                               for c in pool}
                out.append((extractor.extract(counters), evaluations, char))
            return out

        train = (materials("crafty") + materials("swim")
                 + materials("mcf") + materials("gcc"))
        test = materials("vortex")
        return pool, evaluator, train, test

    def test_predictor_beats_static_on_unseen_program(self, world):
        pool, evaluator, train, test = world
        predictor = ConfigurationPredictor(max_iterations=80)
        predictor.fit_evaluations([t[0] for t in train],
                                  [t[1] for t in train])
        baseline = max(pool, key=lambda c: geomean(
            [t[1][c] for t in train]))
        ratios = []
        for features, evaluations, char in test:
            predicted = predictor.predict(features)
            ratio = (evaluator.evaluate(char, predicted).efficiency
                     / evaluations[baseline])
            ratios.append(ratio)
        assert geomean(ratios) > 0.9  # never catastrophic...
        assert max(ratios) > 1.0  # ...and wins somewhere

    def test_oracle_bounds_predictor(self, world):
        pool, evaluator, train, test = world
        predictor = ConfigurationPredictor(max_iterations=60)
        predictor.fit_evaluations([t[0] for t in train],
                                  [t[1] for t in train])
        for features, evaluations, char in test:
            oracle_eff = max(evaluations.values())
            predicted = predictor.predict(features)
            predicted_eff = evaluator.evaluate(char, predicted).efficiency
            # The predictor may beat the *sampled* best slightly (fig 7b)
            # but not by a large factor.
            assert predicted_eff < 2.0 * oracle_eff


class TestSimPointToControllerFlow:
    """SimPoint phases -> profiling -> prediction -> adaptive run."""

    def test_full_flow(self):
        profile = spec2000_suite(("gap",))[0]
        program = build_program(profile, n_phases=3, n_intervals=18,
                                interval_length=4000, mean_segment=6)
        result = extract_phases(program, max_phases=3)
        assert result.n_phases >= 2

        space = DesignSpace(seed=3)
        pool = space.random_sample(16)
        evaluator = IntervalEvaluator()
        extractor = AdvancedFeatureExtractor()
        features, evaluations = [], []
        for representative in result.representatives:
            trace = program.interval_trace(representative)
            counters = collect_counters(trace)
            features.append(extractor.extract(counters))
            char = characterize(trace)
            evaluations.append({c: evaluator.evaluate(char, c).efficiency
                                for c in pool})
        predictor = ConfigurationPredictor(max_iterations=40)
        predictor.fit_evaluations(features, evaluations)

        arena = Arena({program.name: program}, pool[0], max_intervals=12)
        report = arena.run_policy(SoftmaxPolicy(predictor), program.name,
                                  DEFAULT_SCENARIOS[0])
        assert report.intervals == 12
        assert report.profiled_intervals >= 1
        assert report.reconfiguration_rate < 0.7
        assert report.energy_pj > 0 and report.time_ns > 0


class TestDeterminism:
    """The whole stack is reproducible end to end."""

    def test_counters_deterministic(self):
        program = build_program(spec2000_suite(("twolf",))[0], n_phases=2,
                                n_intervals=2, interval_length=2000)
        a = collect_counters(program.phase_trace(0))
        b = collect_counters(program.phase_trace(0))
        assert a.cycles == b.cycles
        assert np.array_equal(a.lsq_usage.counts, b.lsq_usage.counts)
        x1 = AdvancedFeatureExtractor().extract(a)
        x2 = AdvancedFeatureExtractor().extract(b)
        assert np.array_equal(x1, x2)

    def test_evaluator_deterministic_across_instances(self):
        program = build_program(spec2000_suite(("twolf",))[0], n_phases=2,
                                n_intervals=2, interval_length=2000)
        char = characterize(program.phase_trace(0))
        config = DesignSpace(seed=9).random_configuration()
        assert IntervalEvaluator().evaluate(char, config) == \
            IntervalEvaluator().evaluate(char, config)
