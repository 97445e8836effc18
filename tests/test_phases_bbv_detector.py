"""Tests for the BBV-based online detector (the [41] alternative)."""

import pytest

from repro.phases import BBVPhaseDetector, PhaseDetector
from repro.workloads import PhaseSpec, Program


@pytest.fixture(scope="module")
def program():
    specs = (
        PhaseSpec(name="bbv-a", code_blocks=24, footprint_blocks=128),
        PhaseSpec(name="bbv-b", code_blocks=200, footprint_blocks=2048,
                  fp_frac=0.5, branch_frac=0.08),
    )
    return Program(name="bbv", phase_specs=specs,
                   schedule=(0, 0, 0, 1, 1, 1, 0, 0, 1, 1),
                   interval_length=3000, seed=2)


class TestBBVPhaseDetector:
    def test_first_interval_is_new(self, program):
        detector = BBVPhaseDetector()
        obs = detector.observe(program.interval_trace(0))
        assert obs.phase_changed and obs.is_new_phase

    def test_stability_within_phase(self, program):
        detector = BBVPhaseDetector()
        detector.observe(program.interval_trace(0))
        assert not detector.observe(program.interval_trace(1)).phase_changed

    def test_detects_and_recognises(self, program):
        detector = BBVPhaseDetector()
        ids = [detector.observe(program.interval_trace(i)).phase_id
               for i in range(program.n_intervals)]
        assert ids[3] != ids[0]  # change detected
        assert ids[6] == ids[0]  # recurrence recognised
        assert detector.known_phases <= 3

    def test_reset(self, program):
        detector = BBVPhaseDetector()
        detector.observe(program.interval_trace(0))
        detector.reset()
        assert detector.known_phases == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BBVPhaseDetector(change_threshold=0.0)
        with pytest.raises(ValueError):
            BBVPhaseDetector(dim=1)

    def test_agrees_with_signature_detector(self, program):
        """Both techniques should segment this schedule similarly."""
        bbv = BBVPhaseDetector()
        sig = PhaseDetector()
        bbv_changes = []
        sig_changes = []
        for i in range(program.n_intervals):
            trace = program.interval_trace(i)
            bbv_changes.append(bbv.observe(trace).phase_changed)
            sig_changes.append(sig.observe(trace).phase_changed)
        agreement = sum(a == b for a, b in zip(bbv_changes, sig_changes))
        assert agreement >= 0.7 * program.n_intervals

    def test_drives_the_controller(self, program):
        """The arena's control loop accepts either detector
        implementation."""
        import numpy as np
        from repro.config import DesignSpace
        from repro.control.arena import (
            DEFAULT_SCENARIOS,
            Arena,
            SoftmaxPolicy,
        )
        from repro.counters import BasicFeatureExtractor
        from repro.model import ConfigurationPredictor

        rng = np.random.default_rng(0)
        space = DesignSpace(seed=0)
        dim = BasicFeatureExtractor().dimension
        predictor = ConfigurationPredictor(max_iterations=15).fit(
            [np.concatenate([rng.random(dim - 1), [1.0]])
             for _ in range(6)],
            [[space.random_configuration()] for _ in range(6)],
        )
        arena = Arena({"bbv": program}, space.random_configuration(),
                      max_intervals=6, detector_factory=BBVPhaseDetector)
        report = arena.run_policy(
            SoftmaxPolicy(predictor, feature_set="basic"), "bbv",
            DEFAULT_SCENARIOS[0])
        assert report.intervals == 6
        assert report.profiled_intervals >= 1
