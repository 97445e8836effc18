"""Tests for the full arena harness against the real timing/power models."""

import dataclasses
import os

import numpy as np
import pytest

from repro import obs
from repro.config import DesignSpace, PROFILING_CONFIG
from repro.control.arena import (
    AdaptivityPolicy,
    Arena,
    ArenaRewardError,
    ArenaScenario,
    DEFAULT_SCENARIOS,
    EpsilonGreedyPolicy,
    LinUCBPolicy,
    ORACLE_NAME,
    PhaseDistancePolicy,
    SoftmaxPolicy,
    StaticPolicy,
    interval_reward,
)
from repro.counters import BasicFeatureExtractor
from repro.experiments.datastore import DataStore
from repro.model import ConfigurationPredictor
from repro.obs.shards import read_records, shard_path
from repro.phases.bbv_detector import BBVPhaseDetector
from repro.phases.detector import Observation, PhaseDetector
from repro.workloads import PhaseSpec, Program

from tests.reference_controller import run_reference_controller

PAPER = DEFAULT_SCENARIOS[0]
FREE = DEFAULT_SCENARIOS[1]
COSTLY = DEFAULT_SCENARIOS[2]


@pytest.fixture(scope="module")
def trained_predictor():
    """Cheap predictor (content irrelevant — arena mechanics under test)."""
    rng = np.random.default_rng(0)
    space = DesignSpace(seed=0)
    features, goods = [], []
    dim = BasicFeatureExtractor().dimension
    for _ in range(12):
        features.append(np.concatenate([rng.random(dim - 1), [1.0]]))
        goods.append([space.random_configuration() for _ in range(2)])
    return ConfigurationPredictor(max_iterations=20).fit(features, goods)


@pytest.fixture(scope="module")
def program():
    specs = (
        PhaseSpec(name="ar-a", code_blocks=24, footprint_blocks=128),
        PhaseSpec(name="ar-b", code_blocks=180, footprint_blocks=2048,
                  fp_frac=0.5, branch_frac=0.08),
    )
    return Program(name="ar", phase_specs=specs,
                   schedule=(0,) * 5 + (1,) * 5 + (0,) * 5,
                   interval_length=3000, seed=4)


@pytest.fixture(scope="module")
def arena(program, baseline_config):
    return Arena({"ar": program}, baseline_config)


@pytest.fixture(scope="module")
def arms(baseline_config):
    return list(DesignSpace(seed=2).random_sample(5)) + [baseline_config]


def softmax(trained_predictor):
    return SoftmaxPolicy(trained_predictor, feature_set="basic")


class TestBitIdentity:
    def test_softmax_matches_controller_bit_for_bit(self, arena, program,
                                                    trained_predictor):
        """The softmax policy run through the arena reproduces the
        reference figure 2 loop exactly — configs, flags, and float-equal
        accounting."""
        run = arena.run_policy(softmax(trained_predictor), "ar", PAPER)
        golden = run_reference_controller(
            trained_predictor, BasicFeatureExtractor(), program)
        assert len(run.records) == len(golden)
        for ours, theirs in zip(run.records, golden):
            assert ours.config == theirs.config
            assert ours.profiled == theirs.profiled
            assert ours.reconfigured == theirs.reconfigured
            assert ours.phase_id == theirs.phase_id
            # Float equality is deliberate: this is the bit-identity gate.
            assert ours.time_ns == theirs.time_ns
            assert ours.energy_pj == theirs.energy_pj
            assert ours.stall_ns == theirs.stall_ns
            assert ours.reconfig_energy_pj == theirs.reconfig_energy_pj

    def test_overheads_disabled_matches_controller_too(self, arena, program,
                                                       trained_predictor):
        run = arena.run_policy(softmax(trained_predictor), "ar", FREE)
        golden = run_reference_controller(
            trained_predictor, BasicFeatureExtractor(), program,
            overheads_enabled=False)
        assert all(o.stall_ns == 0.0 for o in run.records)
        for ours, theirs in zip(run.records, golden):
            assert ours.config == theirs.config
            assert ours.time_ns == theirs.time_ns
            assert ours.energy_pj == theirs.energy_pj


class TestEnergyUnits:
    """Records carry the evaluator's energy in pJ, the unit every
    reconfiguration charge is billed in."""

    def test_record_energy_is_the_evaluated_energy(
            self, arena, trained_predictor, baseline_config):
        runs = [
            arena.run_policy(softmax(trained_predictor), "ar", PAPER),
            arena.static_reference("ar", baseline_config, PAPER),
            arena.oracle_run("ar", PAPER,
                             [baseline_config, PROFILING_CONFIG]),
        ]
        for run in runs:
            for record in run.records:
                assert record.energy_pj == arena.evaluate(
                    "ar", record.interval, record.config).energy_pj

    def test_charge_energy_lowers_the_reward(self, arena, trained_predictor):
        """A charged interval scores below the same interval charged only
        its stall: the switch energy is billed, not lost to rounding."""
        run = arena.run_policy(softmax(trained_predictor), "ar", PAPER)
        charged = [(record, reward)
                   for record, reward in zip(run.records, run.rewards)
                   if record.reconfig_energy_pj > 0.0]
        assert charged
        for record, reward in charged:
            instructions = arena.evaluate("ar", record.interval,
                                          record.config).instructions
            stall_only = interval_reward(record.time_ns + record.stall_ns,
                                         record.energy_pj, instructions)
            assert reward < stall_only


class TestStaticEquality:
    def test_static_policy_equals_static_reference_exactly(
            self, arena, baseline_config):
        """A policy that always answers the static-best config scores
        exactly the uncharged static baseline (ISSUE 10 property 3 on
        the real models)."""
        run = arena.run_policy(StaticPolicy(baseline_config), "ar", PAPER)
        reference = arena.static_reference("ar", baseline_config, PAPER)
        assert run.net_reward == reference.net_reward
        assert run.rewards == reference.rewards
        assert run.reconfigurations == 0

    def test_first_interval_is_never_charged(self, arena, baseline_config):
        """The machine boots in the chosen config: no charge on interval
        0 unless the interval was spent profiling."""
        run = arena.run_policy(StaticPolicy(baseline_config), "ar", COSTLY)
        assert not run.records[0].reconfigured
        assert run.records[0].stall_ns == 0.0


class TestLeague:
    @pytest.fixture(scope="class")
    def league(self, arena, trained_predictor, arms, baseline_config):
        policies = [
            softmax(trained_predictor),
            StaticPolicy(baseline_config),
            PhaseDistancePolicy(trained_predictor, feature_set="basic"),
            LinUCBPolicy(arms),
            EpsilonGreedyPolicy(arms, seed=1),
        ]
        return arena.league(policies, PAPER)

    def test_oracle_tops_the_table(self, league):
        oracle = league.row(ORACLE_NAME)
        for row in league.rows:
            assert row.net_reward <= oracle.net_reward
        assert league.rows[0].net_reward == oracle.net_reward

    def test_regret_nonnegative_and_zero_for_oracle(self, league):
        assert league.row(ORACLE_NAME).oracle_regret == 0.0
        for row in league.rows:
            assert row.oracle_regret >= 0.0

    def test_static_rows_ratio_is_one(self, league):
        assert league.row("static-best").ratio_vs_static == pytest.approx(1.0)

    def test_csv_and_json_roundtrip(self, league):
        csv_text = league.to_csv()
        assert csv_text.splitlines()[0].startswith("policy,")
        assert len(csv_text.splitlines()) == len(league.rows) + 1
        payload = league.to_json()
        assert payload["scenario"] == "paper"
        assert {row["policy"] for row in payload["rows"]} == {
            row.policy for row in league.rows}
        assert ORACLE_NAME in league.render()

    def test_duplicate_policy_names_rejected(self, arena, baseline_config):
        with pytest.raises(ValueError, match="duplicate"):
            arena.league([StaticPolicy(baseline_config),
                          StaticPolicy(baseline_config)], PAPER)

    def test_oracle_name_reserved(self, arena, baseline_config):
        with pytest.raises(ValueError, match="reserved"):
            arena.league([StaticPolicy(baseline_config, name=ORACLE_NAME)],
                         PAPER)


class TestOverheadScenarios:
    def test_costly_overheads_never_help(self, arena, trained_predictor):
        """The same policy cannot do better when switches cost more
        (its decisions may change, but the softmax policy's decisions
        are overhead-blind, so its trajectory is fixed)."""
        cheap = arena.run_policy(softmax(trained_predictor), "ar", PAPER)
        dear = arena.run_policy(softmax(trained_predictor), "ar", COSTLY)
        assert [r.config for r in dear.records] == [
            r.config for r in cheap.records]
        assert dear.net_reward <= cheap.net_reward

    def test_phase_distance_learns_to_stay_put(self, program,
                                               baseline_config,
                                               trained_predictor):
        """Overhead larger than any achievable gain: the hysteresis
        policy must adapt less than under the paper's accounting."""
        arena = Arena({"ar": program}, baseline_config)
        punitive = ArenaScenario("punitive", overhead_multiplier=2000.0)
        policy = PhaseDistancePolicy(trained_predictor, feature_set="basic")
        dear = arena.run_policy(policy, "ar", punitive)
        cheap = arena.run_policy(policy, "ar", PAPER)
        assert dear.reconfigurations < cheap.reconfigurations

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            ArenaScenario("bad", overhead_multiplier=-1.0)


class TestRewardGuard:
    def test_nonpositive_time_rejected(self):
        with pytest.raises(ArenaRewardError):
            interval_reward(0.0, 100.0, 1000)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ArenaRewardError):
            interval_reward(100.0, -5.0, 1000)

    def test_nan_rejected(self):
        with pytest.raises(ArenaRewardError):
            interval_reward(float("nan"), 100.0, 1000)

    def test_valid_interval_scores_finite_log(self):
        reward = interval_reward(1000.0, 5e6, 3000)
        assert np.isfinite(reward)


class TestCaching:
    def test_runs_are_served_from_the_store(self, program, baseline_config,
                                            tmp_path):
        store = DataStore(tmp_path)
        first = Arena({"ar": program}, baseline_config, store=store,
                      cache_tag="t")
        policy = StaticPolicy(baseline_config)
        live = first.run_policy(policy, "ar", PAPER)
        assert store.misses >= 1
        second = Arena({"ar": program}, baseline_config, store=store,
                       cache_tag="t")
        cached = second.run_policy(policy, "ar", PAPER)
        assert store.hits >= 1
        assert cached.rewards == live.rewards
        assert [r.config for r in cached.records] == [
            r.config for r in live.records]

    def test_cache_key_covers_policy_identity(self, program, baseline_config,
                                              arms, tmp_path):
        """Different seeds must not share cached trajectories."""
        store = DataStore(tmp_path)
        arena = Arena({"ar": program}, baseline_config, store=store,
                      cache_tag="t")
        arena.run_policy(EpsilonGreedyPolicy(arms, seed=1), "ar", PAPER)
        misses = store.misses
        arena.run_policy(EpsilonGreedyPolicy(arms, seed=2), "ar", PAPER)
        assert store.misses == misses + 1

    def test_store_requires_cache_tag(self, program, baseline_config,
                                      tmp_path):
        with pytest.raises(ValueError, match="cache_tag"):
            Arena({"ar": program}, baseline_config,
                  store=DataStore(tmp_path))


class TestConstruction:
    def test_empty_suite_rejected(self, baseline_config):
        with pytest.raises(ValueError, match="at least one program"):
            Arena({}, baseline_config)

    def test_max_intervals_caps_runs(self, program, baseline_config):
        arena = Arena({"ar": program}, baseline_config, max_intervals=4)
        run = arena.run_policy(StaticPolicy(baseline_config), "ar", PAPER)
        assert run.intervals == 4

    def test_profiling_interval_runs_profiling_config(self, arena,
                                                      trained_predictor):
        run = arena.run_policy(softmax(trained_predictor), "ar", PAPER)
        assert any(r.profiled for r in run.records)
        for record in run.records:
            if record.profiled:
                assert record.config == PROFILING_CONFIG


class RecordingPolicy(AdaptivityPolicy):
    """Answers like ``inner`` and keeps, per run, every verdict it saw."""

    def __init__(self, inner: AdaptivityPolicy, name: str) -> None:
        self.inner = inner
        self.name = name
        self.runs: list[tuple[str, list[Observation]]] = []

    def reset(self, program):
        self.inner.reset(program)
        self.runs.append((program, []))

    def decide(self, view):
        self.runs[-1][1].append(view.observation)
        return self.inner.decide(view)

    def update(self, feedback):
        self.inner.update(feedback)


class TestSharedVerdicts:
    """The detector runs once per program per arena, and every run reads
    the verdicts a fresh detector gives on the same traces."""

    INTERVALS = 12

    def fresh_verdicts(self, arena, program, detector):
        return [detector.observe(arena.programs[program].interval_trace(i))
                for i in range(self.INTERVALS)]

    @pytest.mark.parametrize("factory", [PhaseDetector, BBVPhaseDetector])
    def test_every_run_sees_a_fresh_detectors_verdicts(
            self, quick_pipeline, arms, baseline_config, factory):
        arena = Arena(quick_pipeline.programs, baseline_config,
                      max_intervals=self.INTERVALS, detector_factory=factory)
        recorders = [
            RecordingPolicy(StaticPolicy(baseline_config), "rec-static"),
            RecordingPolicy(EpsilonGreedyPolicy(arms, seed=1), "rec-greedy"),
        ]
        for scenario in (PAPER, COSTLY):
            arena.league(recorders, scenario)
        expected = {program: self.fresh_verdicts(arena, program, factory())
                    for program in arena.programs}
        for recorder in recorders:
            assert len(recorder.runs) == 2 * len(arena.programs)
            for program, seen in recorder.runs:
                assert seen == expected[program], (recorder.name, program)

    def test_detector_is_built_once_per_program(self, program,
                                                baseline_config,
                                                trained_predictor):
        built = []

        def counting_factory():
            built.append(1)
            return PhaseDetector()

        other = Program(name="ar2", phase_specs=program.phase_specs,
                        schedule=(1, 1, 0, 0), interval_length=3000, seed=5)
        arena = Arena({"ar": program, "ar2": other}, baseline_config,
                      detector_factory=counting_factory)
        policies = [StaticPolicy(baseline_config),
                    softmax(trained_predictor)]
        for scenario in (PAPER, FREE):
            arena.league(policies, scenario)
        arena.run_policy(softmax(trained_predictor), "ar", COSTLY)
        assert len(built) == 2

    def test_detect_span_once_per_program(self, program, baseline_config,
                                          tmp_path):
        obs.configure(enabled=True, directory=str(tmp_path))
        try:
            arena = Arena({"ar": program}, baseline_config)
            for scenario in (PAPER, FREE):
                arena.run_policy(StaticPolicy(baseline_config), "ar",
                                 scenario)
            records = list(read_records(shard_path(tmp_path, os.getpid())))
        finally:
            obs.reset_from_env()
        assert [r["attrs"] for r in records if r["name"] == "arena.detect"
                ] == [{"program": "ar", "intervals": program.n_intervals}]

    def test_observations_are_immutable(self):
        observation = Observation(True, 0, True, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            observation.phase_id = 1
