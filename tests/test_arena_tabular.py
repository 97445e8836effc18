"""Hand-checked games on the table-priced arena (:mod:`tests.table_arena`).

Each game is small enough to solve by hand once the production switch
charges are known; the charges themselves come from the arena
(``charged_reward``), so the expected answers hold before and after any
recalibration of Table V.
"""

import math

import pytest

from repro.control.arena import (
    ArenaRewardError,
    ArenaScenario,
    EpsilonGreedyPolicy,
    StaticPolicy,
)

from tests.table_arena import (
    ARMS,
    COSTLY,
    FREE,
    GAME,
    PAPER,
    ForcedPolicy,
    GreedyPolicy,
    StickyPolicy,
    TableArena,
)

A, B = ARMS[:2]
PHASES = (0, 1, 0, 1, 1)
#: Arm A is better in phase 0, arm B four times faster in phase 1.
TABLE = (((20.0, 1e4), (25.0, 1e4)),
         ((80.0, 1e4), (20.0, 1e4)))
PUNITIVE = ArenaScenario("punitive", overhead_multiplier=2000.0)


def game(phases=PHASES, table=TABLE) -> TableArena:
    return TableArena(phases, table)


def penalty(arena, interval, source, target, scenario=PAPER) -> float:
    """Reward lost to the charge of switching into ``target``."""
    return (arena.uncharged_reward(interval, target)
            - arena.charged_reward(interval, source, target, scenario))


class TestScenarioValidation:
    def test_nan_reward_rejected(self):
        """The arena's reward guard refuses an unscorable table entry the
        moment a run prices it."""
        arena = game(table=(((float("nan"), 1e4), (25.0, 1e4)),
                            ((80.0, 1e4), (20.0, 1e4))))
        with pytest.raises(ArenaRewardError, match="unscorable"):
            arena.run_policy(StaticPolicy(A), GAME, PAPER)

    def test_infinite_reward_rejected(self):
        arena = game(table=(((20.0, float("inf")), (25.0, 1e4)),
                            ((80.0, 1e4), (20.0, 1e4))))
        with pytest.raises(ArenaRewardError, match="unscorable"):
            arena.run_policy(StaticPolicy(A), GAME, PAPER)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            ArenaScenario("bad", overhead_multiplier=-1.0)

    def test_single_step_scenario_allowed(self):
        """Single-phase/single-interval games are legal edge cases."""
        arena = game(phases=(0,))
        run = arena.run_policy(StaticPolicy(B), GAME, PAPER)
        assert run.reconfigurations == 0
        assert run.net_reward == arena.uncharged_reward(0, B)
        oracle = arena.oracle_run(GAME, PAPER, arena.arms)
        assert oracle.decisions == [A]


class TestRunMechanics:
    def test_charges_subtracted_on_switch(self):
        arena = game(phases=(0, 1))
        run = arena.run_policy(ForcedPolicy((A, B)), GAME, PAPER)
        assert run.reconfigurations == 1
        assert run.records[1].stall_ns > 0.0
        assert run.rewards[1] == arena.charged_reward(1, A, B, PAPER)
        assert run.rewards[1] < arena.uncharged_reward(1, B)

    def test_first_step_never_charged(self):
        arena = game(phases=(0,))
        scenario = ArenaScenario("x100", overhead_multiplier=100.0)
        run = arena.run_policy(ForcedPolicy((B,)), GAME, scenario)
        assert run.reconfigurations == 0
        assert run.net_reward == arena.uncharged_reward(0, B)

    def test_multiplier_scales_charges(self):
        arena = game(phases=(0, 1))
        double = ArenaScenario("x2", overhead_multiplier=2.0)
        once = arena.run_policy(ForcedPolicy((A, B)), GAME, PAPER)
        twice = arena.run_policy(ForcedPolicy((A, B)), GAME, double)
        assert twice.records[1].stall_ns == pytest.approx(
            2.0 * once.records[1].stall_ns)
        assert twice.net_reward < once.net_reward

    def test_static_policy_scores_static_score_exactly(self):
        arena = game()
        for arm in arena.arms:
            run = arena.run_policy(StaticPolicy(arm), GAME, COSTLY)
            # Bit-exact: identical left-to-right float summation.
            assert run.net_reward == arena.static_reference(
                GAME, arm, COSTLY).net_reward
            assert run.reconfigurations == 0


class TestOracle:
    def test_known_optimum(self):
        """Hand-checkable: arm B's phase-1 gain dwarfs any charge, and
        arm A's phase-0 gain g0 is set between one and two switch
        penalties.  The oracle then switches to B at the first phase flip
        and stays: switching back for the phase-0 interval would pay two
        penalties to gain g0, and starting on B would forgo g0 to save
        one."""
        probe = game()
        p_into_b = penalty(probe, 1, A, B)
        p_into_a = penalty(probe, 2, B, A)
        g0 = p_into_b + p_into_a / 2
        # reward = log(ips^3/W) falls by 2*log(t) when time grows by t.
        slow_b = 20.0 * math.exp(g0 / 2)
        arena = game(table=(((20.0, 1e4), (slow_b, 1e4)),
                            ((80.0, 1e4), (20.0, 1e4))))
        oracle = arena.oracle_run(GAME, PAPER, arena.arms)
        assert oracle.decisions == [A, B, B, B, B]
        assert oracle.reconfigurations == 1
        expected = (arena.uncharged_reward(0, A)
                    + arena.charged_reward(1, A, B, PAPER)
                    + arena.uncharged_reward(2, B)
                    + arena.uncharged_reward(3, B)
                    + arena.uncharged_reward(4, B))
        assert oracle.net_reward == pytest.approx(expected)

    def test_punitive_overheads_make_oracle_static(self):
        """When every switch costs more than any gain, the optimal
        sequence is a static one — the stay-put limit."""
        arena = game()
        oracle = arena.oracle_run(GAME, PUNITIVE, arena.arms)
        assert oracle.reconfigurations == 0
        best_static = max(arena.static_reference(GAME, arm, PUNITIVE)
                          .net_reward for arm in arena.arms)
        assert oracle.net_reward == best_static

    def test_free_switching_tracks_greedy(self):
        arena = game()
        oracle = arena.oracle_run(GAME, FREE, arena.arms)
        greedy = arena.run_policy(GreedyPolicy(arena), GAME, FREE)
        assert greedy.decisions == [A, B, A, B, B]
        assert oracle.net_reward == greedy.net_reward

    def test_dominates_fixed_policies(self):
        arena = game()
        oracle = arena.oracle_run(GAME, PAPER, arena.arms)
        rivals = [GreedyPolicy(arena), StickyPolicy(arena, PAPER),
                  StaticPolicy(A), StaticPolicy(B),
                  EpsilonGreedyPolicy(arena.arms, seed=3)]
        for rival in rivals:
            run = arena.run_policy(rival, GAME, PAPER)
            assert oracle.net_reward >= run.net_reward


class TestPolicies:
    def test_sticky_stays_put_when_cost_exceeds_gain(self):
        """Hysteresis edge case: overhead larger than any achievable
        gain means the sticky policy never switches."""
        arena = game()
        run = arena.run_policy(StickyPolicy(arena, PUNITIVE), GAME, PUNITIVE)
        assert run.reconfigurations == 0

    def test_sticky_switches_when_gain_justifies(self):
        arena = game()
        run = arena.run_policy(StickyPolicy(arena, PAPER), GAME, PAPER)
        assert run.reconfigurations >= 1

    def test_random_is_reproducible(self):
        arena = game()
        first = arena.run_policy(EpsilonGreedyPolicy(arena.arms, seed=9),
                                 GAME, PAPER)
        second = arena.run_policy(EpsilonGreedyPolicy(arena.arms, seed=9),
                                  GAME, PAPER)
        assert first.decisions == second.decisions
        assert first.rewards == second.rewards
