"""Property-based tests (hypothesis) for the arena's core invariants.

Run on the production arena loop over table-priced games
(:mod:`tests.table_arena`): hypothesis draws a phase sequence and a
``(time_ns, energy_pj)`` price per (phase, arm), and every switch is
charged by the production Table V accounting between real
configurations.  On these games the invariants hold exactly:

* the DP oracle equals the best of all forced configuration paths and
  dominates every policy under every overhead regime;
* charging *more* overhead never increases a fixed decision sequence's
  net reward;
* a policy that always picks one arm scores exactly the static
  reference — bit-exact, same float summation.
"""

import itertools

import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.arena import (
    DEFAULT_SCENARIOS,
    ORACLE_NAME,
    ArenaScenario,
    EpsilonGreedyPolicy,
    StaticPolicy,
)

from tests.table_arena import (
    ARMS,
    FREE,
    GAME,
    ForcedPolicy,
    GreedyPolicy,
    StickyPolicy,
    TableArena,
)

#: Replaying a trajectory under a different multiplier changes the float
#: operations of every charged interval, so monotonicity comparisons get
#: float-level slack.  Dominance and replay comparisons need none.
DOMINANCE_TOL = 1e-9

#: Table prices: a paper-scenario stall (about 1-9 ns) is a sizeable
#: fraction of these times, so the charges change which paths are best.
times = st.floats(min_value=20.0, max_value=40.0)
energies = st.floats(min_value=1e4, max_value=2e4)
multipliers = st.floats(min_value=0.0, max_value=5.0)
scenarios = st.sampled_from(DEFAULT_SCENARIOS)


@st.composite
def games(draw, max_arms=len(ARMS), max_intervals=10):
    n_arms = draw(st.integers(min_value=1, max_value=max_arms))
    n_phases = draw(st.integers(min_value=1, max_value=3))
    phases = draw(st.lists(st.integers(min_value=0, max_value=n_phases - 1),
                           min_size=1, max_size=max_intervals))
    table = [[(draw(times), draw(energies)) for _ in range(n_arms)]
             for _ in range(n_phases)]
    return TableArena(phases, table)


def roster(arena: TableArena, scenario: ArenaScenario):
    policies = [GreedyPolicy(arena), StickyPolicy(arena, scenario),
                EpsilonGreedyPolicy(arena.arms, seed=1)]
    policies.extend(StaticPolicy(arm, name=f"static-{i}")
                    for i, arm in enumerate(arena.arms))
    return policies


@settings(max_examples=80, deadline=None)
@given(games(max_arms=3, max_intervals=5), scenarios)
def test_oracle_equals_best_forced_path(arena, scenario):
    """The charge-aware DP finds exactly the best of every configuration
    path run through the live loop."""
    best = max(
        arena.run_policy(ForcedPolicy(path), GAME, scenario).net_reward
        for path in itertools.product(arena.arms, repeat=len(
            arena.programs[GAME].phases)))
    assert arena.oracle_run(GAME, scenario, arena.arms).net_reward == best


@settings(max_examples=120, deadline=None)
@given(games(), scenarios)
def test_oracle_dominates_every_policy(arena, scenario):
    """No policy beats the charge-aware DP bound — checked on the league
    table, where the oracle row is built."""
    league = arena.league(roster(arena, scenario), scenario)
    oracle = league.row(ORACLE_NAME).net_reward
    assert all(row.net_reward <= oracle for row in league.rows)


@settings(max_examples=120, deadline=None)
@given(games(), multipliers, multipliers)
def test_overhead_never_increases_net_reward(arena, multiplier, extra):
    """Replaying the same decisions under a larger overhead multiplier
    can only lower the net reward."""
    cheaper = ArenaScenario("cheaper", overhead_multiplier=multiplier)
    dearer = ArenaScenario("dearer", overhead_multiplier=multiplier + extra)
    for policy in roster(arena, cheaper):
        path = arena.run_policy(policy, GAME, cheaper).decisions
        base = arena.run_policy(ForcedPolicy(path), GAME, cheaper)
        charged = arena.run_policy(ForcedPolicy(path), GAME, dearer)
        assert charged.net_reward <= base.net_reward + DOMINANCE_TOL


@settings(max_examples=120, deadline=None)
@given(games(), scenarios)
def test_static_policy_scores_static_baseline_exactly(arena, scenario):
    """An always-one-arm policy is charge-free and accumulates exactly
    the static reference — no tolerance."""
    for arm in arena.arms:
        run = arena.run_policy(StaticPolicy(arm), GAME, scenario)
        assert run.rewards == arena.static_reference(GAME, arm,
                                                     scenario).rewards
        assert run.reconfigurations == 0


@settings(max_examples=60, deadline=None)
@given(games(), scenarios)
def test_oracle_weakly_improves_as_overheads_drop(arena, scenario):
    """Freeing the switches can only raise the attainable optimum."""
    charged = arena.oracle_run(GAME, scenario, arena.arms).net_reward
    free = arena.oracle_run(GAME, FREE, arena.arms).net_reward
    assert charged <= free + DOMINANCE_TOL


@settings(max_examples=60, deadline=None)
@given(games(), scenarios)
def test_oracle_path_replay_is_consistent(arena, scenario):
    """The oracle's reported net reward is its own path's net reward
    through the live loop — the dominance comparison is apples-to-apples."""
    oracle = arena.oracle_run(GAME, scenario, arena.arms)
    replay = arena.run_policy(ForcedPolicy(oracle.decisions), GAME, scenario)
    assert replay.net_reward == oracle.net_reward
    assert replay.decisions == oracle.decisions
