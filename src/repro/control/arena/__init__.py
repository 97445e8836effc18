"""The policy arena: the paper's adaptation loop with pluggable policies.

See :mod:`repro.control.arena.policy` for the interface,
:mod:`repro.control.arena.harness` for the league machinery and
``docs/arena.md`` for the guide.
"""

from repro.control.arena.bandit import EpsilonGreedyPolicy, LinUCBPolicy
from repro.control.arena.harness import (
    DEFAULT_SCENARIOS,
    ORACLE_NAME,
    Arena,
    ArenaRewardError,
    ArenaScenario,
    LeagueRow,
    LeagueTable,
    PolicyRunReport,
    interval_reward,
)
from repro.control.arena.policies import (
    PhaseDistancePolicy,
    SoftmaxPolicy,
    StaticPolicy,
    predictor_digest,
)
from repro.control.arena.policy import (
    AdaptivityPolicy,
    PolicyDecision,
    PolicyFeedback,
    PolicyView,
)

__all__ = [
    "AdaptivityPolicy",
    "Arena",
    "ArenaRewardError",
    "ArenaScenario",
    "DEFAULT_SCENARIOS",
    "EpsilonGreedyPolicy",
    "LeagueRow",
    "LeagueTable",
    "LinUCBPolicy",
    "ORACLE_NAME",
    "PhaseDistancePolicy",
    "PolicyDecision",
    "PolicyFeedback",
    "PolicyRunReport",
    "PolicyView",
    "SoftmaxPolicy",
    "StaticPolicy",
    "interval_reward",
    "predictor_digest",
]
