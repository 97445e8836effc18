"""A table-priced arena: the production adaptation loop over a known game.

:class:`TableArena` subclasses :class:`repro.control.arena.Arena` and
overrides only :meth:`~repro.control.arena.Arena.evaluate`: each (phase,
arm) pair is priced from a ``(time_ns, energy_pj)`` table instead of the
timing and power models.  Everything else is the production code —
``_run_policy_live``, ``oracle_run``, ``static_reference``, ``league`` and
the switch charges (``_switch_charge`` → ``charge_reconfiguration`` →
``ReconfigurationModel``) between real :class:`MicroarchConfig` arms — so
the arena's invariants can be checked exactly on games small enough to
solve by hand or by enumeration.

Two fakes complete the fixture: :class:`PhaseProgram`, whose interval
"traces" are their phase ids, and :class:`PhaseIdDetector`, which reports
those ids.  :class:`GreedyPolicy`, :class:`StickyPolicy` and
:class:`ForcedPolicy` are the test-only rivals.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import DesignSpace, MicroarchConfig
from repro.control.arena import (
    DEFAULT_SCENARIOS,
    AdaptivityPolicy,
    Arena,
    ArenaScenario,
    PolicyDecision,
    PolicyView,
    interval_reward,
)
from repro.phases.detector import Observation
from repro.power.metrics import EfficiencyResult

#: The single program every table game is played on.
GAME = "game"

PAPER, FREE, COSTLY = DEFAULT_SCENARIOS

#: Instructions per interval.  Table V stalls scale with
#: ``interval_length / 10M``, so at this length a paper-scenario switch
#: stalls for about 1-9 ns: comparable to table times of tens of ns.
INTERVAL_LENGTH = 10_000

#: Four distinct real configurations; a game with ``n`` arms plays the
#: first ``n``.
ARMS: tuple[MicroarchConfig, ...] = tuple(DesignSpace(seed=1).random_sample(4))

#: A ``(time_ns, energy_pj)`` price per arm, one row per phase.
Table = Sequence[Sequence[tuple[float, float]]]


class PhaseProgram:
    """Duck-typed program whose interval traces are their phase ids."""

    def __init__(self, phases: Sequence[int]) -> None:
        self.phases = tuple(phases)
        self.n_intervals = len(self.phases)
        self.interval_length = INTERVAL_LENGTH

    def interval_trace(self, interval: int) -> int:
        return self.phases[interval]


class PhaseIdDetector:
    """Reports the phase ids a :class:`PhaseProgram` carries."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._seen: set[int] = set()
        self._current: int | None = None

    def observe(self, phase: int) -> Observation:
        changed = phase != self._current
        new = phase not in self._seen
        self._seen.add(phase)
        self._current = phase
        return Observation(changed, phase, new, 1.0 if changed else 0.0)


class TableArena(Arena):
    """An :class:`Arena` over one :class:`PhaseProgram`, priced from
    ``table[phase][arm]``."""

    def __init__(self, phases: Sequence[int], table: Table) -> None:
        super().__init__({GAME: PhaseProgram(phases)}, ARMS[0],
                         detector_factory=PhaseIdDetector)
        self.arms = ARMS[:len(table[0])]
        self.table = table

    def __repr__(self) -> str:
        return (f"TableArena(phases={self.programs[GAME].phases!r}, "
                f"table={self.table!r})")

    def evaluate(self, program: str, interval: int,
                 config: MicroarchConfig) -> EfficiencyResult:
        phase = self.programs[program].interval_trace(interval)
        time_ns, energy_pj = self.table[phase][self.arms.index(config)]
        return EfficiencyResult(instructions=INTERVAL_LENGTH,
                                cycles=INTERVAL_LENGTH, time_ns=time_ns,
                                energy_pj=energy_pj)

    def uncharged_reward(self, interval: int, arm: MicroarchConfig) -> float:
        """The arena's reward for ``arm`` at ``interval`` with no switch."""
        return self.static_reference(GAME, arm, FREE).rewards[interval]

    def charged_reward(self, interval: int, source: MicroarchConfig,
                       target: MicroarchConfig,
                       scenario: ArenaScenario) -> float:
        """The arena's reward for switching ``source`` → ``target`` at
        ``interval`` under ``scenario``."""
        record = self.static_reference(GAME, target, scenario
                                       ).records[interval]
        charge = self._switch_charge(source, target, GAME, scenario)
        return interval_reward(record.time_ns + charge.stall_ns,
                               record.energy_pj + charge.energy_pj,
                               INTERVAL_LENGTH)

    def greedy_arm(self, interval: int) -> MicroarchConfig:
        """The best arm at ``interval`` with charges ignored (first max)."""
        return max(self.arms,
                   key=lambda arm: self.uncharged_reward(interval, arm))


class ForcedPolicy(AdaptivityPolicy):
    """Replays a fixed configuration sequence."""

    name = "forced"

    def __init__(self, path: Sequence[MicroarchConfig]) -> None:
        self.path = tuple(path)

    def decide(self, view: PolicyView) -> PolicyDecision:
        return PolicyDecision(self.path[view.interval])


class GreedyPolicy(AdaptivityPolicy):
    """The myopically best arm every interval, charges ignored."""

    name = "greedy"

    def __init__(self, arena: TableArena) -> None:
        self.arena = arena

    def decide(self, view: PolicyView) -> PolicyDecision:
        return PolicyDecision(self.arena.greedy_arm(view.interval))


class StickyPolicy(AdaptivityPolicy):
    """Greedy with hysteresis: switch only when the greedy arm, charged
    for the switch, still beats the held arm."""

    name = "sticky"

    def __init__(self, arena: TableArena, scenario: ArenaScenario) -> None:
        self.arena = arena
        self.scenario = scenario
        self._held: MicroarchConfig | None = None

    def reset(self, program: str) -> None:
        self._held = None

    def decide(self, view: PolicyView) -> PolicyDecision:
        greedy = self.arena.greedy_arm(view.interval)
        if self._held is None or (
                self.arena.charged_reward(view.interval, self._held, greedy,
                                          self.scenario)
                > self.arena.uncharged_reward(view.interval, self._held)):
            self._held = greedy
        return PolicyDecision(self._held)
