"""The policy arena: the paper's adaptation loop with pluggable policies.

The :class:`Arena` is the one statement of the paper's figure 2 loop
(detect → decide → execute → charge).  It drives every registered
:class:`~repro.control.arena.policy.AdaptivityPolicy` through it with
identical accounting:

* a fresh online :class:`~repro.phases.detector.PhaseDetector` per run
  (deterministic given the traces) reports phase changes;
* intervals are priced by the scalar
  :class:`~repro.timing.interval.IntervalEvaluator` over memoised
  characterizations (:meth:`Arena.evaluate`);
* reconfigurations are billed through
  :func:`~repro.control.accounting.charge_reconfiguration` (Table V),
  scaled per :class:`ArenaScenario` to study overhead regimes.

The paper's controller is
:class:`~repro.control.arena.policies.SoftmaxPolicy` run through this
loop under the ``paper`` scenario.

**Reward.**  An interval's reward is the natural log of its
ips³/W energy efficiency *including* the reconfiguration charge billed
to it.  Log rewards are additive — a run's net reward is the log of the
geometric-mean interval efficiency times the interval count — which is
what lets the arena compute a true *overhead-aware oracle* by dynamic
programming over the executed-configuration set, and what the
league-table ratios (Fig. 4-style, vs. the best-static baseline) are
derived from.

**Oracle.**  The oracle row is not a live policy: after every policy has
run, the arena collects the union of configurations any of them executed
(plus the static baseline) and solves, per program, the maximum-net-reward
configuration sequence with switch charges — the best any policy
restricted to those configurations could possibly have scored, profiling
not required.

Charging conventions are the paper's controller's: the first interval of
a run is free (the machine boots in the chosen configuration), a profile
interval runs on the profiling configuration and is billed the switch
*into its target* (section III-B1), and a recognised-phase switch is
billed source → target.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.config.configuration import PROFILING_CONFIG, MicroarchConfig
from repro.control.accounting import (
    ReconfigurationCharge,
    charge_reconfiguration,
)
from repro.control.arena.policy import (
    AdaptivityPolicy,
    IntervalRecord,
    PolicyFeedback,
    PolicyView,
)
from repro.control.reconfiguration import ReconfigurationCost, ReconfigurationModel
from repro.counters.collector import PhaseCounters, collect_counters
from repro.counters.features import (
    AdvancedFeatureExtractor,
    BasicFeatureExtractor,
    FeatureExtractor,
)
from repro.phases.detector import PhaseDetector, signature_of
from repro.power.metrics import EfficiencyResult, energy_efficiency
from repro.timing.characterize import TraceCharacterization, characterize
from repro.timing.interval import IntervalEvaluator
from repro.workloads.program import Program
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing-only (experiments sits above
    # control in the layering; the store is duck-typed at runtime)
    from repro.experiments.datastore import DataStore

__all__ = [
    "Arena",
    "ArenaRewardError",
    "ArenaScenario",
    "DEFAULT_SCENARIOS",
    "LeagueRow",
    "LeagueTable",
    "ORACLE_NAME",
    "PolicyRunReport",
    "interval_reward",
]

#: League-table name of the post-hoc dynamic-programming oracle.
ORACLE_NAME = "oracle"


class ArenaRewardError(ValueError):
    """An interval produced a reward the league cannot score.

    Raised when an interval's accounted time or energy is non-positive
    or its log-efficiency is not finite — a corrupted evaluation would
    otherwise poison every downstream comparison silently.
    """


@dataclass(frozen=True)
class ArenaScenario:
    """One overhead regime under which policies compete.

    ``overhead_multiplier`` scales the billed stall and energy of every
    reconfiguration; 1.0 is the paper's accounting bit-for-bit (see
    :mod:`repro.control.accounting`) and 0.0 switches charging off.
    """

    name: str
    overhead_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.overhead_multiplier < 0:
            raise ValueError("overhead multiplier must be >= 0")

    def fingerprint(self) -> str:
        return f"{self.name}-x{self.overhead_multiplier!r}"


#: The three regimes the league table reports by default: the paper's
#: accounting, overheads switched off (section VIII ablation), and a
#: punitive regime where hysteresis should dominate greedy adaptation.
DEFAULT_SCENARIOS: tuple[ArenaScenario, ...] = (
    ArenaScenario("paper"),
    ArenaScenario("free", overhead_multiplier=0.0),
    ArenaScenario("costly", overhead_multiplier=25.0),
)


def interval_reward(time_ns: float, energy_pj: float,
                    instructions: int) -> float:
    """Log ips³/W of one interval from its accounted time and energy.

    Raises:
        ArenaRewardError: non-positive time/energy or non-finite result
            (the negative-reward guard).
    """
    if time_ns <= 0 or energy_pj <= 0:
        raise ArenaRewardError(
            f"interval has non-positive accounting: time_ns={time_ns!r} "
            f"energy_pj={energy_pj!r}")
    ips = instructions / (time_ns * 1e-9)
    watts = energy_pj / time_ns * 1e-3
    efficiency = energy_efficiency(ips, watts)
    if not (efficiency > 0 and math.isfinite(efficiency)):
        raise ArenaRewardError(f"unscorable efficiency {efficiency!r}")
    return math.log(efficiency)


def _record_reward(record: IntervalRecord, instructions: int) -> float:
    return interval_reward(record.time_ns + record.stall_ns,
                           record.energy_pj + record.reconfig_energy_pj,
                           instructions)


@dataclass
class PolicyRunReport:
    """One (policy, program, scenario) run with its reward trail."""

    policy: str
    program: str
    scenario: str
    records: list[IntervalRecord]
    rewards: list[float]
    #: Configuration *adopted* each interval (equals the executed config
    #: except on profile intervals, which execute the profiling config).
    decisions: list[MicroarchConfig]

    @property
    def net_reward(self) -> float:
        return sum(self.rewards)

    @property
    def intervals(self) -> int:
        return len(self.records)

    @property
    def reconfigurations(self) -> int:
        return sum(1 for r in self.records if r.reconfigured)

    @property
    def profiled_intervals(self) -> int:
        return sum(1 for r in self.records if r.profiled)

    @property
    def reconfiguration_rate(self) -> float:
        """Reconfigurations per interval (paper: ~1 in 10)."""
        return self.reconfigurations / max(self.intervals, 1)

    @property
    def time_ns(self) -> float:
        """Total time, reconfiguration stalls included."""
        return sum(r.time_ns + r.stall_ns for r in self.records)

    @property
    def energy_pj(self) -> float:
        """Total energy, reconfiguration charges included."""
        return sum(r.energy_pj + r.reconfig_energy_pj for r in self.records)

    @property
    def overhead_time_ns(self) -> float:
        return sum(r.stall_ns for r in self.records)

    @property
    def overhead_energy_pj(self) -> float:
        return sum(r.reconfig_energy_pj for r in self.records)

    def efficiency(self, total_instructions: int) -> float:
        """ips^3/W over the whole run."""
        ips = total_instructions / (self.time_ns * 1e-9)
        watts = self.energy_pj / self.time_ns * 1e-3
        return energy_efficiency(ips, watts)


@dataclass(frozen=True)
class LeagueRow:
    """One policy's line in a scenario's league table."""

    policy: str
    mean_reward: float  # net reward per interval (log-efficiency units)
    net_reward: float
    ratio_vs_static: float  # Fig. 4-style geomean efficiency ratio
    reconfigurations: int
    reconfiguration_rate: float
    profiled_intervals: int
    oracle_regret: float  # oracle mean reward minus this row's
    per_program: dict[str, float]  # net reward per program

    def as_dict(self) -> dict[str, object]:
        row: dict[str, object] = {
            "policy": self.policy,
            "mean_reward": self.mean_reward,
            "net_reward": self.net_reward,
            "ratio_vs_static": self.ratio_vs_static,
            "reconfigurations": self.reconfigurations,
            "reconfiguration_rate": self.reconfiguration_rate,
            "profiled_intervals": self.profiled_intervals,
            "oracle_regret": self.oracle_regret,
        }
        for program in sorted(self.per_program):
            row[f"net[{program}]"] = self.per_program[program]
        return row


@dataclass(frozen=True)
class LeagueTable:
    """Per-scenario head-to-head standings, best policy first."""

    scenario: str
    rows: tuple[LeagueRow, ...]
    programs: tuple[str, ...]
    intervals: int  # total intervals per policy across the suite

    def row(self, policy: str) -> LeagueRow:
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(f"no league row for policy {policy!r}")

    def to_json(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "programs": list(self.programs),
            "intervals": self.intervals,
            "rows": [row.as_dict() for row in self.rows],
        }

    def to_csv(self) -> str:
        buffer = io.StringIO()
        fields = list(self.rows[0].as_dict()) if self.rows else ["policy"]
        writer = csv.DictWriter(buffer, fieldnames=fields)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row.as_dict())
        return buffer.getvalue()

    def render(self) -> str:
        lines = [
            f"arena league — scenario '{self.scenario}' "
            f"({len(self.programs)} programs, {self.intervals} intervals)",
            f"{'policy':<18} {'mean rwd':>9} {'vs static':>9} "
            f"{'reconf':>6} {'rate':>6} {'profiled':>8} {'regret':>8}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.policy:<18} {row.mean_reward:>9.4f} "
                f"{row.ratio_vs_static:>9.3f} {row.reconfigurations:>6d} "
                f"{row.reconfiguration_rate:>6.1%} "
                f"{row.profiled_intervals:>8d} {row.oracle_regret:>8.4f}"
            )
        return "\n".join(lines)


class Arena:
    """Runs pluggable adaptivity policies head-to-head over a suite.

    Args:
        programs: the benchmark suite (name → :class:`Program`).
        baseline_config: the best-static reference the league ratios are
            computed against (and a guaranteed member of the oracle's
            configuration set).
        max_intervals: cap per program (``None`` = whole schedule).
        detector_factory: builds the per-run phase detector.
        store: optional :class:`~repro.experiments.datastore.DataStore`;
            when given, per-(policy, program, scenario) runs are cached
            under ``cache_tag`` and served from disk on re-runs.
        cache_tag: store namespace component (e.g. the pipeline scale
            tag) — required when ``store`` is given.
    """

    def __init__(
        self,
        programs: Mapping[str, Program],
        baseline_config: MicroarchConfig,
        *,
        max_intervals: int | None = None,
        detector_factory: Callable[[], PhaseDetector] = PhaseDetector,
        store: "DataStore | None" = None,
        cache_tag: str = "",
    ) -> None:
        if not programs:
            raise ValueError("arena needs at least one program")
        if store is not None and not cache_tag:
            raise ValueError("cache_tag is required when a store is given")
        self.programs = dict(programs)
        self.baseline_config = baseline_config
        self.max_intervals = max_intervals
        self.detector_factory = detector_factory
        self.store = store
        self.cache_tag = cache_tag
        self.reconfiguration = ReconfigurationModel()
        self._evaluator = IntervalEvaluator()
        self._extractors: dict[str, FeatureExtractor] = {
            "advanced": AdvancedFeatureExtractor(),
            "basic": BasicFeatureExtractor(),
        }
        self._traces: dict[tuple[str, int], Trace] = {}
        self._chars: dict[tuple[str, int], TraceCharacterization] = {}
        self._counters: dict[tuple[str, int], PhaseCounters] = {}
        self._features: dict[tuple[str, int, str], np.ndarray] = {}
        self._signatures: dict[tuple[str, int], np.ndarray] = {}
        self._evals: dict[tuple[str, int, MicroarchConfig],
                          EfficiencyResult] = {}
        self._costs: dict[tuple[MicroarchConfig, MicroarchConfig],
                          ReconfigurationCost] = {}
        self._charges: dict[tuple[MicroarchConfig, MicroarchConfig, str,
                                  ArenaScenario], ReconfigurationCharge] = {}

    # -- memoised per-interval state -----------------------------------------

    def _intervals(self, program: str) -> int:
        n = self.programs[program].n_intervals
        if self.max_intervals is not None:
            n = min(n, self.max_intervals)
        return n

    def _trace(self, program: str, interval: int) -> Trace:
        key = (program, interval)
        trace = self._traces.get(key)
        if trace is None:
            trace = self.programs[program].interval_trace(interval)
            self._traces[key] = trace
        return trace

    def _char(self, program: str, interval: int) -> TraceCharacterization:
        key = (program, interval)
        char = self._chars.get(key)
        if char is None:
            char = characterize(self._trace(program, interval))
            self._chars[key] = char
        return char

    def evaluate(self, program: str, interval: int,
                 config: MicroarchConfig) -> EfficiencyResult:
        """Price one (interval, configuration) pair — memoised scalar
        evaluator over the interval's characterization."""
        key = (program, interval, config)
        result = self._evals.get(key)
        if result is None:
            result = self._evaluator.evaluate(self._char(program, interval),
                                              config)
            self._evals[key] = result
        return result

    def _interval_counters(self, program: str, interval: int) -> PhaseCounters:
        key = (program, interval)
        counters = self._counters.get(key)
        if counters is None:
            counters = collect_counters(self._trace(program, interval),
                                        PROFILING_CONFIG)
            self._counters[key] = counters
        return counters

    def _interval_features(self, program: str, interval: int,
                           feature_set: str) -> np.ndarray:
        key = (program, interval, feature_set)
        features = self._features.get(key)
        if features is None:
            extractor = self._extractors.get(feature_set)
            if extractor is None:
                raise KeyError(f"unknown feature set {feature_set!r}")
            features = extractor.extract(
                self._interval_counters(program, interval))
            self._features[key] = features
        return features

    def _interval_signature(self, program: str, interval: int) -> np.ndarray:
        key = (program, interval)
        signature = self._signatures.get(key)
        if signature is None:
            signature = signature_of(self._trace(program, interval))
            self._signatures[key] = signature
        return signature

    def _cost(self, source: MicroarchConfig,
              target: MicroarchConfig) -> ReconfigurationCost:
        key = (source, target)
        cost = self._costs.get(key)
        if cost is None:
            cost = self.reconfiguration.cost(source, target)
            self._costs[key] = cost
        return cost

    # -- charging -------------------------------------------------------------

    def _switch_charge(self, source: MicroarchConfig,
                       target: MicroarchConfig, program: str,
                       scenario: ArenaScenario) -> ReconfigurationCharge:
        """The overhead billed for a ``source`` → ``target`` switch in
        ``program`` under ``scenario`` — memoised."""
        key = (source, target, program, scenario)
        charge = self._charges.get(key)
        if charge is None:
            charge = charge_reconfiguration(
                self._cost(source, target), target,
                self.programs[program].interval_length,
                scenario.overhead_multiplier,
            )
            self._charges[key] = charge
        return charge

    def _charge(self, record: IntervalRecord, source: MicroarchConfig,
                target: MicroarchConfig, program: str,
                scenario: ArenaScenario) -> None:
        """Bill ``record`` for a ``source`` → ``target`` switch (a free
        scenario marks the switch but prices nothing)."""
        record.reconfigured = True
        if scenario.overhead_multiplier:
            charge = self._switch_charge(source, target, program, scenario)
            record.stall_ns = charge.stall_ns
            record.reconfig_energy_pj = charge.energy_pj

    # -- policy execution ----------------------------------------------------

    def run_policy(self, policy: AdaptivityPolicy, program: str,
                   scenario: ArenaScenario) -> PolicyRunReport:
        """One policy through one program under one overhead regime.

        Served from the :class:`DataStore` when configured — the cache
        key covers the scale tag, scenario, the policy's
        :meth:`~AdaptivityPolicy.cache_token` and the interval cap, so a
        changed policy (different weights, seed or hyperparameters)
        never reuses a stale run.
        """
        if self.store is not None:
            key = self.store.versioned_key(
                "arena-run", self.cache_tag, scenario.fingerprint(),
                program, self._intervals(program), *policy.cache_token())
            return self.store.get_or_compute(
                key, lambda: self._run_policy_live(policy, program, scenario))
        return self._run_policy_live(policy, program, scenario)

    def _run_policy_live(self, policy: AdaptivityPolicy, program: str,
                         scenario: ArenaScenario) -> PolicyRunReport:
        detector = self.detector_factory()
        detector.reset()
        policy.reset(program)
        run = PolicyRunReport(policy=policy.name, program=program,
                              scenario=scenario.name, records=[],
                              rewards=[], decisions=[])
        current: MicroarchConfig | None = None
        interval_length = self.programs[program].interval_length
        with obs.span("arena.run_policy", policy=policy.name,
                      program=program, scenario=scenario.name):
            for interval in range(self._intervals(program)):
                observation = detector.observe(self._trace(program, interval))
                view = PolicyView(
                    interval=interval,
                    observation=observation,
                    interval_length=interval_length,
                    _features=lambda fs, i=interval: self._interval_features(
                        program, i, fs),
                    _signature=lambda i=interval: self._interval_signature(
                        program, i),
                )
                decision = policy.decide(view)
                executed = (PROFILING_CONFIG if decision.profile
                            else decision.config)
                result = self.evaluate(program, interval, executed)
                record = IntervalRecord(
                    interval=interval,
                    phase_id=observation.phase_id,
                    config=executed,
                    profiled=decision.profile,
                    reconfigured=False,
                    time_ns=result.time_ns,
                    energy_pj=result.energy_pj,
                )
                if decision.profile:
                    # Profile intervals are billed the switch into their
                    # target (section III-B1).
                    self._charge(record, PROFILING_CONFIG,
                                 decision.config, program, scenario)
                elif current is not None and decision.config != current:
                    self._charge(record, current, decision.config, program,
                                 scenario)
                current = decision.config
                reward = _record_reward(record, result.instructions)
                penalty = 0.0
                if record.stall_ns or record.reconfig_energy_pj:
                    free = interval_reward(record.time_ns, record.energy_pj,
                                           result.instructions)
                    penalty = free - reward
                run.records.append(record)
                run.rewards.append(reward)
                run.decisions.append(decision.config)
                policy.update(PolicyFeedback(
                    interval=interval,
                    observation=observation,
                    decision=decision,
                    record=record,
                    reward=reward,
                    overhead_penalty=penalty,
                ))
            obs.inc("arena.intervals", run.intervals)
            obs.inc("arena.reconfigurations", run.reconfigurations)
            obs.inc("arena.profiled_intervals", run.profiled_intervals)
            obs.inc("arena.runs")
        return run

    # -- baselines and the oracle --------------------------------------------

    def static_reference(self, program: str, config: MicroarchConfig,
                         scenario: ArenaScenario) -> PolicyRunReport:
        """A fixed-configuration run: no detector, no policy, no charges.

        The league's ratio denominator — and, by the arena's accounting
        rules, exactly what a policy that always answers ``config``
        scores (the property suite pins this equality).
        """
        run = PolicyRunReport(policy=f"static{config.as_indices()}",
                              program=program, scenario=scenario.name,
                              records=[], rewards=[], decisions=[])
        for interval in range(self._intervals(program)):
            result = self.evaluate(program, interval, config)
            record = IntervalRecord(
                interval=interval, phase_id=-1, config=config,
                profiled=False, reconfigured=False,
                time_ns=result.time_ns,
                energy_pj=result.energy_pj,
            )
            run.records.append(record)
            run.rewards.append(_record_reward(record, result.instructions))
            run.decisions.append(config)
        return run

    def oracle_run(self, program: str, scenario: ArenaScenario,
                   configs: Sequence[MicroarchConfig]) -> PolicyRunReport:
        """The overhead-aware best configuration sequence over ``configs``.

        Dynamic programming over (interval, configuration) with switch
        charges on the edges: the best net reward any policy restricted
        to ``configs`` could achieve, profiling not required.  The first
        interval is free, like every policy's.
        """
        pool = list(dict.fromkeys(configs))  # order-stable dedup
        if not pool:
            raise ValueError("oracle needs at least one configuration")
        n = self._intervals(program)
        configs_ix = range(len(pool))

        with obs.span("arena.oracle", program=program,
                      scenario=scenario.name, configs=len(pool)):
            # Each (interval, config) result and its uncharged reward, and
            # each switch charge, once; the DP then only adds them up.
            facts = []
            for interval in range(n):
                row = []
                for config in pool:
                    result = self.evaluate(program, interval, config)
                    row.append((result.time_ns, result.energy_pj,
                                result.instructions,
                                interval_reward(result.time_ns,
                                                result.energy_pj,
                                                result.instructions)))
                facts.append(row)
            charges = [
                [self._switch_charge(source, target, program, scenario)
                 if scenario.overhead_multiplier and source != target
                 else None
                 for source in pool]
                for target in pool
            ]

            best = [free for _, _, _, free in facts[0]]
            back: list[list[int]] = []
            for interval in range(1, n):
                step_back = []
                step_best = []
                for c in configs_ix:
                    time_ns, energy_pj, instructions, free = facts[interval][c]
                    scores = [
                        best[s] + (free if charge is None else interval_reward(
                            time_ns + charge.stall_ns,
                            energy_pj + charge.energy_pj, instructions))
                        for s, charge in enumerate(charges[c])
                    ]
                    # First maximum, as np.argmax picks.
                    choice = max(configs_ix, key=scores.__getitem__)
                    step_back.append(choice)
                    step_best.append(scores[choice])
                best = step_best
                back.append(step_back)

            path = [max(configs_ix, key=best.__getitem__)]
            for step_back in reversed(back):
                path.append(step_back[path[-1]])
            path.reverse()

        run = PolicyRunReport(policy=ORACLE_NAME, program=program,
                              scenario=scenario.name, records=[],
                              rewards=[], decisions=[])
        previous: MicroarchConfig | None = None
        for interval, choice in enumerate(path):
            config = pool[choice]
            result = self.evaluate(program, interval, config)
            record = IntervalRecord(
                interval=interval, phase_id=-1, config=config,
                profiled=False, reconfigured=False,
                time_ns=result.time_ns,
                energy_pj=result.energy_pj,
            )
            if previous is not None and config != previous:
                self._charge(record, previous, config, program, scenario)
            previous = config
            run.records.append(record)
            run.rewards.append(_record_reward(record, result.instructions))
            run.decisions.append(config)
        return run

    # -- the league -----------------------------------------------------------

    def league(self, policies: Sequence[AdaptivityPolicy],
               scenario: ArenaScenario) -> LeagueTable:
        """Run every policy over the whole suite and rank them.

        The returned table includes one extra row — the post-hoc
        :data:`ORACLE_NAME` oracle over every configuration the live
        policies executed plus the static baseline.
        """
        names = [policy.name for policy in policies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate policy names: {names}")
        if ORACLE_NAME in names:
            raise ValueError(f"{ORACLE_NAME!r} is reserved for the arena")
        programs = list(self.programs)
        with obs.span("arena.league", scenario=scenario.name,
                      policies=len(policies)):
            runs: dict[str, dict[str, PolicyRunReport]] = {
                policy.name: {
                    program: self.run_policy(policy, program, scenario)
                    for program in programs
                }
                for policy in policies
            }

            static_runs = {
                program: self.static_reference(program, self.baseline_config,
                                               scenario)
                for program in programs
            }

            oracle_runs: dict[str, PolicyRunReport] = {}
            for program in programs:
                executed: list[MicroarchConfig] = [self.baseline_config]
                for by_program in runs.values():
                    run = by_program[program]
                    executed.extend(record.config for record in run.records)
                    executed.extend(run.decisions)
                oracle_runs[program] = self.oracle_run(program, scenario,
                                                       executed)

            rows = [
                self._league_row(name, {p: runs[name][p] for p in programs},
                                 static_runs, oracle_runs)
                for name in names
            ]
            rows.append(self._league_row(ORACLE_NAME, oracle_runs,
                                         static_runs, oracle_runs))
            rows.sort(key=lambda row: row.mean_reward, reverse=True)
        total = sum(self._intervals(program) for program in programs)
        return LeagueTable(scenario=scenario.name, rows=tuple(rows),
                           programs=tuple(programs), intervals=total)

    def _league_row(
        self,
        name: str,
        by_program: Mapping[str, PolicyRunReport],
        static_runs: Mapping[str, PolicyRunReport],
        oracle_runs: Mapping[str, PolicyRunReport],
    ) -> LeagueRow:
        net = sum(run.net_reward for run in by_program.values())
        intervals = sum(run.intervals for run in by_program.values())
        oracle_net = sum(run.net_reward for run in oracle_runs.values())
        log_ratios = [
            (by_program[p].net_reward - static_runs[p].net_reward)
            / max(by_program[p].intervals, 1)
            for p in by_program
        ]
        return LeagueRow(
            policy=name,
            mean_reward=net / max(intervals, 1),
            net_reward=net,
            ratio_vs_static=math.exp(sum(log_ratios) / len(log_ratios)),
            reconfigurations=sum(r.reconfigurations
                                 for r in by_program.values()),
            reconfiguration_rate=(
                sum(r.reconfigurations for r in by_program.values())
                / max(intervals, 1)),
            profiled_intervals=sum(r.profiled_intervals
                                   for r in by_program.values()),
            oracle_regret=(oracle_net - net) / max(intervals, 1),
            per_program={p: run.net_reward for p, run in by_program.items()},
        )
