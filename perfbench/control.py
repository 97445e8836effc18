"""``control``: the policy arena over the quick suite, store off.

The six-policy default roster plus the DP oracle race through every
interval of the quick suite's six programs under all three overhead
scenarios.  A run races two inputs drawn from its seed, because the
work per interval depends on the input.  Each input's set-up trains both
full predictors and finds the static baseline, so no training runs
inside the timed part.  Each league starts from a fresh ``Arena``, so
every one re-derives its traces, characterisations and counters.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Any

from perfbench.common import Digest, WorkloadResult, input_seed
from perfbench.hostspeed import HostSpeed

#: Suite inputs per run, each raced once per round of leagues.
INPUTS = 2


def scale_for(seed: int):
    from repro import ReproScale

    return ReproScale.quick().with_(seed=seed)


def shape() -> dict[str, Any]:
    scale = scale_for(0)
    return {"programs": list(scale.benchmarks), "n_phases": scale.n_phases,
            "phase_trace_length": scale.phase_trace_length,
            "inputs": INPUTS, "scenarios": 3, "policies": 6}


def setup(seed: int, workdir: Path, index: int) -> dict[str, Any]:
    """Train both full predictors and pick the static baseline."""
    from repro import ExperimentPipeline
    from repro.experiments import DataStore

    workdir.mkdir(parents=True, exist_ok=True)
    seed = input_seed(seed, index)
    pipeline = ExperimentPipeline(scale_for(seed),
                                  store=DataStore(workdir / "store"),
                                  workers=1, train_workers=1)
    for feature_set in ("advanced", "basic"):
        pipeline.full_predictor(feature_set)
    pipeline.baseline_config
    return {"pipeline": pipeline, "seed": seed}


def run_pass(fixtures: list[dict[str, Any]], workdir: Path, seconds: float,
             seed: int, tag: str, tracer=None,
             speed: HostSpeed | None = None) -> WorkloadResult:
    """Rounds of leagues, one per input, until ``seconds`` have passed."""
    from repro.control.arena import DEFAULT_SCENARIOS, ORACLE_NAME
    from repro.experiments.arena import (
        build_arena,
        build_default_policies,
        run_arena,
    )

    result = WorkloadResult()
    speed = speed or HostSpeed()
    leagues: list[tuple[int, dict[str, Any]]] = []
    walls = []
    errors: list[str] = []
    t0 = time.perf_counter()
    while (not walls or len(walls) % len(fixtures)
           or time.perf_counter() - t0 < seconds):
        index = len(walls) % len(fixtures)
        fixture = fixtures[index]
        mark = speed.mark()
        try:
            leagues.append((index, run_arena(
                fixture["pipeline"], use_store=False, seed=fixture["seed"])))
        except Exception as error:  # ArenaRewardError or any other
            errors.append(repr(error))
            break
        walls.append(speed.span(mark))
    result.wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False

    # A policy run is one policy through one program under one scenario.
    pipeline = fixtures[0]["pipeline"]
    roster = [p.name for p in build_default_policies(pipeline, seed=seed)]
    runs_per_league = len(roster) * len(pipeline.programs) * 3
    result.attempted = runs_per_league * (len(walls) + len(errors))
    result.failed = runs_per_league * len(errors)
    result.check("no policy run raised", not errors, "; ".join(errors))
    if not leagues:
        return result

    for index, league in leagues:
        for scenario, table in league.items():
            names = [row.policy for row in table.rows]
            result.check(f"input {index} {scenario}: full roster",
                         sorted(names) == sorted([*roster, ORACLE_NAME]),
                         f"{names}")
            result.check(f"input {index} {scenario}: oracle tops the league",
                         table.rows[0].policy == ORACLE_NAME,
                         f"top={table.rows[0].policy}")
    # An independent arena replays the static baseline for the first
    # league (one replay costs most of a league, so only once).
    first = leagues[0][1]
    arena = build_arena(pipeline, use_store=False)
    for scenario, table in first.items():
        static_row = table.row("static-best")
        scenario_obj = next(s for s in DEFAULT_SCENARIOS
                            if s.name == scenario)
        reference = {
            program: arena.static_reference(
                program, pipeline.baseline_config, scenario_obj).net_reward
            for program in table.programs}
        result.check(f"input 0 {scenario}: static-best equals "
                     "static_reference", static_row.per_program == reference)
    tables: dict[int, list] = {}
    for index, league in leagues:
        tables.setdefault(index, []).append(
            {name: table.to_json() for name, table in league.items()})
    result.check("leagues of the same input agree",
                 all(t == same[0] for same in tables.values() for t in same),
                 f"{len(leagues)} leagues of {len(fixtures)} inputs")

    digest = Digest()
    for index in sorted(tables):
        digest.add(index, tables[index][0])
    result.digest = digest.hexdigest()

    # Live policy-intervals of every league: the oracle row is not live.
    intervals = sum(table.intervals * (len(table.rows) - 1)
                    for _, league in leagues for table in league.values())
    simulated = [simulated_intervals(league) for _, league in leagues]
    softmax = first["paper"].row("softmax").ratio_vs_static
    league_s = [span.scaled_s for span in walls]
    result.metrics = {
        "work_per_s": sum(simulated) / sum(league_s),
        "p50_ms": statistics.median(
            s / n for s, n in zip(league_s, simulated)) * 1e3,
    }
    result.named = {"policy_intervals_per_s": (intervals / sum(league_s),
                                               "1/s"),
                    "league_s": (statistics.median(league_s), "s"),
                    "league_wall_s": (statistics.median(
                        span.wall_s for span in walls), "s"),
                    "softmax_ratio": (softmax, "x")}
    result.detail.update(
        leagues=[vars(span) for span in walls],
        policy_intervals=intervals, simulated_intervals=simulated,
        percentiles={"league_s": {"samples": len(walls), "percentile": 50}})
    return result


def simulated_intervals(league: dict[str, Any]) -> int:
    """Intervals a league simulates: each interval of the suite once,
    plus every interval a policy profiles in any scenario.

    How often the policies profile depends on the input: over eight
    inputs a league profiled 201 to 366 intervals and took 8.5 to 13.3 s
    at the reference speed, while its time per simulated interval stayed
    within 22 to 26 ms.  Per policy-interval decided it moved as much as
    the league time.
    """
    tables = list(league.values())
    return tables[0].intervals + sum(row.profiled_intervals
                                     for table in tables
                                     for row in table.rows)


def finish(result: WorkloadResult) -> None:
    """Nothing runs after the timed part."""


def teardown(fixture: dict[str, Any]) -> None:
    """Nothing outlives the set-up's own objects."""
