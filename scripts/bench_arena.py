"""Policy-arena league bench + golden bit-identity gate.

Runs every default policy (softmax, counters-only ablation, LinUCB,
epsilon-greedy, phase-distance hysteresis, static-best) head-to-head
over the benchmark suite under each overhead scenario, writes one
Fig.4-style league table per scenario to ``reports/arena_<scenario>.csv``
plus a combined ``BENCH_arena.json``, and enforces the arena's
correctness gates.

Usage::

    PYTHONPATH=src python scripts/bench_arena.py           # full suite
    PYTHONPATH=src python scripts/bench_arena.py --smoke   # CI-sized

``--smoke`` switches to the quick scale (6 programs, small pool) and
caps per-program intervals so the whole bench fits in a CI minute-scale
budget; every gate still holds.

Gates (exit non-zero on violation):

- every league carries >= 6 live policies plus the oracle row;
- **golden guard**: the softmax policy run through the arena reproduces
  the reference figure 2 loop (``tests/reference_controller.py``)
  *bit-identically* on every program — same configuration sequence,
  same profile/reconfigure flags, and float-equal time/energy/stall
  accounting;
- the post-hoc oracle tops every league (no live policy beats the
  charge-aware DP bound over the configurations actually played);
- the static-best policy's net reward equals the uncharged static
  reference run exactly, per program.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro import obs
from repro.control.arena import DEFAULT_SCENARIOS, ORACLE_NAME, SoftmaxPolicy
from repro.counters.features import AdvancedFeatureExtractor
from repro.experiments.arena import build_arena, build_default_policies
from repro.experiments.datastore import DataStore
from repro.experiments.pipeline import ExperimentPipeline
from repro.experiments.scale import ReproScale

# The golden guard's reference loop lives under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.reference_controller import run_reference_controller  # noqa: E402

MIN_POLICIES = 6
SMOKE_MAX_INTERVALS = 12


def golden_guard(pipeline: ExperimentPipeline, arena, scenario) -> list[str]:
    """Compare the arena's softmax run against the reference loop."""
    predictor = pipeline.full_predictor("advanced")
    policy = SoftmaxPolicy(predictor)
    failures: list[str] = []
    for name, program in pipeline.programs.items():
        arena_run = arena.run_policy(policy, name, scenario)
        reference = run_reference_controller(
            predictor, AdvancedFeatureExtractor(), program,
            max_intervals=arena.max_intervals)
        if len(arena_run.records) != len(reference):
            failures.append(f"{name}: interval count diverged")
            continue
        for ours, golden in zip(arena_run.records, reference):
            same = (
                ours.config == golden.config
                and ours.profiled == golden.profiled
                and ours.reconfigured == golden.reconfigured
                # Bit-identity gate: float equality is the point here.
                and ours.time_ns == golden.time_ns
                and ours.energy_pj == golden.energy_pj
                and ours.stall_ns == golden.stall_ns
                and ours.reconfig_energy_pj == golden.reconfig_energy_pj
            )
            if not same:
                failures.append(
                    f"{name} interval {ours.interval}: arena record "
                    f"diverged from the reference loop")
                break
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: quick scale, capped intervals")
    parser.add_argument("--max-intervals", type=int, default=None,
                        help="cap intervals per program (default: none, "
                             f"smoke: {SMOKE_MAX_INTERVALS})")
    parser.add_argument("--seed", type=int, default=0,
                        help="epsilon-greedy exploration seed")
    parser.add_argument("--store", type=Path, default=None,
                        help="DataStore directory (default: the pipeline's)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the DataStore (always run live)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_arena.json")
    parser.add_argument("--reports", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "reports")
    args = parser.parse_args(argv)

    scale = ReproScale.quick() if args.smoke else ReproScale.default()
    max_intervals = args.max_intervals
    if args.smoke and max_intervals is None:
        max_intervals = SMOKE_MAX_INTERVALS
    store = DataStore(args.store) if args.store else None
    pipeline = ExperimentPipeline(scale, store=store, verbose=True)

    t0 = time.perf_counter()
    arena = build_arena(pipeline, max_intervals=max_intervals,
                        use_store=not args.no_cache)
    policies = build_default_policies(pipeline, seed=args.seed)
    leagues = {}
    for scenario in DEFAULT_SCENARIOS:
        leagues[scenario.name] = arena.league(policies, scenario)
    elapsed = time.perf_counter() - t0

    args.reports.mkdir(parents=True, exist_ok=True)
    for name, league in leagues.items():
        print()
        print(league.render())
        csv_path = args.reports / f"arena_{name}.csv"
        csv_path.write_text(league.to_csv())
        print(f"wrote {csv_path}")

    failures: list[str] = []
    for name, league in leagues.items():
        live = [row for row in league.rows if row.policy != ORACLE_NAME]
        if len(live) < MIN_POLICIES:
            failures.append(
                f"{name}: only {len(live)} live policies (need "
                f">= {MIN_POLICIES})")
        oracle = league.row(ORACLE_NAME)
        for row in league.rows:
            if row.net_reward > oracle.net_reward:
                failures.append(
                    f"{name}: {row.policy} beat the oracle "
                    f"({row.net_reward:.6f} > {oracle.net_reward:.6f})")
        static_row = league.row("static-best")
        scenario = next(s for s in DEFAULT_SCENARIOS if s.name == name)
        for program in league.programs:
            reference = arena.static_reference(
                program, pipeline.baseline_config, scenario)
            # Exact: the static policy never pays a charge, so its per-
            # program net is the same float sum as the reference run's.
            if static_row.per_program[program] != reference.net_reward:
                failures.append(
                    f"{name}/{program}: static-best row "
                    f"{static_row.per_program[program]!r} != static "
                    f"reference {reference.net_reward!r}")

    paper = next(s for s in DEFAULT_SCENARIOS if s.name == "paper")
    golden_failures = golden_guard(pipeline, arena, paper)
    failures.extend(golden_failures)

    report = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": args.smoke,
        "scale": scale.tag,
        "seed": args.seed,
        "max_intervals": max_intervals,
        "elapsed_seconds": elapsed,
        "policies": [policy.name for policy in policies],
        "leagues": {name: league.to_json()
                    for name, league in leagues.items()},
        "golden_bit_identical": not golden_failures,
        "failures": failures,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output} ({elapsed:.1f}s)")

    if obs.enabled():  # REPRO_OBS=1: export arena.* spans and counters
        paths = obs.export_all()
        print(obs.render_summary(obs.merge_records()))
        print(f"wrote {paths['trace']} (open in https://ui.perfetto.dev)")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
