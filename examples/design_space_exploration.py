"""Design-space exploration: the section V-C landscape, hands on.

Explores the 627-billion-point Table I design space for two contrasting
phases of one benchmark using the fast interval evaluator:

* runs the paper's sampling protocol (random pool -> local neighbours ->
  one-at-a-time sweeps);
* prints each phase's best configuration and the efficiency range;
* sweeps single parameters around the optimum (the figure 3 / figure 8
  view of the landscape);
* shows how the *same* parameter wants different values in different
  phases — the motivation for dynamic adaptation (figure 1).

Run:  python examples/design_space_exploration.py
"""

from repro import DesignSpace, build_program, characterize, spec2000_suite
from repro.experiments.sweeps import run_phase_sweep
from repro.timing import BatchIntervalEvaluator


def main() -> None:
    profile = spec2000_suite(("gap",))[0]
    program = build_program(profile, n_phases=4, n_intervals=8,
                            interval_length=12_000)
    evaluator = BatchIntervalEvaluator()
    space = DesignSpace(seed=0)
    pool = space.random_sample(120)

    print(f"design space size: {space.size:,} points")
    print(f"sampling protocol: {len(pool)} random + 30 neighbours + "
          f"one-at-a-time sweeps\n")

    sweeps = {}
    for phase_id in (0, 2):
        trace = program.phase_trace(phase_id)
        char = characterize(trace,
                            warm_trace=program.phase_warm_trace(phase_id))
        sweep = run_phase_sweep(char, pool, neighbour_count=30,
                                seed=phase_id, evaluator=evaluator)
        sweeps[phase_id] = (char, sweep)
        best, result = sweep.best
        values = sorted(r.efficiency for r in sweep.evaluations.values())
        print(f"phase {phase_id}: {len(sweep.evaluations)} evaluations")
        print(f"  best:  {best.describe()}")
        print(f"  ips = {result.ips / 1e9:.2f} G, power = "
              f"{result.power_watts:.1f} W, "
              f"efficiency spread = {values[-1] / values[0]:.0f}x")

    # Single-parameter sweeps around each phase's best (figure 3 style).
    print("\nefficiency vs one parameter (normalised to the phase best):")
    for name in ("lsq_size", "dcache_size", "depth_fo4"):
        print(f"  {name}:")
        for phase_id, (char, sweep) in sweeps.items():
            best, best_result = sweep.best
            row = []
            for config in space.axis_sweep(best, name):
                eff = evaluator.evaluate(char, config).efficiency
                row.append((config[name], eff / best_result.efficiency))
            text = " ".join(f"{v}:{r:.2f}" for v, r in row)
            print(f"    phase {phase_id}: {text}")

    # The figure 1 observation: optima differ across phases.
    print("\nbest value per phase (why static configurations lose):")
    for name in ("iq_size", "rf_size", "dcache_size"):
        bests = {p: sweeps[p][1].best[0][name] for p in sweeps}
        print(f"  {name:12s}: " + "  ".join(
            f"phase {p} -> {v}" for p, v in bests.items()))


if __name__ == "__main__":
    main()
