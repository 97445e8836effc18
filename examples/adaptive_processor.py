"""Adaptive processor demo: the full figure 2 runtime loop.

Trains the predictor on a few benchmarks, then drives an *unseen* program
through the policy arena (:class:`~repro.control.arena.Arena`) with the
paper's controller, :class:`~repro.control.arena.SoftmaxPolicy`:

* an online working-set detector spots phase changes;
* new phases are profiled on the profiling configuration;
* the soft-max model predicts the phase's configuration in one shot;
* recognised phases reuse their stored prediction (reconfiguration stays
  rare, as in section VIII of the paper).

The run is compared against executing the whole program on the best static
configuration found on the training data.

Run:  python examples/adaptive_processor.py
"""

from repro import (
    AdvancedFeatureExtractor,
    ConfigurationPredictor,
    DesignSpace,
    IntervalEvaluator,
    build_program,
    characterize,
    collect_counters,
    spec2000_suite,
)
from repro.control.arena import DEFAULT_SCENARIOS, Arena, SoftmaxPolicy
from repro.experiments.baselines import geomean


def main() -> None:
    train_names = ("crafty", "swim", "parser")
    test_name = "galgel"  # large phase variation (section VII-B)

    # ---- offline training -------------------------------------------------
    space = DesignSpace(seed=7)
    pool = space.random_sample(48)
    evaluator = IntervalEvaluator()
    extractor = AdvancedFeatureExtractor()
    features, evaluations = [], []
    print("offline training on:", ", ".join(train_names))
    for profile in spec2000_suite(train_names):
        program = build_program(profile, n_phases=3, n_intervals=6,
                                interval_length=6000)
        for phase_id in range(3):
            trace = program.phase_trace(phase_id)
            warm = program.phase_warm_trace(phase_id)
            counters = collect_counters(trace, warm_trace=warm)
            char = characterize(trace, warm_trace=warm)
            features.append(extractor.extract(counters))
            evaluations.append({c: evaluator.evaluate(char, c).efficiency
                                for c in pool})
    predictor = ConfigurationPredictor(max_iterations=80)
    predictor.fit_evaluations(features, evaluations)
    baseline = max(pool, key=lambda c: geomean(
        [e[c] for e in evaluations]))
    print(f"best static configuration: {baseline.describe()}")

    # ---- online adaptive run ----------------------------------------------
    program = build_program(spec2000_suite((test_name,))[0], n_phases=4,
                            n_intervals=30, interval_length=6000,
                            mean_segment=8)
    arena = Arena({test_name: program}, baseline)
    paper = DEFAULT_SCENARIOS[0]  # the paper's Table V charges
    print(f"\nadaptive run of unseen benchmark '{test_name}' "
          f"({program.n_intervals} intervals):")
    adaptive = arena.run_policy(SoftmaxPolicy(predictor), test_name, paper)
    static = arena.static_reference(test_name, baseline, paper)

    total_instructions = program.n_intervals * program.interval_length
    phases = {record.phase_id for record in adaptive.records}
    print(f"  phases discovered:     {len(phases)}")
    print(f"  profiling intervals:   {adaptive.profiled_intervals}")
    print(f"  reconfigurations:      {adaptive.reconfigurations} "
          f"({adaptive.reconfiguration_rate:.2f}/interval; paper: ~0.1)")
    print(f"  overhead time:         "
          f"{adaptive.overhead_time_ns / adaptive.time_ns:.2%}")
    gain = (adaptive.efficiency(total_instructions)
            / static.efficiency(total_instructions))
    print(f"  efficiency vs static:  {gain:.2f}x")
    per_phase = {}
    for record in adaptive.records:
        if not record.profiled:
            per_phase.setdefault(record.phase_id, record.config)
    print("\nper-phase configurations chosen:")
    for phase_id, config in sorted(per_phase.items()):
        print(f"  phase {phase_id}: {config.describe()}")


if __name__ == "__main__":
    main()
