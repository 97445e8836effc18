"""The paper's figure 2 loop, written out once more as a test oracle.

:class:`repro.control.arena.Arena` is the only statement of the adaptation
loop in ``src/repro``; the paper's controller is
:class:`~repro.control.arena.SoftmaxPolicy` run through it.  This module
keeps the loop in its original straight-line form so the bit-identity
checks (``tests/test_arena_harness.py``, ``tests/test_golden_headlines.py``
and the golden guard of ``scripts/bench_arena.py``) can compare the arena
against an independent statement of the same rules:

1. **Detect**: an online :class:`~repro.phases.detector.PhaseDetector`
   watches each interval's working-set signature for phase changes.
2. **Profile**: on entering an *unseen* phase, the interval runs on the
   profiling configuration while Table II counters are gathered.
3. **Predict & reconfigure**: the counters feed the trained predictor; the
   hardware pays the Table V reconfiguration cost and continues on the
   predicted configuration.  Recognised phases reuse their stored
   prediction.
"""

from __future__ import annotations

from repro.config.configuration import PROFILING_CONFIG, MicroarchConfig
from repro.control.accounting import charge_reconfiguration
from repro.control.arena.policy import IntervalRecord
from repro.control.reconfiguration import ReconfigurationModel
from repro.counters.collector import collect_counters
from repro.counters.features import FeatureExtractor
from repro.model.predictor import ConfigurationPredictor
from repro.phases.detector import PhaseDetector
from repro.timing.characterize import characterize
from repro.timing.interval import IntervalEvaluator
from repro.workloads.program import Program


def run_reference_controller(
    predictor: ConfigurationPredictor,
    feature_extractor: FeatureExtractor,
    program: Program,
    max_intervals: int | None = None,
    overheads_enabled: bool = True,
) -> list[IntervalRecord]:
    """Execute ``program`` adaptively; returns one record per interval."""
    detector = PhaseDetector()
    evaluator = IntervalEvaluator()
    reconfiguration = ReconfigurationModel()
    phase_configs: dict[int, MicroarchConfig] = {}
    records: list[IntervalRecord] = []
    current = PROFILING_CONFIG
    n_intervals = program.n_intervals
    if max_intervals is not None:
        n_intervals = min(n_intervals, max_intervals)

    for interval in range(n_intervals):
        trace = program.interval_trace(interval)
        observation = detector.observe(trace)
        profiled = False
        target = current

        if observation.phase_changed:
            stored = phase_configs.get(observation.phase_id)
            if stored is None:
                profiled = True
                counters = collect_counters(trace, PROFILING_CONFIG)
                target = predictor.predict(feature_extractor.extract(counters))
                phase_configs[observation.phase_id] = target
            else:
                target = stored

        if profiled:
            # The profiled part of the phase runs on the profiling
            # configuration (section III-B1); the switch to the predicted
            # configuration happens afterwards.
            result = evaluator.evaluate(characterize(trace), PROFILING_CONFIG)
            executed_config = PROFILING_CONFIG
        else:
            # Recognised phases reconfigure immediately at the interval
            # boundary and run on their stored configuration.
            result = evaluator.evaluate(characterize(trace), target)
            executed_config = target

        record = IntervalRecord(
            interval=interval,
            phase_id=observation.phase_id,
            config=executed_config,
            profiled=profiled,
            reconfigured=False,
            time_ns=result.time_ns,
            energy_pj=result.energy_pj,
        )

        if target != current or profiled:
            cost = reconfiguration.cost(
                PROFILING_CONFIG if profiled else current, target
            )
            record.reconfigured = True
            if overheads_enabled:
                charge = charge_reconfiguration(
                    cost, target, program.interval_length)
                record.stall_ns = charge.stall_ns
                record.reconfig_energy_pj = charge.energy_pj
            current = target

        records.append(record)
    return records
