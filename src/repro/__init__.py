"""repro — reproduction of "A Predictive Model for Dynamic
Microarchitectural Adaptivity Control" (Dubach, Jones, Bonilla, O'Boyle;
MICRO 2010).

The public API re-exports the main entry points of each subsystem:

* design space: :class:`~repro.config.MicroarchConfig`,
  :class:`~repro.config.DesignSpace`, :data:`~repro.config.PROFILING_CONFIG`;
* workloads: :func:`~repro.workloads.spec2000_suite`,
  :func:`~repro.workloads.build_program`;
* timing: :class:`~repro.timing.CycleSimulator`,
  :class:`~repro.timing.IntervalEvaluator`, :func:`~repro.timing.characterize`;
* counters: :func:`~repro.counters.collect_counters`, feature extractors;
* model: :class:`~repro.model.ConfigurationPredictor`;
* control: :class:`~repro.control.ReconfigurationModel` (the figure 2
  loop is :class:`~repro.control.arena.Arena` with
  :class:`~repro.control.arena.SoftmaxPolicy`);
* experiments: :class:`~repro.experiments.ExperimentPipeline`,
  :class:`~repro.experiments.ReproScale`.
"""

from repro.config import (
    PROFILING_CONFIG,
    DesignSpace,
    MicroarchConfig,
    TABLE1_PARAMETERS,
)
from repro.control import ReconfigurationModel
from repro.counters import (
    AdvancedFeatureExtractor,
    BasicFeatureExtractor,
    collect_counters,
)
from repro.experiments import ExperimentPipeline, ReproScale
from repro.model import ConfigurationPredictor, SoftmaxClassifier
from repro.phases import PhaseDetector, extract_phases
from repro.power import EfficiencyResult, energy_efficiency
from repro.timing import CycleSimulator, IntervalEvaluator, characterize
from repro.workloads import PhaseSpec, Program, Trace, build_program, spec2000_suite

__version__ = "1.0.0"

__all__ = [
    "AdvancedFeatureExtractor",
    "BasicFeatureExtractor",
    "ConfigurationPredictor",
    "CycleSimulator",
    "DesignSpace",
    "EfficiencyResult",
    "ExperimentPipeline",
    "IntervalEvaluator",
    "MicroarchConfig",
    "PROFILING_CONFIG",
    "PhaseDetector",
    "PhaseSpec",
    "Program",
    "ReconfigurationModel",
    "ReproScale",
    "SoftmaxClassifier",
    "TABLE1_PARAMETERS",
    "Trace",
    "build_program",
    "characterize",
    "collect_counters",
    "energy_efficiency",
    "extract_phases",
    "spec2000_suite",
    "__version__",
]
