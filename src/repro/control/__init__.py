"""Runtime adaptivity control: overhead models and the policy arena.

The paper's figure 2 loop is :class:`~repro.control.arena.Arena` run with
:class:`~repro.control.arena.SoftmaxPolicy`.
"""

from repro.control.accounting import (
    ReconfigurationCharge,
    charge_reconfiguration,
    overhead_scale,
)
from repro.control.adaptation_frequency import (
    AdaptationFrequencyAnalysis,
    StructureChurn,
    analyze_adaptation_frequencies,
    recommended_interval,
)
from repro.control.overheads import (
    CacheSamplingPlan,
    plan_set_sampling,
    sampling_energy_overheads,
)
from repro.control.reconfiguration import (
    ReconfigurationCost,
    ReconfigurationModel,
)

__all__ = [
    "AdaptationFrequencyAnalysis",
    "CacheSamplingPlan",
    "ReconfigurationCharge",
    "ReconfigurationCost",
    "ReconfigurationModel",
    "StructureChurn",
    "analyze_adaptation_frequencies",
    "charge_reconfiguration",
    "overhead_scale",
    "plan_set_sampling",
    "recommended_interval",
    "sampling_energy_overheads",
]
