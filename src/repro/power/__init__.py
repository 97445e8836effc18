"""Power and energy modelling (Cacti-style scaling + Wattch-style accounting)."""

from repro.power.cacti import ArrayCosts, CactiModel
from repro.power.metrics import EfficiencyResult, energy_efficiency
from repro.power.wattch import PowerReport, account

__all__ = [
    "ArrayCosts",
    "CactiModel",
    "EfficiencyResult",
    "PowerReport",
    "account",
    "energy_efficiency",
]
