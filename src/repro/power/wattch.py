"""Wattch-style power accounting.

Wattch computes processor power as per-structure *activity* (access counts)
times per-access energy, plus leakage over time.  Both of this repository's
timing models produce the same activity vocabulary (the keys of
``SimResult.activity``); :func:`account` turns an activity dictionary plus
the machine parameters into a :class:`PowerReport` with the energy
components of the paper's energy-efficiency metric.

One loop prices both shapes of input: Python numbers with the
:class:`~repro.timing.resources.MachineParams` of one configuration (the
scalar interval evaluator, the cycle simulator), or one array per key with
the :class:`~repro.timing.resources.BatchMachineParams` of a batch
(:class:`~repro.timing.batch.BatchIntervalEvaluator`).  Both run the same
operations in the same order, so row ``i`` of a batch prices bitwise like
configuration ``i`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # import at runtime would be circular (timing uses cacti)
    from repro.timing.resources import BatchMachineParams, MachineParams

__all__ = ["PowerReport", "account"]

#: Maps activity keys to (structure, kind) where kind selects read or write
#: energy.  ALU ops are priced separately.
_ACTIVITY_STRUCTURE = {
    "icache_access": ("icache", "read"),
    "dcache_access": ("dcache", "read"),
    "l2_access": ("l2", "read"),
    "gshare_access": ("gshare", "read"),
    "btb_access": ("btb", "read"),
    "rob_write": ("rob", "write"),
    "rob_read": ("rob", "read"),
    "iq_write": ("iq", "write"),
    "iq_wakeup": ("iq", "read"),  # CAM broadcast
    "iq_select": ("iq", "read"),
    "lsq_write": ("lsq", "write"),
    "lsq_search": ("lsq", "read"),
    "rf_read_int": ("rf", "read"),
    "rf_read_fp": ("rf", "read"),
    "rf_write_int": ("rf", "write"),
    "rf_write_fp": ("rf", "write"),
}

_ALU_KEYS = {
    "ialu_op": "ialu",
    "imul_op": "imul",
    "falu_op": "falu",
    "fmul_op": "fmul",
}

#: Memory-bus energy per off-chip (L2-miss) transfer, picojoules.
MEMORY_ACCESS_PJ = 4000.0


@dataclass(frozen=True)
class PowerReport:
    """Energy of one run, or of a batch of runs with one entry per run."""

    time_ns: float | np.ndarray
    dynamic_pj: float | np.ndarray
    leakage_pj: float | np.ndarray
    clock_pj: float | np.ndarray

    @property
    def total_pj(self) -> float | np.ndarray:
        return self.dynamic_pj + self.leakage_pj + self.clock_pj

    @property
    def energy_joules(self) -> float | np.ndarray:
        return self.total_pj * 1e-12

    @property
    def power_watts(self) -> float:
        """Mean power of one run (zero if it took no time)."""
        if self.time_ns <= 0:
            return 0.0
        return float(self.total_pj / self.time_ns * 1e-3)  # pJ/ns = mW


def account(
    activity: Mapping[str, float | np.ndarray],
    params: MachineParams | BatchMachineParams,
    cycles: int | np.ndarray,
) -> PowerReport:
    """Price an activity dictionary under ``params``.

    Args:
        activity: per-event access counts (the ``SimResult.activity``
            vocabulary; unknown keys raise), one number or one array over
            the batch per key.
        params: derived machine parameters (energies, leakage, clocking)
            of one configuration or of the batch.
        cycles: total cycles of each run (for clock and leakage energy).

    The per-key energies are summed in the dictionary's insertion order,
    so equal key orders give bitwise equal sums.
    """
    from repro.timing.resources import ALU_ENERGY_PJ

    dynamic: float | np.ndarray = 0.0
    for key, counts in activity.items():
        energy: float | np.ndarray
        if key in _ALU_KEYS:
            energy = ALU_ENERGY_PJ[_ALU_KEYS[key]] * counts
        elif key in _ACTIVITY_STRUCTURE:
            name, kind = _ACTIVITY_STRUCTURE[key]
            costs = params.structures[name]
            per_access = (
                costs.read_energy_pj if kind == "read" else costs.write_energy_pj
            )
            energy = per_access * counts
        elif key.endswith("_miss"):
            if key != "l2_miss":
                continue  # L1 misses are priced via their l2_access events
            energy = MEMORY_ACCESS_PJ * counts
        else:
            raise KeyError(f"unknown activity key: {key}")
        dynamic = dynamic + energy

    time_ns = cycles * params.period_ns
    return PowerReport(
        time_ns=time_ns,
        dynamic_pj=dynamic,
        leakage_pj=params.total_leakage_mw * time_ns,  # mW * ns = pJ
        clock_pj=params.clock_energy_pj_per_cycle * cycles,
    )
