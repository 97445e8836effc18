"""Derived machine parameters for a configuration.

Both timing models (the cycle-level core of :mod:`repro.timing.cycle` and
the fast interval evaluators of :mod:`repro.timing.interval` and
:mod:`repro.timing.batch`) and the Wattch power accounting consume the
same derived view of a :class:`~repro.config.MicroarchConfig`, computed
here:

* clock frequency and pipeline geometry from the FO4-per-stage depth
  parameter (Table I "Depth"), including the branch misprediction penalty
  that grows with pipeline depth;
* per-structure access latencies in nanoseconds and as fractions of the
  clock period, so deep pipelines see multi-cycle structures;
* per-access energies and leakage per structure, from the Cacti model.

:func:`derive_machine_params_arrays` holds the only copy of these
formulas and derives a whole batch of configurations at once.
:func:`derive_machine_params` is its memoized one-row view; it adds only
the whole-cycle latencies the cycle-level core reads.  So every evaluator
in the repository prices a configuration identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.power.cacti import ArrayCosts, CactiModel

__all__ = [
    "MachineParams",
    "BatchMachineParams",
    "OpClass",
    "CACHE_BLOCK_BYTES",
    "derive_machine_params",
    "derive_machine_params_arrays",
]

#: Cache block size used throughout the repository (bytes).
CACHE_BLOCK_BYTES = 64

#: Architectural registers reserved out of each physical register file.
ARCH_REGS = 32

#: FO4 inverter delay for the modelled technology, picoseconds.
FO4_DELAY_PS = 18.0

#: Total pipeline logic depth in FO4; stages = ceil(total / per-stage FO4).
TOTAL_PIPELINE_FO4 = 280.0

#: Front-end (fetch-to-rename) logic depth in FO4; sets the refill part of
#: the branch misprediction penalty.
FRONTEND_FO4 = 120.0

#: Fixed part of the misprediction penalty (resolve/redirect), cycles.
MISPREDICT_FIXED_CYCLES = 3

#: Main-memory access latency (flat), nanoseconds.
MEMORY_LATENCY_NS = 80.0

#: Per-latch-per-cycle clock+latch energy, picojoules.  Scales with
#: width x stages: deeper and wider pipelines burn more clock power.
LATCH_ENERGY_PJ = 8.0

#: Functional unit energies per operation, picojoules.
ALU_ENERGY_PJ = {"ialu": 80.0, "imul": 180.0, "falu": 160.0, "fmul": 260.0}

#: Functional unit logic depths in FO4.  Latency in cycles is this depth
#: divided by the per-stage FO4 budget (rounded, minimum one cycle), so a
#: deep pipeline sees multi-cycle ALUs while a shallow one fits the whole
#: ALU in a stage.
ALU_LATENCY_FO4 = {"ialu": 14.0, "imul": 55.0, "falu": 45.0, "fmul": 68.0}


class OpClass:
    """Instruction class codes used by traces and simulators."""

    IALU = 0
    IMUL = 1
    FALU = 2
    FMUL = 3
    LOAD = 4
    STORE = 5
    BRANCH = 6

    NAMES = ("ialu", "imul", "falu", "fmul", "load", "store", "branch")

    @classmethod
    def name(cls, code: int) -> str:
        return cls.NAMES[code]


@dataclass(frozen=True)
class StructureCosts:
    """Per-access dynamic energy (pJ), leakage (mW), latency (cycles) and
    transistor count of one structure instance: one row of
    :class:`~repro.power.cacti.ArrayCosts`, plus its whole-cycle latency."""

    read_energy_pj: float
    write_energy_pj: float
    leakage_mw: float
    latency_cycles: int
    latency_ns: float
    transistors: float


@dataclass(frozen=True)
class MachineParams:
    """Everything a timing or power model needs to know about one config."""

    config: MicroarchConfig

    # Clocking / pipeline geometry.
    frequency_ghz: float
    period_ns: float
    pipeline_stages: int
    frontend_stages: int
    mispredict_penalty: int

    # Execution resources.
    int_alus: int
    fp_units: int
    mem_ports: int

    # Per-op-class execution latency in cycles, indexed by OpClass code.
    op_latency: tuple[int, ...]

    # Memory hierarchy latencies in cycles (access time of that level).
    icache_latency: int
    dcache_latency: int
    l2_latency: int
    memory_latency: int

    # Fractional latencies (no integer rounding) for analytical models;
    # rounding makes the depth response artificially steppy.
    dcache_latency_f: float
    l2_latency_f: float
    memory_latency_f: float
    ialu_latency_f: float

    # Structure costs keyed by structure name.
    structures: dict[str, StructureCosts]

    # Per-cycle clock/latch energy, picojoules.
    clock_energy_pj_per_cycle: float

    # Leakage of every structure together, milliwatts.
    total_leakage_mw: float

    def cycles_for_ns(self, nanoseconds: float) -> int:
        return _whole_cycles(nanoseconds, self.period_ns)


def _whole_cycles(nanoseconds: float, period_ns: float) -> int:
    return max(1, math.ceil(nanoseconds / period_ns - 1e-9))


@lru_cache(maxsize=16384)
def derive_machine_params(config: MicroarchConfig) -> MachineParams:
    """The :class:`MachineParams` of ``config``.

    Row 0 of :func:`derive_machine_params_arrays` over ``config`` alone,
    as Python numbers, plus the whole-cycle latencies the cycle-level
    core reads.  Memoized on the (hashable, frozen) ``config``: a
    one-row array derivation costs a few hundred microseconds, and the
    scalar evaluator, the cycle simulator and the reconfiguration model
    re-derive identical params many times.  The cache holds comfortably
    more entries than a paper-scale sweep (1,298 configs/phase) touches.
    """
    row = derive_machine_params_arrays(
        {name: [value] for name, value in config.as_dict().items()}
    )
    period_ns = row.period_ns.item()

    def cycles(ns: float) -> int:
        return _whole_cycles(ns, period_ns)

    structures = {
        name: StructureCosts(
            read_energy_pj=costs.read_energy_pj.item(),
            write_energy_pj=costs.write_energy_pj.item(),
            leakage_mw=costs.leakage_mw.item(),
            latency_cycles=cycles(costs.latency_ns.item()),
            latency_ns=costs.latency_ns.item(),
            transistors=costs.transistors.item(),
        )
        for name, costs in row.structures.items()
    }

    def fu_cycles(fo4: float) -> int:
        return max(1, round(fo4 / config.depth_fo4))

    op_latency = (
        fu_cycles(ALU_LATENCY_FO4["ialu"]),
        fu_cycles(ALU_LATENCY_FO4["imul"]),
        fu_cycles(ALU_LATENCY_FO4["falu"]),
        fu_cycles(ALU_LATENCY_FO4["fmul"]),
        structures["dcache"].latency_cycles,  # LOAD: address gen + D-cache
        1,  # STORE retires via the write buffer
        fu_cycles(ALU_LATENCY_FO4["ialu"]),  # BRANCH resolves like an ALU op
    )

    return MachineParams(
        config=config,
        frequency_ghz=row.frequency_ghz.item(),
        period_ns=period_ns,
        pipeline_stages=int(row.pipeline_stages.item()),
        frontend_stages=int(row.frontend_stages.item()),
        mispredict_penalty=int(row.mispredict_penalty.item()),
        int_alus=int(row.int_alus.item()),
        fp_units=int(row.fp_units.item()),
        mem_ports=int(row.mem_ports.item()),
        op_latency=op_latency,
        icache_latency=structures["icache"].latency_cycles,
        dcache_latency=structures["dcache"].latency_cycles,
        l2_latency=structures["l2"].latency_cycles,
        memory_latency=cycles(MEMORY_LATENCY_NS),
        dcache_latency_f=row.dcache_latency_f.item(),
        l2_latency_f=row.l2_latency_f.item(),
        memory_latency_f=row.memory_latency_f.item(),
        ialu_latency_f=row.ialu_latency_f.item(),
        structures=structures,
        clock_energy_pj_per_cycle=row.clock_energy_pj_per_cycle.item(),
        total_leakage_mw=row.total_leakage_mw.item(),
    )


_CACTI = CactiModel()


@dataclass(frozen=True)
class BatchMachineParams:
    """Machine parameters for a whole batch of configurations at once.

    Every field is a float64 array with one entry per configuration.
    :func:`derive_machine_params` turns a batch of one into a
    :class:`MachineParams`.
    """

    period_ns: np.ndarray
    frequency_ghz: np.ndarray
    pipeline_stages: np.ndarray
    frontend_stages: np.ndarray
    mispredict_penalty: np.ndarray
    int_alus: np.ndarray
    fp_units: np.ndarray
    mem_ports: np.ndarray
    dcache_latency_f: np.ndarray
    l2_latency_f: np.ndarray
    memory_latency_f: np.ndarray
    ialu_latency_f: np.ndarray
    clock_energy_pj_per_cycle: np.ndarray
    total_leakage_mw: np.ndarray
    #: Per-structure costs, same keys as ``MachineParams.structures``.
    structures: dict[str, ArrayCosts]


def derive_machine_params_arrays(
    values: Mapping[str, np.ndarray | Sequence[int]],
) -> BatchMachineParams:
    """Machine parameters of every configuration of a batch.

    Args:
        values: one integer array per Table I parameter name (as produced
            by ``repro.timing.batch.ConfigBatch``), all of equal length.
    """
    p = {name: np.asarray(array, dtype=np.int64) for name, array in values.items()}
    depth = p["depth_fo4"].astype(np.float64)
    width = p["width"]
    width_f = width.astype(np.float64)
    mem_ports = np.maximum(1, width // 2)

    period_ns = depth * FO4_DELAY_PS / 1000.0
    pipeline_stages = np.maximum(5.0, np.ceil(TOTAL_PIPELINE_FO4 / depth))
    frontend_stages = np.maximum(2.0, np.ceil(FRONTEND_FO4 / depth))

    block_bits = CACHE_BLOCK_BYTES * 8 + 40  # data + tag/state
    rf = _CACTI.batch_costs(p["rf_size"], 64, p["rf_rd_ports"], p["rf_wr_ports"])
    structures = {
        "rob": _CACTI.batch_costs(p["rob_size"], 96, width, width),
        "iq": _CACTI.batch_costs(
            p["iq_size"], 64, width, width, is_cam=True, tag_bits=16
        ),
        "lsq": _CACTI.batch_costs(
            p["lsq_size"], 80, mem_ports, mem_ports, is_cam=True, tag_bits=40
        ),
        # Two register files (integer and floating point) share the RF
        # size/port parameters; "rf" costs one file but leaks for two.
        "rf": replace(rf, leakage_mw=rf.leakage_mw * 2.0),
        "gshare": _CACTI.batch_costs(p["gshare_size"], 2),
        "btb": _CACTI.batch_costs(p["btb_size"], 64),
        # Caches are banked: bandwidth comes from the simulator's memory-port
        # pool, so the arrays themselves are single-ported.
        "icache": _CACTI.batch_costs(p["icache_size"] // CACHE_BLOCK_BYTES, block_bits),
        "dcache": _CACTI.batch_costs(p["dcache_size"] // CACHE_BLOCK_BYTES, block_bits),
        "l2": _CACTI.batch_costs(p["l2_size"] // CACHE_BLOCK_BYTES, block_bits),
    }
    total_leakage = np.zeros(len(period_ns))
    for costs in structures.values():  # in structure order, left to right
        total_leakage = total_leakage + costs.leakage_mw

    return BatchMachineParams(
        period_ns=period_ns,
        frequency_ghz=1.0 / period_ns,
        pipeline_stages=pipeline_stages,
        frontend_stages=frontend_stages,
        mispredict_penalty=frontend_stages + MISPREDICT_FIXED_CYCLES,
        int_alus=width_f,
        fp_units=np.maximum(1, width // 2).astype(np.float64),
        mem_ports=mem_ports.astype(np.float64),
        dcache_latency_f=np.maximum(1.0, structures["dcache"].latency_ns / period_ns),
        l2_latency_f=np.maximum(1.0, structures["l2"].latency_ns / period_ns),
        memory_latency_f=np.maximum(1.0, MEMORY_LATENCY_NS / period_ns),
        ialu_latency_f=np.maximum(1.0, ALU_LATENCY_FO4["ialu"] / depth),
        clock_energy_pj_per_cycle=LATCH_ENERGY_PJ * width_f * pipeline_stages,
        total_leakage_mw=total_leakage,
        structures=structures,
    )
