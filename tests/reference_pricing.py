"""The per-configuration Cacti, machine-parameter and Wattch formulas,
kept as a test oracle.

:mod:`repro.power.cacti`, :mod:`repro.timing.resources` and
:mod:`repro.power.wattch` once wrote each pricing formula twice: per
configuration and over arrays.  Only the array forms remain in
``src/repro``; ``derive_machine_params`` is their one-row view and one
Wattch loop prices Python numbers and arrays alike.  This module keeps
the per-configuration forms they replaced, verbatim:
:class:`ArrayGeometry`, the scalar :class:`CactiModel` cost methods,
``_structure_geometries``, ``derive_machine_params`` (with the
:class:`MachineParams` it returned) and ``account`` (with its
:class:`PowerReport`).  ``tests/test_pricing_reference.py`` checks that
the production code returns exactly (``==``) what these return.  The
model constants and the activity tables are shared with production.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.power import cacti as production_cacti
from repro.power.wattch import _ACTIVITY_STRUCTURE, _ALU_KEYS, MEMORY_ACCESS_PJ
from repro.timing.resources import (
    ALU_ENERGY_PJ,
    ALU_LATENCY_FO4,
    CACHE_BLOCK_BYTES,
    FO4_DELAY_PS,
    FRONTEND_FO4,
    LATCH_ENERGY_PJ,
    MEMORY_LATENCY_NS,
    MISPREDICT_FIXED_CYCLES,
    TOTAL_PIPELINE_FO4,
)


@dataclass(frozen=True)
class ArrayGeometry:
    """Geometry of one SRAM/CAM array.

    Attributes:
        entries: number of addressable entries (rows).
        entry_bits: data bits per entry.
        read_ports: dedicated read port count.
        write_ports: dedicated write port count.
        is_cam: content-addressable array (e.g. issue-queue wakeup); a CAM
            match touches every entry's tag, adding entry-count-proportional
            energy and latency.
        tag_bits: tag width for CAM matches (ignored for RAM).
    """

    entries: int
    entry_bits: int
    read_ports: int = 1
    write_ports: int = 1
    is_cam: bool = False
    tag_bits: int = 0

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.entry_bits <= 0:
            raise ValueError("array must have positive entries and entry_bits")
        if self.read_ports < 1 or self.write_ports < 1:
            raise ValueError("arrays need at least one read and one write port")
        if self.is_cam and self.tag_bits <= 0:
            raise ValueError("CAM arrays need positive tag_bits")

    @property
    def total_bits(self) -> int:
        return self.entries * (self.entry_bits + (self.tag_bits if self.is_cam else 0))

    @property
    def ports(self) -> int:
        return self.read_ports + self.write_ports


class CactiModel(production_cacti.CactiModel):
    """The production model's constants with the scalar cost methods."""

    def _port_scale(self, geometry: ArrayGeometry, factor: float) -> float:
        return 1.0 + factor * (geometry.ports - 1)

    def access_latency_ns(self, geometry: ArrayGeometry) -> float:
        """Read access time in nanoseconds."""
        bits = geometry.total_bits
        # np.log2 (not math.log2) so the scalar and batch paths are bitwise
        # identical: the two libm implementations can differ by one ulp.
        latency = (
            self.T_BASE_NS
            + self.T_DECODE_NS * float(np.log2(bits))
            + self.T_WIRE_NS
            * math.sqrt(bits)
            * self._port_scale(geometry, self.T_PORT_FACTOR)
        )
        if geometry.is_cam:
            latency += self.T_CAM_NS_PER_ENTRY * geometry.entries
        return latency

    def read_energy_pj(self, geometry: ArrayGeometry) -> float:
        """Dynamic energy of one read access, in picojoules.

        The whole access (bitlines *and* sensing) scales with port count:
        extra ports stretch every wire in the array.
        """
        bits = geometry.total_bits
        energy = (
            self.E_BITLINE_PJ * math.sqrt(bits)
            + self.E_SENSE_PJ_PER_BIT * geometry.entry_bits
        ) * self._port_scale(geometry, self.E_PORT_FACTOR)
        if geometry.is_cam:
            energy += self.E_CAM_PJ_PER_TAGBIT * geometry.entries * geometry.tag_bits
        return energy

    def write_energy_pj(self, geometry: ArrayGeometry) -> float:
        """Dynamic energy of one write access, in picojoules."""
        bits = geometry.total_bits
        return self.E_WRITE_FACTOR * (
            self.E_BITLINE_PJ * math.sqrt(bits)
            + self.E_SENSE_PJ_PER_BIT * geometry.entry_bits
        ) * self._port_scale(geometry, self.E_PORT_FACTOR)

    def leakage_mw(self, geometry: ArrayGeometry) -> float:
        """Static (leakage) power of the array, in milliwatts."""
        return (
            self.LEAK_MW_PER_BIT
            * geometry.total_bits
            * self._port_scale(geometry, self.LEAK_PORT_FACTOR)
        )

    def transistors(self, geometry: ArrayGeometry) -> float:
        """Approximate transistor count, for reconfiguration costing."""
        per_bit = self.TRANSISTORS_PER_BIT + self.TRANSISTORS_PER_EXTRA_PORT_BIT * (
            geometry.ports - 1
        )
        return per_bit * geometry.total_bits


@dataclass(frozen=True)
class StructureCosts:
    """Per-access dynamic energy (pJ), leakage (mW), latency (cycles) and
    transistor count of one structure instance."""

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

    @property
    def total_leakage_mw(self) -> float:
        return sum(s.leakage_mw for s in self.structures.values())

    def cycles_for_ns(self, nanoseconds: float) -> int:
        return max(1, math.ceil(nanoseconds / self.period_ns - 1e-9))


def _structure_geometries(config: MicroarchConfig) -> dict[str, ArrayGeometry]:
    """Array geometries for every sized structure of the design space."""
    width = config.width
    mem_ports = max(1, width // 2)
    block_bits = CACHE_BLOCK_BYTES * 8 + 40  # data + tag/state
    return {
        "rob": ArrayGeometry(config.rob_size, 96, width, width),
        "iq": ArrayGeometry(
            config.iq_size, 64, width, width, is_cam=True, tag_bits=16
        ),
        "lsq": ArrayGeometry(
            config.lsq_size, 80, mem_ports, mem_ports, is_cam=True, tag_bits=40
        ),
        # Two register files (integer and floating point) share the RF
        # size/port parameters; "rf" costs one file.
        "rf": ArrayGeometry(
            config.rf_size, 64, config.rf_rd_ports, config.rf_wr_ports
        ),
        "gshare": ArrayGeometry(config.gshare_size, 2, 1, 1),
        "btb": ArrayGeometry(config.btb_size, 64, 1, 1),
        # Caches are banked: bandwidth comes from the simulator's memory-port
        # pool, so the arrays themselves are single-ported.
        "icache": ArrayGeometry(config.icache_size // CACHE_BLOCK_BYTES, block_bits),
        "dcache": ArrayGeometry(
            config.dcache_size // CACHE_BLOCK_BYTES, block_bits
        ),
        "l2": ArrayGeometry(config.l2_size // CACHE_BLOCK_BYTES, block_bits),
    }


def derive_machine_params(
    config: MicroarchConfig, cacti: CactiModel | None = None
) -> MachineParams:
    """Compute the :class:`MachineParams` for ``config``."""
    cacti = cacti or _DEFAULT_CACTI
    period_ns = config.depth_fo4 * FO4_DELAY_PS / 1000.0
    frequency_ghz = 1.0 / period_ns
    pipeline_stages = max(5, math.ceil(TOTAL_PIPELINE_FO4 / config.depth_fo4))
    frontend_stages = max(2, math.ceil(FRONTEND_FO4 / config.depth_fo4))
    mispredict_penalty = frontend_stages + MISPREDICT_FIXED_CYCLES

    def cycles(ns: float) -> int:
        return max(1, math.ceil(ns / period_ns - 1e-9))

    structures: dict[str, StructureCosts] = {}
    for name, geometry in _structure_geometries(config).items():
        latency_ns = cacti.access_latency_ns(geometry)
        structures[name] = StructureCosts(
            read_energy_pj=cacti.read_energy_pj(geometry),
            write_energy_pj=cacti.write_energy_pj(geometry),
            leakage_mw=cacti.leakage_mw(geometry)
            * (2.0 if name == "rf" else 1.0),  # int + fp files
            latency_cycles=cycles(latency_ns),
            latency_ns=latency_ns,
            transistors=cacti.transistors(geometry),
        )

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
        frequency_ghz=frequency_ghz,
        period_ns=period_ns,
        pipeline_stages=pipeline_stages,
        frontend_stages=frontend_stages,
        mispredict_penalty=mispredict_penalty,
        int_alus=config.width,
        fp_units=max(1, config.width // 2),
        mem_ports=max(1, config.width // 2),
        op_latency=op_latency,
        icache_latency=structures["icache"].latency_cycles,
        dcache_latency=structures["dcache"].latency_cycles,
        l2_latency=structures["l2"].latency_cycles,
        memory_latency=cycles(MEMORY_LATENCY_NS),
        dcache_latency_f=max(1.0, structures["dcache"].latency_ns / period_ns),
        l2_latency_f=max(1.0, structures["l2"].latency_ns / period_ns),
        memory_latency_f=max(1.0, MEMORY_LATENCY_NS / period_ns),
        ialu_latency_f=max(1.0, ALU_LATENCY_FO4["ialu"] / config.depth_fo4),
        structures=structures,
        clock_energy_pj_per_cycle=LATCH_ENERGY_PJ
        * config.width
        * pipeline_stages,
    )


_DEFAULT_CACTI = CactiModel()


@dataclass
class PowerReport:
    """Energy and power of one run."""

    time_ns: float
    dynamic_pj: float
    leakage_pj: float
    clock_pj: float
    per_structure_pj: dict[str, float] = field(default_factory=dict)

    @property
    def total_pj(self) -> float:
        return self.dynamic_pj + self.leakage_pj + self.clock_pj

    @property
    def energy_joules(self) -> float:
        return self.total_pj * 1e-12

    @property
    def power_watts(self) -> float:
        if self.time_ns <= 0:
            return 0.0
        return self.total_pj / self.time_ns * 1e-3  # pJ/ns = mW


def account(
    activity: dict[str, int], params: "MachineParams", cycles: int
) -> PowerReport:
    """Price an activity dictionary under ``params``.

    Args:
        activity: per-event access counts (the ``SimResult.activity``
            vocabulary; unknown keys raise).
        params: derived machine parameters (energies, leakage, clocking).
        cycles: total cycles of the run (for clock and leakage energy).
    """
    per_structure: dict[str, float] = {}
    dynamic = 0.0
    for key, count in activity.items():
        if count == 0:
            continue
        if key in _ALU_KEYS:
            energy = ALU_ENERGY_PJ[_ALU_KEYS[key]] * count
            per_structure["alu"] = per_structure.get("alu", 0.0) + energy
        elif key in _ACTIVITY_STRUCTURE:
            name, kind = _ACTIVITY_STRUCTURE[key]
            costs = params.structures[name]
            per_access = (
                costs.read_energy_pj if kind == "read" else costs.write_energy_pj
            )
            energy = per_access * count
            per_structure[name] = per_structure.get(name, 0.0) + energy
        elif key.endswith("_miss"):
            if key == "l2_miss":
                energy = MEMORY_ACCESS_PJ * count
                per_structure["memory_bus"] = (
                    per_structure.get("memory_bus", 0.0) + energy
                )
            else:
                continue  # L1 misses are priced via their l2_access events
        else:
            raise KeyError(f"unknown activity key: {key}")
        dynamic += energy

    time_ns = cycles * params.period_ns
    leakage = params.total_leakage_mw * time_ns  # mW * ns = pJ
    clock = params.clock_energy_pj_per_cycle * cycles
    return PowerReport(
        time_ns=time_ns,
        dynamic_pj=dynamic,
        leakage_pj=leakage,
        clock_pj=clock,
        per_structure_pj=per_structure,
    )
