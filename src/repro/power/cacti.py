"""Cacti-style analytical latency / energy / area model.

The paper altered Wattch's underlying Cacti models so that access latency
and energy-per-access track each structure's configured size, and used them
to model component latencies as sizes vary.  This module provides that
scaling analytically: :meth:`CactiModel.batch_costs` maps the geometry of
one SRAM/CAM array (entries x bits, port counts, CAM-ness), given for a
whole batch of configurations at once, to

* access latency in nanoseconds — grows with array size and port count;
* dynamic read/write energy per access in picojoules — grows with array
  size and superlinearly with port count (ports widen every cell);
* leakage power in milliwatts — proportional to transistor count;
* transistor count — used by the reconfiguration cost model of section
  VIII (powering up 1.2M transistors takes 200ns).

These are the only copies of the formulas: one configuration is priced as
a batch of one (see :func:`repro.timing.resources.derive_machine_params`).

Absolute values target a ~70nm-class technology and only need to be
*plausible*; every experiment in the paper (and in this reproduction) is a
relative comparison under one consistent model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ArrayCosts", "CactiModel"]


@dataclass(frozen=True)
class ArrayCosts:
    """Costs of one structure across a batch of geometries.

    Every field is a float64 array with one entry per configuration in the
    batch.
    """

    latency_ns: np.ndarray
    read_energy_pj: np.ndarray
    write_energy_pj: np.ndarray
    leakage_mw: np.ndarray
    transistors: np.ndarray


class CactiModel:
    """Analytical scaling laws for SRAM/CAM arrays.

    The constants below were chosen so that representative structures land
    at credible absolute numbers (a 32KB 2-port L1 reads in ~1.1ns for
    ~45pJ; a 4MB L2 reads in ~3.3ns; a 160-entry 24-port register file
    reads in ~1ns for a few pJ) and, more importantly, so that the partial
    derivatives all have the right sign and rough magnitude: doubling a
    structure raises its latency, per-access energy and leakage; adding
    ports costs superlinearly.
    """

    # Latency model: t = T_BASE + T_DECODE*log2(bits) + T_WIRE*sqrt(bits)*f(ports)
    T_BASE_NS = 0.15
    T_DECODE_NS = 0.032
    T_WIRE_NS = 0.00030
    T_PORT_FACTOR = 0.15
    T_CAM_NS_PER_ENTRY = 0.0016

    # Energy model (pJ): bitline/wordline term + sense term + port blowup.
    E_BITLINE_PJ = 0.012
    E_SENSE_PJ_PER_BIT = 0.10
    E_PORT_FACTOR = 0.30
    E_WRITE_FACTOR = 1.15
    E_CAM_PJ_PER_TAGBIT = 0.0028

    # Leakage: per-bit leakage grows with port count (cell area).
    LEAK_MW_PER_BIT = 120e-6
    LEAK_PORT_FACTOR = 0.20

    # Transistor model: 6T cell plus ~2 transistors per extra port per bit.
    TRANSISTORS_PER_BIT = 6.0
    TRANSISTORS_PER_EXTRA_PORT_BIT = 2.0

    def batch_costs(
        self,
        entries: np.ndarray | int,
        entry_bits: int,
        read_ports: np.ndarray | int = 1,
        write_ports: np.ndarray | int = 1,
        is_cam: bool = False,
        tag_bits: int = 0,
    ) -> ArrayCosts:
        """Costs of one structure for a whole batch of configurations.

        Args:
            entries: addressable entries (rows), per configuration.
            entry_bits: data bits per entry.
            read_ports: dedicated read ports, per configuration or shared.
            write_ports: dedicated write ports, per configuration or shared.
            is_cam: content-addressable array (e.g. issue-queue wakeup); a
                CAM match touches every entry's tag, adding
                entry-count-proportional energy and latency.
            tag_bits: tag width for CAM matches (ignored for RAM).

        Geometries are not validated: this is the hot path of batch
        pricing, and configurations are checked against Table I when they
        are built.
        """
        entries = np.asarray(entries, dtype=np.float64)
        ports = np.asarray(read_ports, dtype=np.float64) + np.asarray(
            write_ports, dtype=np.float64
        )
        total_bits = entries * (entry_bits + (tag_bits if is_cam else 0))
        sqrt_bits = np.sqrt(total_bits)

        def port_scale(factor: float) -> np.ndarray:
            return 1.0 + factor * (ports - 1)

        latency = (
            self.T_BASE_NS
            + self.T_DECODE_NS * np.log2(total_bits)
            + self.T_WIRE_NS * sqrt_bits * port_scale(self.T_PORT_FACTOR)
        )
        # The whole access (bitlines *and* sensing) scales with port count:
        # extra ports stretch every wire in the array.
        base_energy = (
            self.E_BITLINE_PJ * sqrt_bits + self.E_SENSE_PJ_PER_BIT * entry_bits
        )
        read = base_energy * port_scale(self.E_PORT_FACTOR)
        write = self.E_WRITE_FACTOR * base_energy * port_scale(self.E_PORT_FACTOR)
        if is_cam:
            latency = latency + self.T_CAM_NS_PER_ENTRY * entries
            read = read + self.E_CAM_PJ_PER_TAGBIT * entries * tag_bits
        leakage = (
            self.LEAK_MW_PER_BIT * total_bits * port_scale(self.LEAK_PORT_FACTOR)
        )
        per_bit = self.TRANSISTORS_PER_BIT + self.TRANSISTORS_PER_EXTRA_PORT_BIT * (
            ports - 1
        )
        return ArrayCosts(
            latency_ns=latency,
            read_energy_pj=read,
            write_energy_pj=write,
            leakage_mw=leakage,
            transistors=per_bit * total_bits,
        )
