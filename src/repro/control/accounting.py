"""Reconfiguration-overhead accounting.

The policy arena (:mod:`repro.control.arena`) bills every switch through
:func:`charge_reconfiguration`, and ``tests/reference_controller.py``
(the paper's figure 2 loop, kept as a test oracle) calls the same
function.  Both therefore charge a transition through exactly the same
floating-point operations in exactly the same order, which is what lets
the arena's golden guard demand *bit-identity* between the softmax policy
run through the arena and the reference loop.

The charge for switching from ``source`` to ``target`` at an interval is

* a visible pipeline stall — ``stall_cycles * period_ns``, scaled down by
  ``interval_length / PAPER_INTERVAL_INSTRUCTIONS`` (synthetic intervals
  are far shorter than the paper's 10M-instruction SimPoints, so absolute
  stalls are scaled to preserve the paper's *relative* overhead);
* the gate-switching energy plus the idle energy burnt during the stall
  (leakage + clock tree at the target configuration's operating point).

``multiplier`` scales the whole charge; arena scenarios use it to study
overhead regimes (free / paper / punitive).  ``multiplier=1.0`` is exact:
IEEE multiplication by 1.0 preserves every bit, so the default regime is
the paper's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.configuration import MicroarchConfig
from repro.control.reconfiguration import ReconfigurationCost
from repro.timing.resources import derive_machine_params

__all__ = ["ReconfigurationCharge", "overhead_scale", "charge_reconfiguration"]

#: The adaptation interval the overhead model is calibrated against: the
#: paper's SimPoint interval of 10M instructions.
PAPER_INTERVAL_INSTRUCTIONS = 10_000_000


@dataclass(frozen=True)
class ReconfigurationCharge:
    """The overhead actually billed to one interval."""

    stall_ns: float
    energy_pj: float


def overhead_scale(interval_length: int) -> float:
    """The stall-scaling factor for a synthetic interval length."""
    return min(1.0, interval_length / PAPER_INTERVAL_INSTRUCTIONS)


def charge_reconfiguration(
    cost: ReconfigurationCost,
    target: MicroarchConfig,
    interval_length: int,
    multiplier: float = 1.0,
) -> ReconfigurationCharge:
    """Price one transition's visible stall and energy.

    Args:
        cost: the :class:`ReconfigurationModel` transition cost.
        target: the configuration being switched *to* (its machine
            parameters set the clock period and idle power).
        interval_length: dynamic instructions per interval.
        multiplier: scenario overhead regime; 1.0 is the paper's
            accounting, bit for bit.
    """
    scale = overhead_scale(interval_length)
    params = derive_machine_params(target)
    stall_ns = cost.stall_cycles * params.period_ns * scale * multiplier
    idle_power_mw = (
        params.total_leakage_mw
        + params.clock_energy_pj_per_cycle / params.period_ns
    )
    energy_pj = cost.energy_pj * scale * multiplier + idle_power_mw * stall_ns
    return ReconfigurationCharge(stall_ns=stall_ns, energy_pj=energy_pj)
