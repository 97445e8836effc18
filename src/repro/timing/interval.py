"""Fast interval-analysis configuration evaluator.

Prices any Table I configuration against a
:class:`~repro.timing.characterize.TraceCharacterization` in microseconds,
enabling the paper's 1,298-evaluation-per-phase training protocol (section
V-C) on a laptop.  The model follows classical interval analysis (Eyerman &
Eeckhout): a dependence/width/port-limited *base IPC*, plus additive
penalties for branch mispredictions and cache misses, with window-dependent
memory-level parallelism hiding part of the miss latency.

The evaluator shares the Wattch power accounting and the
:class:`~repro.timing.resources.MachineParams` derivation with the
cycle-level core, so a configuration is priced identically by both models;
only the *timing* is approximated.  ``benchmarks/test_validation_evaluators``
reports the agreement between the two.
"""

from __future__ import annotations

from repro.config.configuration import MicroarchConfig
from repro.power.metrics import EfficiencyResult
from repro.power.wattch import account
from repro.timing.characterize import TraceCharacterization
from repro.timing.resources import (
    ARCH_REGS,
    MachineParams,
    OpClass,
    derive_machine_params,
)

__all__ = ["IntervalEvaluator"]


class IntervalEvaluator:
    """Analytical (trace-characterisation driven) configuration evaluator."""

    # Calibration constants (fit once against the cycle model; see the
    # evaluator-validation benchmark).
    IQ_WINDOW_FACTOR = 3.0  # in-flight window supported per IQ entry
    DISPATCH_OVERHEAD = 1.08  # wrong-path dispatch inflation
    BRANCH_RESOLVE_EXTRA = 2.0  # resolve latency beyond the refill penalty
    MAX_MLP = 8.0  # memory-level-parallelism ceiling
    MLP_WINDOW_SHARE = 0.75  # fraction of the window usable for MLP

    def evaluate(
        self, char: TraceCharacterization, config: MicroarchConfig
    ) -> EfficiencyResult:
        """Estimated timing, energy and efficiency of ``config``."""
        params = derive_machine_params(config)
        cpi = self._cpi(char, config, params)
        cycles = max(1, round(char.instructions * cpi))
        activity = self._activity(char, config, params)
        report = account(activity, params, cycles)
        return EfficiencyResult(
            instructions=char.instructions,
            cycles=cycles,
            time_ns=cycles * params.period_ns,
            energy_pj=float(report.total_pj),
        )

    # -- timing ---------------------------------------------------------------

    def effective_window(
        self, char: TraceCharacterization, config: MicroarchConfig
    ) -> float:
        """In-flight window after every structural limit of Table I."""
        regs = max(config.rf_size - ARCH_REGS, 1)
        limits = (
            float(config.rob_size),
            config.iq_size * self.IQ_WINDOW_FACTOR,
            config.lsq_size / max(char.mem_frac, 0.05),
            regs / max(char.int_dest_frac, 0.05),
            regs / max(char.fp_dest_frac, 0.02),
            config.branches / max(char.branch_frac, 0.02),
        )
        return min(limits)

    def base_ipc(
        self,
        char: TraceCharacterization,
        config: MicroarchConfig,
        params: MachineParams,
    ) -> float:
        """Stall-free sustainable IPC (width, ports, FUs, dependences)."""
        window = self.effective_window(char, config)
        alu_latency = params.ialu_latency_f
        load_latency = params.dcache_latency_f
        ilp_cap = char.ilp(window, alu_latency, load_latency)
        fetch_cap = min(
            float(config.width), 1.0 / max(char.taken_branch_frac, 1e-3)
        )
        int_ops = 1.0 - char.fp_frac - char.mem_frac
        caps = [
            float(config.width),
            fetch_cap,
            ilp_cap,
            config.rf_rd_ports / max(char.int_src_density, 0.05),
            config.rf_rd_ports / max(char.fp_src_density, 0.02),
            config.rf_wr_ports / max(char.int_dest_frac, 0.05),
            config.rf_wr_ports / max(char.fp_dest_frac, 0.02),
            params.mem_ports / max(char.mem_frac, 0.02),
            params.int_alus / max(int_ops, 0.05),
            params.fp_units / max(char.fp_frac, 0.02),
        ]
        return max(min(caps), 1e-3)

    def mispredict_rate(
        self, char: TraceCharacterization, config: MicroarchConfig
    ) -> float:
        """Per-branch misprediction probability under ``config``."""
        gshare = char.gshare_mispredict[config.gshare_size]
        btb = char.btb_taken_miss[config.btb_size]
        taken_share = char.taken_branch_frac / max(char.branch_frac, 1e-6)
        return min(0.95, gshare + (1.0 - gshare) * btb * taken_share)

    def _mlp(self, window: float, miss_density: float,
             parallelism: float) -> float:
        """Overlappable misses: bounded by the window's expected miss
        count *and* by the code's dependence parallelism — a pointer
        chase cannot overlap its misses no matter how large the window."""
        return max(1.0, min(self.MAX_MLP,
                            window * self.MLP_WINDOW_SHARE * miss_density,
                            parallelism))

    def _cpi(
        self,
        char: TraceCharacterization,
        config: MicroarchConfig,
        params: MachineParams,
    ) -> float:
        base = 1.0 / self.base_ipc(char, config, params)
        window = self.effective_window(char, config)
        l2_latency = params.l2_latency_f
        memory_latency = params.memory_latency_f

        # Branch mispredictions: refill + resolve.
        mispredicts = char.branch_frac * self.mispredict_rate(char, config)
        branch_cpi = mispredicts * (
            params.mispredict_penalty + self.BRANCH_RESOLVE_EXTRA
        )

        # Data-side misses.  L2 hits and memory accesses are partly hidden
        # by memory-level parallelism inside the in-flight window.
        miss_l1d = char.dcache_miss_rate(config.dcache_size)
        miss_l2d, miss_l2i = char.l2_miss_rates(config.l2_size)
        miss_l2d = min(miss_l2d, miss_l1d)
        l2_hit_frac = miss_l1d - miss_l2d
        parallelism = char.ilp(window, 1.0, 1.0)
        mlp_l2 = self._mlp(window, char.mem_frac * miss_l1d, parallelism)
        mlp_mem = self._mlp(window, char.mem_frac * miss_l2d, parallelism)
        data_cpi = char.mem_frac * (
            l2_hit_frac * l2_latency / mlp_l2
            + miss_l2d * (l2_latency + memory_latency) / mlp_mem
        )

        # Instruction-side misses stall fetch serially.
        miss_l1i = char.icache_miss_rate(config.icache_size)
        miss_l2i = min(miss_l2i, miss_l1i)
        inst_cpi = char.fetch_block_frac * (
            miss_l1i * l2_latency + miss_l2i * memory_latency
        )

        return base + branch_cpi + data_cpi + inst_cpi

    # -- energy -----------------------------------------------------------------

    def _activity(
        self,
        char: TraceCharacterization,
        config: MicroarchConfig,
        params: MachineParams,
    ) -> dict[str, int]:
        n = char.instructions
        dispatched = n * self.DISPATCH_OVERHEAD
        mem_ops = dispatched * char.mem_frac
        branches = dispatched * char.branch_frac

        icache_accesses = dispatched * char.fetch_block_frac
        icache_misses = icache_accesses * char.icache_miss_rate(config.icache_size)
        dcache_misses = mem_ops * char.dcache_miss_rate(config.dcache_size)
        miss_l2d, miss_l2i = char.l2_miss_rates(config.l2_size)
        l2_misses = mem_ops * miss_l2d + icache_accesses * miss_l2i

        fracs = char.op_fracs
        compute = {
            "ialu_op": dispatched
            * (fracs[OpClass.IALU] + fracs[OpClass.BRANCH]),
            "imul_op": dispatched * fracs[OpClass.IMUL],
            "falu_op": dispatched * fracs[OpClass.FALU],
            "fmul_op": dispatched * fracs[OpClass.FMUL],
        }
        activity = {
            "icache_access": icache_accesses,
            "icache_miss": icache_misses,
            "dcache_access": mem_ops,
            "dcache_miss": dcache_misses,
            "l2_access": icache_misses + dcache_misses,
            "l2_miss": l2_misses,
            "gshare_access": branches,
            "btb_access": branches,
            "rob_write": dispatched,
            "rob_read": float(n),
            "iq_write": dispatched,
            "iq_wakeup": dispatched * 0.8,
            "iq_select": dispatched,
            "lsq_write": mem_ops,
            "lsq_search": dispatched * char.load_frac,
            "rf_read_int": dispatched * char.int_src_density,
            "rf_read_fp": dispatched * char.fp_src_density,
            "rf_write_int": dispatched * char.int_dest_frac,
            "rf_write_fp": dispatched * char.fp_dest_frac,
            **compute,
        }
        return {key: int(round(value)) for key, value in activity.items()}
