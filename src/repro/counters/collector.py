"""Gathering the Table II hardware counters on the profiling configuration.

Stage 2 of the paper's technique (figure 2): when a new phase is detected,
the application briefly runs on the *profiling configuration* (largest
structures, maximum speculation) while hardware counters are gathered.
:func:`collect_counters` performs that run with the cycle-level core and
returns a :class:`PhaseCounters` bundle containing every counter of
Table II:

* **Width** — ALU usage and memory-port usage temporal histograms;
* **Queues** (ROB, IQ, LSQ) — occupancy histograms plus the average
  fraction of speculative instructions present and the fraction that were
  mis-speculated (squashed);
* **Register file** — integer/FP register usage and read/write port usage
  histograms;
* **Caches** (L1I, L1D, L2) — stack distance, block reuse distance, set
  reuse distance and *reduced* set reuse distance histograms (the last
  mapping accesses onto the smallest configurable cache's sets);
* **Branch predictor** — BTB reuse distance histogram and the
  misprediction rate;
* **Pipeline depth** — cycles per instruction.

The occupancy/port counters come from the per-cycle samples the
simulator records and hands to an :class:`OccupancyCollector` once, when
the run ends; the distance counters derive from the access streams
themselves (they are properties of the phase, gathered by the profiling
hardware in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.config.configuration import PROFILING_CONFIG, MicroarchConfig
from repro.config.parameters import parameter_by_name
from repro.counters.histograms import TemporalHistogram, log2_histogram
from repro.timing.caches import (
    block_reuse_distances,
    set_reuse_distances,
    stack_distances,
)
from repro.timing.cycle import CycleSimulator
from repro.timing.resources import ARCH_REGS, CACHE_BLOCK_BYTES
from repro.workloads.trace import Trace

__all__ = ["PhaseCounters", "CacheCounters", "OccupancyCollector",
           "collect_counters"]

#: Distance histograms saturate here (log2 bins).
_MAX_DISTANCE = 65536


@dataclass
class CacheCounters:
    """The four distance histograms of one cache (Table II, "Caches")."""

    stack_distance: TemporalHistogram
    block_reuse: TemporalHistogram
    set_reuse: TemporalHistogram
    reduced_set_reuse: TemporalHistogram
    accesses: int
    miss_rate: float  # on the profiling configuration


@dataclass
class PhaseCounters:
    """Everything gathered while profiling one phase (Table II)."""

    # Width.
    alu_usage: TemporalHistogram
    mem_port_usage: TemporalHistogram

    # Queues.
    rob_usage: TemporalHistogram
    iq_usage: TemporalHistogram
    lsq_usage: TemporalHistogram
    rob_speculative_frac: float
    iq_speculative_frac: float
    lsq_speculative_frac: float
    rob_misspeculated_frac: float
    iq_misspeculated_frac: float
    lsq_misspeculated_frac: float

    # Register file.
    int_reg_usage: TemporalHistogram
    fp_reg_usage: TemporalHistogram
    rd_port_usage: TemporalHistogram
    wr_port_usage: TemporalHistogram

    # Caches.
    icache: CacheCounters
    dcache: CacheCounters
    l2: CacheCounters

    # Branch predictor.
    btb_reuse: TemporalHistogram
    mispredict_rate: float

    # Pipeline depth / general.
    cpi: float
    ipc: float
    instructions: int
    cycles: int

    # Conventional ("basic") scalar counters for the baseline feature set.
    avg_rob_occupancy: float
    avg_iq_occupancy: float
    avg_lsq_occupancy: float
    avg_int_regs: float
    avg_fp_regs: float
    alu_ops: int
    icache_accesses: int
    icache_miss_rate: float
    dcache_accesses: int
    dcache_miss_rate: float
    l2_accesses: int
    l2_miss_rate: float
    bpred_accesses: int


class OccupancyCollector:
    """Per-cycle structure usage of one profiling run.

    :meth:`CycleSimulator.run <repro.timing.cycle.CycleSimulator.run>`
    records the samples and fills the collector once, at the end of the
    run, through :meth:`finish`.
    """

    def __init__(self, config: MicroarchConfig) -> None:
        self.config = config
        regs = config.rf_size - ARCH_REGS
        self.alu_usage = TemporalHistogram.linear(config.width, config.width + 1)
        self.mem_port_usage = TemporalHistogram.linear(
            max(1, config.width // 2), max(1, config.width // 2) + 1
        )
        self.rob_usage = TemporalHistogram.linear(config.rob_size, 16)
        self.iq_usage = TemporalHistogram.linear(config.iq_size, 10)
        self.lsq_usage = TemporalHistogram.linear(config.lsq_size, 10)
        self.int_reg_usage = TemporalHistogram.linear(regs, 16)
        self.fp_reg_usage = TemporalHistogram.linear(regs, 16)
        self.rd_port_usage = TemporalHistogram.linear(
            2 * config.rf_rd_ports, 2 * config.rf_rd_ports + 1
        )
        self.wr_port_usage = TemporalHistogram.linear(
            2 * config.rf_wr_ports, 2 * config.rf_wr_ports + 1
        )
        self.cycles = 0
        self.rob_spec_sum = 0
        self.iq_spec_sum = 0
        self.lsq_spec_sum = 0
        self.rob_occ_sum = 0
        self.iq_occ_sum = 0
        self.lsq_occ_sum = 0
        self.int_reg_sum = 0
        self.fp_reg_sum = 0
        self.dispatched = 0
        self.dispatched_mem = 0
        self.squashed = 0
        self.squashed_mem = 0

    def finish(self, samples: dict[str, np.ndarray],
               counts: dict[str, int]) -> None:
        """Build the histograms and sums from one run's per-cycle
        ``samples`` (keyed by :data:`~repro.timing.cycle.SAMPLE_COLUMNS`)
        and its dispatch and squash ``counts``."""
        targets = {
            "alu": self.alu_usage, "memport": self.mem_port_usage,
            "rob": self.rob_usage, "iq": self.iq_usage,
            "lsq": self.lsq_usage, "intreg": self.int_reg_usage,
            "fpreg": self.fp_reg_usage, "rdport": self.rd_port_usage,
            "wrport": self.wr_port_usage,
        }
        for name, histogram in targets.items():
            histogram.add_many(samples[name])
        total = {name: int(column.sum()) for name, column in samples.items()}
        self.cycles = len(samples["rob"])
        self.rob_spec_sum = total["robspec"]
        self.iq_spec_sum = total["iqspec"]
        self.lsq_spec_sum = total["lsqspec"]
        self.rob_occ_sum = total["rob"]
        self.iq_occ_sum = total["iq"]
        self.lsq_occ_sum = total["lsq"]
        self.int_reg_sum = total["intreg"]
        self.fp_reg_sum = total["fpreg"]
        self.dispatched = counts["dispatched"]
        self.dispatched_mem = counts["dispatched_mem"]
        self.squashed = counts["squashed"]
        self.squashed_mem = counts["squashed_mem"]

    # -- summaries -------------------------------------------------------------

    def speculative_frac(self, queue: str) -> float:
        occ = {"rob": self.rob_occ_sum, "iq": self.iq_occ_sum,
               "lsq": self.lsq_occ_sum}[queue]
        spec = {"rob": self.rob_spec_sum, "iq": self.iq_spec_sum,
                "lsq": self.lsq_spec_sum}[queue]
        return spec / occ if occ else 0.0

    def misspeculated_frac(self, queue: str) -> float:
        if queue == "lsq":
            return (self.squashed_mem / self.dispatched_mem
                    if self.dispatched_mem else 0.0)
        return self.squashed / self.dispatched if self.dispatched else 0.0


def _cache_counters(blocks: np.ndarray, n_sets_profiling: int,
                    n_sets_smallest: int, accesses: int,
                    miss_rate: float) -> CacheCounters:
    # First touches carry an effectively-infinite distance: record them at
    # the stream's distinct-block count so that a streaming phase (all
    # cold) and a scattering phase (deep warm reuse) produce *aligned*
    # deep-tail histograms — both need capacity, and the model should see
    # them as the same signal.
    def warmed(distances: np.ndarray, infinite: int) -> np.ndarray:
        return np.where(distances < 0, max(infinite, 1), distances)

    distances = stack_distances(blocks)
    n_distinct = int(np.count_nonzero(distances < 0))  # one cold access each
    stack = log2_histogram(warmed(distances, n_distinct), _MAX_DISTANCE)
    block_reuse = log2_histogram(
        warmed(block_reuse_distances(blocks), len(blocks)), _MAX_DISTANCE)
    set_reuse = log2_histogram(
        warmed(set_reuse_distances(blocks, n_sets_profiling),
               len(blocks)), _MAX_DISTANCE)
    reduced = log2_histogram(
        warmed(set_reuse_distances(blocks, n_sets_smallest),
               len(blocks)), _MAX_DISTANCE)
    return CacheCounters(
        stack_distance=stack,
        block_reuse=block_reuse,
        set_reuse=set_reuse,
        reduced_set_reuse=reduced,
        accesses=accesses,
        miss_rate=miss_rate,
    )


def _sets(size_bytes: int, assoc: int) -> int:
    return max(1, size_bytes // CACHE_BLOCK_BYTES // assoc)


def collect_counters(
    trace: Trace,
    config: MicroarchConfig = PROFILING_CONFIG,
    warm_trace: Trace | None = None,
) -> PhaseCounters:
    """Profile ``trace`` on ``config`` and gather all Table II counters.

    ``warm_trace`` (a sibling stream of the same phase) trains the branch
    predictor before the profiled run; see
    :meth:`~repro.timing.cycle.CycleSimulator.run`.
    """
    collector = OccupancyCollector(config)
    with obs.span("counters.simulate"):
        result = CycleSimulator(config).run(trace, collector=collector,
                                            warm_trace=warm_trace)
    activity = result.activity

    def rate(miss: str, access: str) -> float:
        return activity[miss] / activity[access] if activity[access] else 0.0

    with obs.span("counters.distances"):
        # Cache access streams (block granularity).
        data_blocks = trace.addr[trace.is_mem] // CACHE_BLOCK_BYTES
        pc_blocks_all = trace.pc // CACHE_BLOCK_BYTES
        transitions = np.empty(len(trace), dtype=bool)
        transitions[0] = True
        transitions[1:] = pc_blocks_all[1:] != pc_blocks_all[:-1]
        inst_blocks = pc_blocks_all[transitions]
        # The L2 sees L1 miss streams; approximate with the interleaved
        # (data + instruction) block stream, which preserves distances.
        l2_blocks = np.concatenate([data_blocks, inst_blocks])
        icache = _cache_counters(
            inst_blocks, _sets(config.icache_size, 4),
            _sets(parameter_by_name("icache_size").minimum, 4),
            activity["icache_access"], rate("icache_miss", "icache_access"),
        )
        dcache = _cache_counters(
            data_blocks, _sets(config.dcache_size, 4),
            _sets(parameter_by_name("dcache_size").minimum, 4),
            activity["dcache_access"], rate("dcache_miss", "dcache_access"),
        )
        l2 = _cache_counters(
            l2_blocks, _sets(config.l2_size, 8),
            _sets(parameter_by_name("l2_size").minimum, 8),
            activity["l2_access"], rate("l2_miss", "l2_access"),
        )
        btb_reuse = log2_histogram(
            block_reuse_distances(trace.pc[trace.is_branch] >> 2),
            _MAX_DISTANCE)

    return PhaseCounters(
        alu_usage=collector.alu_usage,
        mem_port_usage=collector.mem_port_usage,
        rob_usage=collector.rob_usage,
        iq_usage=collector.iq_usage,
        lsq_usage=collector.lsq_usage,
        rob_speculative_frac=collector.speculative_frac("rob"),
        iq_speculative_frac=collector.speculative_frac("iq"),
        lsq_speculative_frac=collector.speculative_frac("lsq"),
        rob_misspeculated_frac=collector.misspeculated_frac("rob"),
        iq_misspeculated_frac=collector.misspeculated_frac("iq"),
        lsq_misspeculated_frac=collector.misspeculated_frac("lsq"),
        int_reg_usage=collector.int_reg_usage,
        fp_reg_usage=collector.fp_reg_usage,
        rd_port_usage=collector.rd_port_usage,
        wr_port_usage=collector.wr_port_usage,
        icache=icache,
        dcache=dcache,
        l2=l2,
        btb_reuse=btb_reuse,
        mispredict_rate=result.mispredict_rate,
        cpi=1.0 / result.ipc if result.ipc else 0.0,
        ipc=result.ipc,
        instructions=result.instructions,
        cycles=result.cycles,
        avg_rob_occupancy=collector.rob_occ_sum / max(collector.cycles, 1),
        avg_iq_occupancy=collector.iq_occ_sum / max(collector.cycles, 1),
        avg_lsq_occupancy=collector.lsq_occ_sum / max(collector.cycles, 1),
        avg_int_regs=collector.int_reg_sum / max(collector.cycles, 1),
        avg_fp_regs=collector.fp_reg_sum / max(collector.cycles, 1),
        alu_ops=(
            activity["ialu_op"] + activity["imul_op"]
            + activity["falu_op"] + activity["fmul_op"]
        ),
        icache_accesses=activity["icache_access"],
        icache_miss_rate=rate("icache_miss", "icache_access"),
        dcache_accesses=activity["dcache_access"],
        dcache_miss_rate=rate("dcache_miss", "dcache_access"),
        l2_accesses=activity["l2_access"],
        l2_miss_rate=rate("l2_miss", "l2_access"),
        bpred_accesses=activity["gshare_access"],
    )
