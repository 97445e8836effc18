"""Cycle-level out-of-order superscalar core model.

This is the reproduction's stand-in for the paper's modified
Wattch/SimpleScalar simulator (RUU replaced by explicit ROB, issue queue
and register files).  It executes a committed-path
:class:`~repro.workloads.trace.Trace` on a
:class:`~repro.config.MicroarchConfig`, modelling every structure of the
Table I design space:

* width-limited fetch/dispatch/issue/commit;
* ROB, issue queue, LSQ and physical register file occupancy limits;
* register-file read/write *port* contention (per file, per cycle);
* functional-unit contention (integer ALUs, FP units, memory ports);
* gshare + BTB branch prediction with an in-flight-branch speculation
  limit and depth-dependent misprediction penalties;
* wrong-path pollution: fetch continues past a mispredicted branch (the
  pending correct-path instructions stand in for wrong-path work, the
  standard trace-driven approximation), occupying queues and issue slots
  until the branch resolves and squashes them;
* an L1I/L1D/L2 cache hierarchy with size-dependent (Cacti) latencies;
* activity accounting for the Wattch power model.

The whole pipeline runs as one loop over local variables, in a fixed
per-cycle stage order: completions (write-back, wake-up, squash) →
commit → issue → fetch/dispatch → observe.  A :class:`CycleSimulator`
optionally records every cycle's structure occupancies for a *collector*
(see :mod:`repro.counters.collector`), which builds the paper's
temporal-histogram hardware counters from them once the run ends.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.timing.branch import GshareBTB
from repro.timing.caches import CacheHierarchy
from repro.timing.resources import (
    ARCH_REGS,
    CACHE_BLOCK_BYTES,
    MachineParams,
    OpClass,
    derive_machine_params,
)
from repro.workloads.trace import Trace

__all__ = ["CycleSimulator", "SimResult", "SimulationError", "SAMPLE_COLUMNS"]

_DEST_NONE, _DEST_INT, _DEST_FP = 0, 1, 2
_POOL_IALU, _POOL_FP, _POOL_MEM = 0, 1, 2

#: Destination register file of each op class (indexed by code).
_DEST_FILE = np.array([_DEST_INT, _DEST_INT, _DEST_FP, _DEST_FP, _DEST_INT,
                       _DEST_NONE, _DEST_NONE])
#: Issue pool of each op class: branches resolve on an integer ALU.
_POOL = np.array([_POOL_IALU, _POOL_IALU, _POOL_FP, _POOL_FP, _POOL_MEM,
                  _POOL_MEM, _POOL_IALU])

#: The per-cycle samples a run records for a collector: ALU-class and
#: memory-port issues, ROB/IQ/LSQ occupancy, integer and FP registers in
#: use, register-file read and write ports used, and the speculative
#: ROB/IQ/LSQ entries.
SAMPLE_COLUMNS = ("alu", "memport", "rob", "iq", "lsq", "intreg", "fpreg",
                  "rdport", "wrport", "robspec", "iqspec", "lsqspec")


class SimulationError(RuntimeError):
    """Raised when the core fails to make forward progress."""


@dataclass
class SimResult:
    """Outcome of one cycle-level simulation."""

    instructions: int
    cycles: int
    frequency_ghz: float
    activity: dict[str, int] = field(default_factory=dict)
    branches: int = 0
    mispredicts: int = 0
    squashed: int = 0
    wrong_path_dispatched: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def time_ns(self) -> float:
        return self.cycles / self.frequency_ghz

    @property
    def ips(self) -> float:
        """Instructions per second."""
        return self.instructions / (self.time_ns * 1e-9) if self.cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0


class CycleSimulator:
    """Executes traces on configurations, cycle by cycle."""

    def __init__(self, config: MicroarchConfig,
                 max_cycles_per_instruction: int = 500) -> None:
        self.config = config
        self.params: MachineParams = derive_machine_params(config)
        self.max_cycles_per_instruction = max_cycles_per_instruction

    # -- public API --------------------------------------------------------

    def run(self, trace: Trace, collector: object | None = None,
            warm: bool = True, warm_trace: Trace | None = None) -> SimResult:
        """Simulate ``trace`` to completion and return the result.

        Args:
            trace: committed-path instruction stream.
            collector: optional hardware-counter collector.  The run then
                records one sample per cycle of each of
                :data:`SAMPLE_COLUMNS` and, once the trace has committed,
                fills the collector with a single
                ``finish(samples, counts)`` call: ``samples`` maps each
                column name to its per-cycle ``int64`` array, and
                ``counts`` holds the ``dispatched``, ``dispatched_mem``,
                ``squashed`` and ``squashed_mem`` totals.  A run the
                watchdog stops leaves the collector untouched.
            warm: pre-train caches and branch predictor with one functional
                pass before the timed run, standing in for the paper's
                10M-instruction warm-up (phases are stationary, so the
                phase's own distribution is the right warming stream).
            warm_trace: stream used to train the *branch predictor* during
                warm-up.  Pass a sibling stream of the same phase when one
                is available: warming gshare on the identical stream lets
                its global history memorise the exact future outcome
                sequence, deflating misprediction rates.  Caches warm on
                ``trace`` itself either way (re-touching the same blocks is
                exactly what steady-state loops do).

        Raises:
            SimulationError: when the trace has not committed after
                ``1000 + max_cycles_per_instruction * len(trace)`` cycles.
        """
        return _simulate(self.params, trace, collector, warm, warm_trace,
                         self.max_cycles_per_instruction)


def _warm_state(hier: CacheHierarchy, bp: GshareBTB, trace: Trace,
                warm_trace: Trace | None) -> None:
    """Functional pass training caches, gshare and BTB (no timing).

    The caches see the trace's instruction-block fetches and data
    accesses in program order (a fetch before its own data access); the
    predictor trains on ``warm_trace``'s branches, or the trace's own.
    """
    blocks = trace.pc // CACHE_BLOCK_BYTES
    fetches = np.flatnonzero(blocks != np.concatenate(([-1], blocks[:-1])))
    data = np.flatnonzero(trace.is_mem)
    order = np.argsort(np.concatenate((2 * fetches, 2 * data + 1)))
    addrs = np.concatenate((trace.pc[fetches], trace.addr[data]))[order]
    l1i, l1d, l2 = hier.l1i.access, hier.l1d.access, hier.l2.access
    for is_data, address in zip((order >= len(fetches)).tolist(),
                                addrs.tolist()):
        if not (l1d(address) if is_data else l1i(address)):
            l2(address)
    source = trace if warm_trace is None else warm_trace
    branch = source.is_branch
    bp.train(source.pc[branch].tolist(), source.taken[branch].tolist())
    for cache in (hier.l1i, hier.l1d, hier.l2):
        cache.reset_stats()


def _simulate(params: MachineParams, trace: Trace, collector: Any,
              warm: bool, warm_trace: Trace | None,
              max_cycles_per_instruction: int) -> SimResult:
    config = params.config
    hier = CacheHierarchy(params)
    bp = GshareBTB(config.gshare_size, config.btb_size)
    if warm:
        _warm_state(hier, bp, trace, warm_trace)

    # The trace, and what each stage derives from an instruction, as
    # plain per-instruction lists.
    n = len(trace)
    ops = trace.ops.tolist()
    src1 = trace.src1.tolist()
    src2 = trace.src2.tolist()
    addr = trace.addr.tolist()
    pcs = trace.pc.tolist()
    taken = trace.taken.tolist()
    dest_of = _DEST_FILE[trace.ops].tolist()
    pool_of = _POOL[trace.ops].tolist()
    is_mem = trace.is_mem.tolist()
    sources = (trace.src1 != 0).astype(np.int64) + (trace.src2 != 0)
    # Register-file read ports an issue takes (memory ops at least one).
    ports_of = np.where(trace.is_mem, np.maximum(sources, 1),
                        sources).tolist()
    iblock = (trace.pc // CACHE_BLOCK_BYTES).tolist()

    # Per-index instruction state (reset on (re)dispatch).
    gen = [0] * n
    in_flight = [False] * n
    issued = [False] * n
    completed = [False] * n
    speculative = [False] * n
    waiting = [0] * n
    wb_cycle = [0] * n

    # Machinery.
    rob: deque[int] = deque()
    ready: list[int] = []  # heap of dispatched indices, oldest first
    events: list[tuple[int, int, int]] = []  # (cycle, index, gen) heap
    dependents: dict[int, list[tuple[int, int]]] = {}
    stores: list[int] = []  # heap of stores not yet known issued
    wb_counts: tuple[dict[int, int], ...] = ({}, {}, {})  # by file, cycle

    # Configuration and latencies.
    width = config.width
    rob_size, iq_size = config.rob_size, config.iq_size
    lsq_size = config.lsq_size
    max_branches = config.branches
    rd_ports, wr_ports = config.rf_rd_ports, config.rf_wr_ports
    int_alus, fp_units = params.int_alus, params.fp_units
    mem_ports = params.mem_ports
    op_latency = params.op_latency
    ilat, dlat = params.icache_latency, params.dcache_latency
    l2lat, memlat = params.l2_latency, params.memory_latency
    penalty = params.mispredict_penalty
    regs = config.rf_size - ARCH_REGS
    max_pops = 4 * width + 4
    limit = 1000 + max_cycles_per_instruction * n
    l1i, l1d, l2 = hier.l1i.access, hier.l1d.access, hier.l2.access
    pht, pht_mask, history = bp.pht, bp.pht_mask, bp.history
    btb_tag, btb_mask = bp.btb_tag, bp.btb_mask
    heappush, heappop = heapq.heappush, heapq.heappop
    LOAD, STORE, BRANCH = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH

    # Resources and front end.
    iq_count = lsq_count = 0
    free_int = free_fp = regs
    branches_unresolved = rob_spec = iq_spec = lsq_spec = 0
    fetch_ptr = fetch_stall_until = 0
    last_iblock = -1
    squash_owner = -1  # index of the unresolved mispredicted branch

    # Statistics.
    cycle = committed = 0
    dispatched = dispatched_mem = wrong_path_dispatched = 0
    branch_fetches = branches_seen = mispredicts = 0
    squashed = squashed_mem = iq_wakeup = 0
    rf_read_int = rf_read_fp = rf_write_int = rf_write_fp = 0
    op_issues = [0] * len(OpClass.NAMES)
    observe = collector is not None
    samples: list[int] = []
    record = samples.extend

    while committed < n:
        cycle += 1
        if cycle > limit:
            raise SimulationError(
                f"no forward progress after {cycle} cycles "
                f"({committed}/{n} committed)"
            )

        # -- completions: write back, wake dependents (bypass: they may
        # issue this cycle), and squash behind a mispredicted branch.
        wb_used = 0
        while events and events[0][0] <= cycle:
            _, i, g = heappop(events)
            if gen[i] != g or not in_flight[i]:
                continue  # squashed instance
            completed[i] = True
            d = dest_of[i]
            if d == _DEST_INT:
                rf_write_int += 1
                wb_used += 1
            elif d == _DEST_FP:
                rf_write_fp += 1
                wb_used += 1
            if ops[i] == BRANCH:
                branches_unresolved -= 1
            waiters = dependents.pop(i, None)
            if waiters:
                iq_wakeup += 1
                for j, jg in waiters:
                    if gen[j] != jg or not in_flight[j]:
                        continue
                    waiting[j] -= 1
                    if waiting[j] == 0:
                        heappush(ready, j)
            if i == squash_owner:
                # Flush every younger instruction and redirect fetch.
                while rob and rob[-1] > i:
                    k = rob.pop()
                    in_flight[k] = False
                    gen[k] += 1  # invalidate pending events and wake-ups
                    d = dest_of[k]
                    if not issued[k]:
                        iq_count -= 1
                        if speculative[k]:
                            iq_spec -= 1
                    elif not completed[k] and d != _DEST_NONE:
                        counts = wb_counts[d]
                        count = counts.get(wb_cycle[k], 0)
                        if count > 1:
                            counts[wb_cycle[k]] = count - 1
                        else:
                            counts.pop(wb_cycle[k], None)
                    if ops[k] == BRANCH and not completed[k]:
                        branches_unresolved -= 1
                    if d == _DEST_INT:
                        free_int += 1
                    elif d == _DEST_FP:
                        free_fp += 1
                    if is_mem[k]:
                        lsq_count -= 1
                        squashed_mem += 1
                        if speculative[k]:
                            lsq_spec -= 1
                    if speculative[k]:
                        rob_spec -= 1
                    squashed += 1
                squash_owner = -1
                fetch_ptr = i + 1
                fetch_stall_until = cycle + penalty
                last_iblock = -1

        # -- commit: retire completed instructions in order.
        retired = 0
        while rob and retired < width:
            i = rob[0]
            if not completed[i]:
                break
            rob.popleft()
            retired += 1
            in_flight[i] = False
            d = dest_of[i]
            if d == _DEST_INT:
                free_int += 1
            elif d == _DEST_FP:
                free_fp += 1
            if is_mem[i]:
                lsq_count -= 1
                if speculative[i]:
                    lsq_spec -= 1
            if speculative[i]:
                rob_spec -= 1
        committed += retired

        # -- issue: oldest ready first, within the functional units, the
        # read ports and a pop budget that stale heap entries also spend.
        # Every entry is ready by now: wake-ups happen earlier in the
        # cycle, and dispatch later.
        ialu_free, fp_free, mem_free = int_alus, fp_units, mem_ports
        rd_int = rd_fp = rd_ports
        if ready:
            deferred = None
            issued_now = pops = 0
            while ready and issued_now < width and pops < max_pops:
                i = heappop(ready)
                pops += 1
                if not in_flight[i] or issued[i] or waiting[i]:
                    continue
                latency = 0  # stays 0 while a hazard holds the instruction
                pool = pool_of[i]
                ports = ports_of[i]
                if pool == _POOL_IALU:
                    if ialu_free and rd_int >= ports:
                        ialu_free -= 1
                        rd_int -= ports
                        rf_read_int += ports
                        latency = op_latency[ops[i]]
                elif pool == _POOL_FP:
                    if fp_free and rd_fp >= ports:
                        fp_free -= 1
                        rd_fp -= ports
                        rf_read_fp += ports
                        latency = op_latency[ops[i]]
                elif mem_free and rd_int >= ports:
                    # A load waits until every older store has issued
                    # (address known).
                    load = ops[i] == LOAD
                    if load:
                        while stores and (issued[stores[0]]
                                          or not in_flight[stores[0]]):
                            heappop(stores)
                    if not load or not stores or stores[0] > i:
                        mem_free -= 1
                        rd_int -= ports
                        rf_read_int += ports
                        address = addr[i]
                        if l1d(address):
                            latency = dlat
                        elif l2(address):
                            latency = dlat + l2lat
                        else:
                            latency = dlat + l2lat + memlat
                        if not load:
                            latency = 1  # retires via the write buffer
                if not latency:
                    if deferred is None:
                        deferred = [i]
                    else:
                        deferred.append(i)
                    continue
                issued[i] = True
                issued_now += 1
                op_issues[ops[i]] += 1
                iq_count -= 1
                if speculative[i]:
                    iq_spec -= 1
                complete = cycle + latency
                d = dest_of[i]
                if d != _DEST_NONE:
                    counts = wb_counts[d]
                    while counts.get(complete, 0) >= wr_ports:
                        complete += 1
                    counts[complete] = counts.get(complete, 0) + 1
                    wb_cycle[i] = complete
                heappush(events, (complete, i, gen[i]))
            if deferred is not None:
                for i in deferred:
                    heappush(ready, i)

        # -- fetch and dispatch, in order, until a structure is full, an
        # I-cache miss stalls fetch or a taken branch redirects it.
        if cycle >= fetch_stall_until:
            fetched = 0
            while fetched < width and fetch_ptr < n:
                i = fetch_ptr
                if len(rob) >= rob_size or iq_count >= iq_size:
                    break
                mem = is_mem[i]
                if mem and lsq_count >= lsq_size:
                    break
                d = dest_of[i]
                if d == _DEST_INT and free_int == 0:
                    break
                if d == _DEST_FP and free_fp == 0:
                    break
                branch = ops[i] == BRANCH
                if branch and branches_unresolved >= max_branches:
                    break
                block = iblock[i]
                if block != last_iblock:
                    last_iblock = block
                    if not l1i(pcs[i]):
                        fetch_stall_until = cycle + ilat + l2lat + (
                            0 if l2(pcs[i]) else memlat)
                        break
                redirect = False
                if branch:
                    pc = pcs[i]
                    branch_fetches += 1
                    slot = ((pc >> 2) ^ history) & pht_mask
                    counter = pht[slot]
                    predicted = counter >= 2
                    target_hit = btb_tag[(pc >> 2) & btb_mask] == pc
                    if squash_owner >= 0:
                        # A wrong-path branch predicts but never trains.
                        redirect = predicted and target_hit
                    else:
                        branches_seen += 1
                        actual = taken[i]
                        if actual:
                            if counter < 3:
                                pht[slot] = counter + 1
                            btb_tag[(pc >> 2) & btb_mask] = pc
                            history = ((history << 1) | 1) & pht_mask
                        else:
                            if counter > 0:
                                pht[slot] = counter - 1
                            history = (history << 1) & pht_mask
                        if predicted != actual or (actual and not target_hit):
                            mispredicts += 1
                            squash_owner = i
                            redirect = predicted and target_hit
                        else:
                            redirect = actual

                # Dispatch (``speculative`` is read before this branch
                # counts as unresolved).
                spec = branches_unresolved > 0
                g = gen[i] + 1
                gen[i] = g
                in_flight[i] = True
                issued[i] = False
                completed[i] = False
                speculative[i] = spec
                rob.append(i)
                iq_count += 1
                dispatched += 1
                if squash_owner >= 0 and i != squash_owner:
                    wrong_path_dispatched += 1
                if spec:
                    rob_spec += 1
                    iq_spec += 1
                if d == _DEST_INT:
                    free_int -= 1
                elif d == _DEST_FP:
                    free_fp -= 1
                if mem:
                    lsq_count += 1
                    dispatched_mem += 1
                    if spec:
                        lsq_spec += 1
                    if ops[i] == STORE:
                        heappush(stores, i)
                elif branch:
                    branches_unresolved += 1
                wait = 0
                for dist in (src1[i], src2[i]):
                    # A source squashed and not yet refetched counts as
                    # ready (its value architecturally exists).
                    src = i - dist
                    if dist and src >= 0 and in_flight[src] \
                            and not completed[src]:
                        waiters = dependents.get(src)
                        if waiters is None:
                            dependents[src] = [(i, g)]
                        else:
                            waiters.append((i, g))
                        wait += 1
                waiting[i] = wait
                if wait == 0:
                    heappush(ready, i)
                fetched += 1
                fetch_ptr += 1
                if redirect:
                    break

        # -- observe.
        if observe:
            record((ialu_free + fp_free, mem_free, len(rob), iq_count,
                    lsq_count, free_int, free_fp, rd_int + rd_fp, wb_used,
                    rob_spec, iq_spec, lsq_spec))

    result = SimResult(
        instructions=n,
        cycles=cycle,
        frequency_ghz=params.frequency_ghz,
        activity={
            "icache_access": hier.l1i.accesses,
            "icache_miss": hier.l1i.misses,
            "dcache_access": hier.l1d.accesses,
            "dcache_miss": hier.l1d.misses,
            "l2_access": hier.l2.accesses,
            "l2_miss": hier.l2.misses,
            "gshare_access": branch_fetches,
            "btb_access": branch_fetches,
            "rob_write": dispatched,
            "rob_read": committed,
            "iq_write": dispatched,
            "iq_wakeup": iq_wakeup,
            "iq_select": sum(op_issues),
            "lsq_write": dispatched_mem,
            "lsq_search": op_issues[LOAD],
            "rf_read_int": rf_read_int,
            "rf_read_fp": rf_read_fp,
            "rf_write_int": rf_write_int,
            "rf_write_fp": rf_write_fp,
            "ialu_op": op_issues[OpClass.IALU] + op_issues[BRANCH],
            "imul_op": op_issues[OpClass.IMUL],
            "falu_op": op_issues[OpClass.FALU],
            "fmul_op": op_issues[OpClass.FMUL],
        },
        branches=branches_seen,
        mispredicts=mispredicts,
        squashed=squashed,
        wrong_path_dispatched=wrong_path_dispatched,
    )
    if observe:
        table = np.fromiter(samples, np.int64, len(samples)).reshape(
            -1, len(SAMPLE_COLUMNS))
        columns = dict(zip(SAMPLE_COLUMNS, table.T))
        # Units, registers and read ports were sampled free: count them used.
        for name, capacity in (("alu", int_alus + fp_units),
                               ("memport", mem_ports), ("intreg", regs),
                               ("fpreg", regs), ("rdport", 2 * rd_ports)):
            columns[name] = capacity - columns[name]
        collector.finish(
            columns,
            {"dispatched": dispatched, "dispatched_mem": dispatched_mem,
             "squashed": squashed, "squashed_mem": squashed_mem},
        )
    return result
