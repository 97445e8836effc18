"""Configuration-independent trace characterisation.

The section V-C protocol needs each phase evaluated on hundreds to
thousands of configurations.  Rather than paying a full cycle-level
simulation per point, we characterise each trace *once* and let the fast
interval evaluator (:mod:`repro.timing.interval`) price any configuration
analytically.  The characterisation captures everything the Table I
parameters interact with:

* **ILP curves** — average dataflow critical-path length of w-instruction
  windows, both unit-weighted (ops) and load-weighted, for a grid of
  window sizes: window-limited IPC for any ROB/IQ/LSQ/RF/branch limit and
  any ALU/load latency follows by interpolation;
* **miss-ratio curves** — LRU stack-distance profiles of the data and
  instruction streams (Mattson: one pass serves all cache sizes);
* **branch tables** — trained gshare mispredict rate for each of the six
  predictor sizes and BTB taken-miss rate for each of the three BTB sizes;
* **mix statistics** — op fractions, source/destination densities, fetch
  run lengths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.config.parameters import parameter_by_name
from repro.timing.branch import btb_misses, gshare_misses
from repro.timing.caches import smoothed_miss_curve, stack_distances
from repro.timing.resources import CACHE_BLOCK_BYTES, OpClass
from repro.workloads.trace import Trace

__all__ = ["TraceCharacterization", "characterize", "WINDOW_GRID"]

#: Window sizes for the ILP curves (covers the ROB range of Table I).
WINDOW_GRID: tuple[int, ...] = (4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 224)

#: Nominal load latency used for the load-weighted critical path.
NOMINAL_LOAD_WEIGHT = 4.0

#: Chunk length of the critical-path DP: the grid's least common multiple
#: (13440), so chunk edges are block edges of every window.  It bounds the
#: DP's arrays at about 160k rows, some 16 MB, whatever the trace length.
_CHUNK = math.lcm(*WINDOW_GRID)


@dataclass(frozen=True)
class TraceCharacterization:
    """Everything the interval evaluator needs to price configurations."""

    instructions: int
    mem_frac: float
    load_frac: float
    store_frac: float
    branch_frac: float
    taken_branch_frac: float  # taken branches / instructions
    fp_frac: float
    int_dest_frac: float  # instructions writing the integer file
    fp_dest_frac: float
    int_src_density: float  # integer-file reads per instruction
    fp_src_density: float
    fetch_block_frac: float  # i-cache block transitions per instruction
    op_fracs: tuple[float, ...]  # fraction per OpClass code

    # ILP: mean critical-path depth of w-instruction windows.
    window_sizes: tuple[int, ...]
    path_ops: tuple[float, ...]  # unit-weighted depth
    path_weighted: tuple[float, ...]  # loads weighted NOMINAL_LOAD_WEIGHT

    # Memory: fully-associative miss ratios per capacity (in blocks).
    dcache_miss: dict[int, float]
    icache_miss: dict[int, float]
    l2_data_miss: dict[int, float]
    l2_inst_miss: dict[int, float]

    # Branches.
    gshare_mispredict: dict[int, float]  # per gshare size, of branches
    btb_taken_miss: dict[int, float]  # per BTB size, of taken branches

    def ilp(self, window: float, alu_latency: float, load_latency: float) -> float:
        """Window-limited IPC for the given effective window and latencies.

        The unit-weighted and load-weighted critical paths let us separate
        the ALU and load contributions to the path:
        ``loads_on_path = (weighted - ops) / (nominal_load_weight - 1)``.
        """
        if window <= self.window_sizes[0]:
            window = self.window_sizes[0]
        w = min(window, self.window_sizes[-1])
        ops = float(np.interp(w, self.window_sizes, self.path_ops))
        weighted = float(np.interp(w, self.window_sizes, self.path_weighted))
        loads_on_path = max(0.0, (weighted - ops) / (NOMINAL_LOAD_WEIGHT - 1.0))
        alu_on_path = max(1e-9, ops - loads_on_path)
        path_cycles = alu_on_path * alu_latency + loads_on_path * load_latency
        return w / max(path_cycles, 1e-9)

    @staticmethod
    def _lookup(curve: dict[int, float], capacity: int) -> float:
        if capacity in curve:
            return curve[capacity]
        keys = sorted(curve)
        values = [curve[k] for k in keys]
        return float(np.interp(capacity, keys, values))

    def dcache_miss_rate(self, size_bytes: int) -> float:
        return self._lookup(self.dcache_miss, size_bytes // CACHE_BLOCK_BYTES)

    def icache_miss_rate(self, size_bytes: int) -> float:
        return self._lookup(self.icache_miss, size_bytes // CACHE_BLOCK_BYTES)

    def l2_miss_rates(self, size_bytes: int) -> tuple[float, float]:
        """(data-side, instruction-side) L2 miss ratios, as fractions of the
        respective *L1 access* streams."""
        blocks = size_bytes // CACHE_BLOCK_BYTES
        return (
            self._lookup(self.l2_data_miss, blocks),
            self._lookup(self.l2_inst_miss, blocks),
        )


def _critical_paths(
    trace: Trace,
) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """Mean critical-path depths of the full blocks of each window size.

    Only windows that hold at least one full block of the trace are
    reported (the whole trace is the one window of a trace shorter than
    the smallest grid size), so the curve never contains an empty mean.
    Long traces are cut into chunks of :data:`_CHUNK` instructions, a
    multiple of every window, so no block straddles two chunks.
    """
    n = len(trace)
    windows = tuple(w for w in WINDOW_GRID if w <= n) or (n,)
    is_load = trace.ops == OpClass.LOAD
    totals = np.zeros((len(windows), 2))
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        totals += _block_peak_sums(trace.src1[start:stop],
                                   trace.src2[start:stop],
                                   is_load[start:stop], windows)
    blocks = n // np.array(windows)
    return (windows,
            tuple((totals[:, 0] / blocks).tolist()),
            tuple((totals[:, 1] / blocks).tolist()))


@functools.lru_cache(maxsize=4)
def _dp_layout(length: int,
               windows: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The row layout of :func:`_block_peak_sums` for a chunk of
    ``length`` instructions: ``(blocks, starts, group, position, block,
    inst)``, read-only.

    It depends on the chunk length and the windows alone, so one layout
    serves every trace of that length (some 1.5 MiB at 4,000
    instructions, 5 MiB for a full chunk).
    """
    window_sizes = np.array(windows)
    n_windows = len(windows)
    blocks = length // window_sizes
    # Rows per (position, window) group, and where each group starts.
    sizes = np.where(np.arange(windows[-1])[:, None] < window_sizes,
                     blocks, 0).ravel()
    starts = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    rows = int(starts[-1])
    groups = np.flatnonzero(sizes)
    group = np.repeat(groups, sizes[groups])
    position, window = np.divmod(group, n_windows)
    block = np.arange(rows) - starts[group]
    inst = block * window_sizes[window] + position
    layout = (blocks, starts, group, position, block, inst)
    for array in layout:
        array.flags.writeable = False
    return layout


def _block_peak_sums(src1: np.ndarray, src2: np.ndarray, is_load: np.ndarray,
                     windows: tuple[int, ...]) -> np.ndarray:
    """Per window, the sums over its full blocks of the unit-weighted
    (column 0) and load-weighted (column 1) critical-path depth.

    The in-block dataflow DP of every window runs at once, one position
    at a time.  Rows are laid out position-major: step ``j`` is one
    contiguous slice holding the ``j``-th instruction of every block of
    every window longer than ``j``, in window then block order.  Depths
    are small integers, so every sum is exact.
    """
    n_windows = len(windows)
    blocks, starts, group, position, block, inst = _dp_layout(len(src1),
                                                              windows)
    rows = len(inst)

    def source_rows(distance: np.ndarray) -> np.ndarray:
        # A source outside the block points at the row itself: it is
        # still zero when its own step gathers it.
        d = distance[inst]
        d = np.where(d <= position, d, 0)
        return starts[group - d * n_windows] + block

    sources = (source_rows(src1), source_rows(src2))
    weight = np.empty((rows, 2))
    weight[:, 0] = 1.0
    weight[:, 1] = np.where(is_load, NOMINAL_LOAD_WEIGHT, 1.0)[inst]
    depth = np.zeros((rows, 2))
    # A step's rows map onto the tail of the (window, block) list.
    peak = np.zeros((int(blocks.sum()), 2))
    steps = starts[::n_windows].tolist()
    for lo, hi in zip(steps[:-1], steps[1:]):
        row = depth.take(sources[0][lo:hi], axis=0)
        np.maximum(row, depth.take(sources[1][lo:hi], axis=0), out=row)
        row += weight[lo:hi]
        depth[lo:hi] = row
        tail = peak[len(peak) - (hi - lo):]
        np.maximum(tail, row, out=tail)
    edges = np.zeros((len(peak) + 1, 2))
    np.cumsum(peak, axis=0, out=edges[1:])
    last = np.cumsum(blocks)
    return edges[last] - edges[last - blocks]


def _capacities(parameter: str) -> list[int]:
    """The distinct capacities, in blocks, of one Table I cache size."""
    return sorted({v // CACHE_BLOCK_BYTES
                   for v in parameter_by_name(parameter).values})


def _measured_rate(misses_joint: int, misses_train: int, n_train: int,
                   n_measure: int) -> float:
    """Miss rate over the measured stream of a warm + measure replay.

    Misses are recovered as rate times count, as from the per-stream
    rate functions, so every rate keeps its exact floating-point value.
    """
    n_joint = n_train + n_measure
    joint = misses_joint / n_joint * n_joint
    train = (misses_train / n_train if n_train else 0.0) * n_train
    return max(0.0, (joint - train) / n_measure)


def characterize(
    trace: Trace, warm_trace: Trace | None = None
) -> TraceCharacterization:
    """Characterise ``trace``: one array pass per analysis, a few
    milliseconds for a few thousand instructions.

    Args:
        trace: the phase trace to characterise.
        warm_trace: sibling stream of the same phase used to *train* the
            branch predictor models before measuring on ``trace``.  Without
            one, the trace warms itself — which lets a long-history gshare
            memorise the exact outcome sequence and under-reports
            mispredictions for poorly-biased branch behaviour.
    """
    n = len(trace)
    ops = trace.ops
    is_load = trace.is_load
    is_store = trace.is_store
    is_mem = trace.is_mem
    is_branch = trace.is_branch
    is_fp = trace.is_fp

    # -- mix ---------------------------------------------------------------
    load_frac = float(is_load.mean())
    store_frac = float(is_store.mean())
    branch_frac = float(is_branch.mean())
    taken_branch_frac = float((is_branch & trace.taken).mean())
    fp_frac = float(is_fp.mean())
    int_dest = (ops == OpClass.IALU) | (ops == OpClass.IMUL) | is_load
    int_dest_frac = float(int_dest.mean())
    fp_dest_frac = float(is_fp.mean())
    srcs = (trace.src1 > 0).astype(np.int32) + (trace.src2 > 0).astype(np.int32)
    srcs_mem_adjusted = np.where(is_mem, np.maximum(srcs, 1), srcs)
    int_src_density = float(srcs_mem_adjusted[~is_fp].sum()) / n
    fp_src_density = float(srcs_mem_adjusted[is_fp].sum()) / n

    # -- ILP ----------------------------------------------------------------
    with obs.span("characterize.ilp"):
        window_sizes, path_ops, path_weighted = _critical_paths(trace)

    # -- caches --------------------------------------------------------------
    with obs.span("characterize.caches"):
        data_blocks = trace.addr[is_mem] // CACHE_BLOCK_BYTES
        pc_blocks_all = trace.pc // CACHE_BLOCK_BYTES
        transitions = np.empty(n, dtype=bool)
        transitions[0] = True
        transitions[1:] = pc_blocks_all[1:] != pc_blocks_all[:-1]
        inst_blocks = pc_blocks_all[transitions]
        fetch_block_frac = float(transitions.mean())

        dcache_capacities = _capacities("dcache_size")
        icache_capacities = _capacities("icache_size")
        l2_capacities = _capacities("l2_size")

        data_sd = stack_distances(data_blocks)
        inst_sd = stack_distances(inst_blocks)
        # A warmed cache sees repeat behaviour: treat cold (first-touch)
        # accesses as hits when the block would fit (the warm-up pass
        # loaded them), i.e. miss iff distance >= capacity.  Cold distances
        # are set to the stream's distinct-block count (each distinct
        # block has one cold access) so tiny caches still miss them.
        data_cold = data_sd < 0
        inst_cold = inst_sd < 0
        data_sd = np.where(data_cold, np.count_nonzero(data_cold), data_sd)
        inst_sd = np.where(inst_cold, np.count_nonzero(inst_cold), inst_sd)

        dcache_miss = smoothed_miss_curve(data_sd, dcache_capacities)
        icache_miss = smoothed_miss_curve(inst_sd, icache_capacities)
        l2_data_miss = smoothed_miss_curve(data_sd, l2_capacities)
        l2_inst_miss = smoothed_miss_curve(inst_sd, l2_capacities)

    # -- branches ------------------------------------------------------------
    with obs.span("characterize.branches"):
        branch_pcs = trace.pc[is_branch]
        branch_taken = trace.taken[is_branch]
        warm = warm_trace if warm_trace is not None else trace
        warm_pcs = warm.pc[warm.is_branch]
        warm_taken = warm.taken[warm.is_branch]
        # Train on the warm stream, measure on the trace: misses over the
        # concatenation minus the training stream's own misses, which one
        # replay of the concatenation counts as its prefix.
        joint_pcs = np.concatenate([warm_pcs, branch_pcs])
        joint_taken = np.concatenate([warm_taken, branch_taken])
        n_measure = len(branch_pcs)
        n_train = len(warm_pcs)

        gshare_mispredict = {}
        for size in parameter_by_name("gshare_size").values:
            if n_measure == 0:
                gshare_mispredict[size] = 0.0
                continue
            misses_train, misses_joint = gshare_misses(
                joint_pcs, joint_taken, size, split=n_train)
            gshare_mispredict[size] = _measured_rate(
                misses_joint, misses_train, n_train, n_measure)

        taken_measure = int(branch_taken.sum())
        taken_train = int(warm_taken.sum())
        btb_taken_miss = {}
        for size in parameter_by_name("btb_size").values:
            if taken_measure == 0:
                btb_taken_miss[size] = 0.0
                continue
            misses_train, misses_joint = btb_misses(
                joint_pcs, joint_taken, size, split=n_train)
            btb_taken_miss[size] = _measured_rate(
                misses_joint, misses_train, taken_train, taken_measure)

    return TraceCharacterization(
        instructions=n,
        mem_frac=load_frac + store_frac,
        load_frac=load_frac,
        store_frac=store_frac,
        branch_frac=branch_frac,
        taken_branch_frac=taken_branch_frac,
        fp_frac=fp_frac,
        int_dest_frac=int_dest_frac,
        fp_dest_frac=fp_dest_frac,
        int_src_density=int_src_density,
        fp_src_density=fp_src_density,
        fetch_block_frac=fetch_block_frac,
        op_fracs=tuple(
            float((ops == code).mean()) for code in range(len(OpClass.NAMES))
        ),
        window_sizes=window_sizes,
        path_ops=path_ops,
        path_weighted=path_weighted,
        dcache_miss=dcache_miss,
        icache_miss=icache_miss,
        l2_data_miss=l2_data_miss,
        l2_inst_miss=l2_inst_miss,
        gshare_mispredict=gshare_mispredict,
        btb_taken_miss=btb_taken_miss,
    )
