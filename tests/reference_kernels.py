"""Scalar reference implementations of the trace-analysis kernels.

These are the straightforward per-element loops that
:mod:`repro.timing.characterize`, :mod:`repro.timing.caches` and
:mod:`repro.timing.branch` replace with array code.  They live here only
as test oracles: ``tests/test_timing_kernels.py`` checks that every
production kernel returns exactly what its reference returns.
"""

from __future__ import annotations

import numpy as np

from repro.timing.characterize import WINDOW_GRID
from repro.timing.resources import OpClass

_NOMINAL_LOAD_WEIGHT = 4.0


def critical_paths(trace, windows=WINDOW_GRID):
    """Mean unit- and load-weighted critical-path depth of the full
    ``w``-instruction blocks of ``trace``, per window size."""
    n = len(trace)
    load_list = (trace.ops == OpClass.LOAD).tolist()
    src1_list = trace.src1.tolist()
    src2_list = trace.src2.tolist()
    path_ops: list[float] = []
    path_weighted: list[float] = []
    for w in windows:
        total_ops = 0.0
        total_weighted = 0.0
        blocks = 0
        for start in range(0, n - w + 1, w):
            depth_ops = [0.0] * w
            depth_weighted = [0.0] * w
            max_ops = 0.0
            max_weighted = 0.0
            for j in range(w):
                i = start + j
                weight = _NOMINAL_LOAD_WEIGHT if load_list[i] else 1.0
                best_o = 0.0
                best_w = 0.0
                d1 = src1_list[i]
                if d1 and d1 <= j:
                    best_o = depth_ops[j - d1]
                    best_w = depth_weighted[j - d1]
                d2 = src2_list[i]
                if d2 and d2 <= j:
                    o = depth_ops[j - d2]
                    if o > best_o:
                        best_o = o
                    v = depth_weighted[j - d2]
                    if v > best_w:
                        best_w = v
                o = best_o + 1.0
                v = best_w + weight
                depth_ops[j] = o
                depth_weighted[j] = v
                if o > max_ops:
                    max_ops = o
                if v > max_weighted:
                    max_weighted = v
            total_ops += max_ops
            total_weighted += max_weighted
            blocks += 1
        path_ops.append(total_ops / max(blocks, 1))
        path_weighted.append(total_weighted / max(blocks, 1))
    return tuple(path_ops), tuple(path_weighted)


def stack_distances(blocks: np.ndarray) -> np.ndarray:
    """LRU stack distances via a Fenwick tree over access times."""
    n = len(blocks)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    tree = np.zeros(n + 1, dtype=np.int64)

    def tree_add(i: int, delta: int) -> None:
        i += 1
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def tree_sum(i: int) -> int:  # prefix sum of [0, i]
        i += 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)

    last_seen: dict[int, int] = {}
    for t in range(n):
        block = int(blocks[t])
        prev = last_seen.get(block)
        if prev is None:
            out[t] = -1
        else:
            out[t] = tree_sum(t - 1) - tree_sum(prev)
            tree_add(prev, -1)
        tree_add(t, 1)
        last_seen[block] = t
    return out


def block_reuse_distances(blocks: np.ndarray) -> np.ndarray:
    """Accesses since the previous access to the same block (-1 = cold)."""
    n = len(blocks)
    out = np.empty(n, dtype=np.int64)
    last_seen: dict[int, int] = {}
    for t in range(n):
        block = int(blocks[t])
        prev = last_seen.get(block)
        out[t] = -1 if prev is None else t - prev - 1
        last_seen[block] = t
    return out


def set_reuse_distances(blocks: np.ndarray, n_sets: int) -> np.ndarray:
    """Accesses since the previous access to the same set (-1 = cold)."""
    n = len(blocks)
    out = np.empty(n, dtype=np.int64)
    last_seen: dict[int, int] = {}
    for t in range(n):
        set_id = int(blocks[t]) % n_sets
        prev = last_seen.get(set_id)
        out[t] = -1 if prev is None else t - prev - 1
        last_seen[set_id] = t
    return out


def simulate_gshare(pcs: np.ndarray, taken: np.ndarray, entries: int) -> float:
    """Direction mispredict rate of a gshare replayed branch by branch."""
    if len(pcs) == 0:
        return 0.0
    mask = entries - 1
    history_mask = mask
    pht = np.full(entries, 2, dtype=np.int8)
    history = 0
    wrong = 0
    shifted = (pcs.astype(np.int64) >> 2)
    for i in range(len(pcs)):
        index = (int(shifted[i]) ^ history) & mask
        counter = pht[index]
        outcome = bool(taken[i])
        if (counter >= 2) != outcome:
            wrong += 1
        if outcome:
            if counter < 3:
                pht[index] = counter + 1
        elif counter > 0:
            pht[index] = counter - 1
        history = ((history << 1) | int(outcome)) & history_mask
    return wrong / len(pcs)


def simulate_btb(pcs: np.ndarray, taken: np.ndarray, entries: int) -> float:
    """Taken-branch miss rate of a direct-mapped BTB replayed branch by
    branch (0.0 when no branch is taken)."""
    mask = entries - 1
    tags: dict[int, int] = {}
    misses = 0
    taken_count = 0
    for i in range(len(pcs)):
        pc = int(pcs[i])
        if not taken[i]:
            continue
        taken_count += 1
        index = (pc >> 2) & mask
        if tags.get(index) != pc:
            misses += 1
        tags[index] = pc
    if taken_count == 0:
        return 0.0
    return misses / taken_count


def branch_tables(trace, warm_trace=None, gshare_sizes=(), btb_sizes=()):
    """``characterize()``'s gshare and BTB tables as formerly computed:
    separate replays of the warm + measured stream and of the warm stream
    alone, through the scalar simulators above."""
    is_branch = trace.ops == OpClass.BRANCH
    branch_pcs = trace.pc[is_branch]
    branch_taken = trace.taken[is_branch]
    warm = warm_trace if warm_trace is not None else trace
    warm_branch = warm.ops == OpClass.BRANCH
    warm_pcs = warm.pc[warm_branch]
    warm_taken = warm.taken[warm_branch]
    joint_pcs = np.concatenate([warm_pcs, branch_pcs])
    joint_taken = np.concatenate([warm_taken, branch_taken])
    n_measure = len(branch_pcs)
    n_train = len(warm_pcs)

    gshare = {}
    for size in gshare_sizes:
        if n_measure == 0:
            gshare[size] = 0.0
            continue
        misses_joint = simulate_gshare(joint_pcs, joint_taken, size) * (
            n_train + n_measure)
        misses_train = simulate_gshare(warm_pcs, warm_taken, size) * n_train
        gshare[size] = max(0.0, (misses_joint - misses_train) / n_measure)

    taken_measure = int(branch_taken.sum())
    taken_train = int(warm_taken.sum())
    btb = {}
    for size in btb_sizes:
        if taken_measure == 0:
            btb[size] = 0.0
            continue
        misses_joint = simulate_btb(joint_pcs, joint_taken, size) * (
            taken_train + taken_measure)
        misses_train = simulate_btb(warm_pcs, warm_taken, size) * taken_train
        btb[size] = max(0.0, (misses_joint - misses_train) / taken_measure)
    return gshare, btb


def cache_histograms(blocks, n_sets, n_sets_reduced, maximum):
    """The four distance histograms of ``collect_counters``' per-cache
    counters, formerly computed with the loops above: a cold access
    counts at the stream's distinct-block count (stack distance) or its
    length (reuse distances)."""
    from repro.counters.histograms import log2_histogram

    def warmed(distances, infinite):
        return np.where(distances < 0, max(infinite, 1), distances)

    n_distinct = len(np.unique(blocks)) if len(blocks) else 1
    return {
        "stack_distance": log2_histogram(
            warmed(stack_distances(blocks), n_distinct), maximum),
        "block_reuse": log2_histogram(
            warmed(block_reuse_distances(blocks), len(blocks)), maximum),
        "set_reuse": log2_histogram(
            warmed(set_reuse_distances(blocks, n_sets), len(blocks)),
            maximum),
        "reduced_set_reuse": log2_histogram(
            warmed(set_reuse_distances(blocks, n_sets_reduced), len(blocks)),
            maximum),
    }
