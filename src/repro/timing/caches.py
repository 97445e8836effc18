"""Cache hierarchy and locality-distance analysis.

Provides

* :class:`Cache` — a set-associative LRU cache with access statistics and
  optional per-set instrumentation;
* :class:`CacheHierarchy` — L1I + L1D + unified L2 over a flat memory,
  returning access latencies in cycles for a given
  :class:`~repro.timing.resources.MachineParams`;
* locality analyses used by the Table II counters and by the fast
  evaluator's trace characterisation: LRU **stack distances** (number of
  distinct blocks since the previous access to the same block), **block
  reuse distances** (number of accesses since the previous access to the
  same block) and **set reuse distances** (per-set access spacing,
  including the paper's "reduced set" variant that emulates the smallest
  cache's set mapping).
"""

from __future__ import annotations

import numpy as np

from repro.timing.resources import CACHE_BLOCK_BYTES, MachineParams

__all__ = [
    "Cache",
    "CacheHierarchy",
    "AccessResult",
    "previous_access",
    "stack_distances",
    "block_reuse_distances",
    "set_reuse_distances",
    "miss_ratio_curve",
]


class Cache:
    """Set-associative LRU cache of ``size_bytes``.

    Each set is a most-recently-used-first list of block ids, created on
    the set's first access.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int = 4,
        block_bytes: int = CACHE_BLOCK_BYTES,
        name: str = "cache",
    ) -> None:
        if size_bytes < assoc * block_bytes:
            raise ValueError("cache smaller than one set")
        n_blocks = size_bytes // block_bytes
        if n_blocks % assoc:
            raise ValueError("size must be a whole number of sets")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.n_sets = n_blocks // assoc
        self._sets: list[list[int] | None] = [None] * self.n_sets
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def set_index(self, addr: int) -> int:
        return (addr // self.block_bytes) % self.n_sets

    def access(self, addr: int) -> bool:
        """Access the block containing ``addr``; returns hit/miss and
        updates LRU state (allocate-on-miss, for reads and writes alike)."""
        block = addr // self.block_bytes
        index = block % self.n_sets
        ways = self._sets[index]
        if ways is None:
            ways = self._sets[index] = []
        if block in ways:
            self.hits += 1
            if ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            return True
        self.misses += 1
        if len(ways) >= self.assoc:
            ways.pop()
        ways.insert(0, block)
        return False

    def probe(self, addr: int) -> bool:
        """Hit check without state update."""
        block = addr // self.block_bytes
        return block in (self._sets[block % self.n_sets] or ())

    def flush(self) -> None:
        """Invalidate all contents (used on cache reconfiguration)."""
        self._sets = [None] * self.n_sets

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


class AccessResult:
    """Outcome of one hierarchy access: latency + which levels missed."""

    __slots__ = ("latency", "l1_hit", "l2_hit")

    def __init__(self, latency: int, l1_hit: bool, l2_hit: bool) -> None:
        self.latency = latency
        self.l1_hit = l1_hit
        self.l2_hit = l2_hit


class CacheHierarchy:
    """L1 instruction + L1 data + unified L2 with flat memory behind."""

    def __init__(self, params: MachineParams, assoc_l1: int = 4,
                 assoc_l2: int = 8) -> None:
        config = params.config
        self.params = params
        self.l1i = Cache(config.icache_size, assoc_l1, name="icache")
        self.l1d = Cache(config.dcache_size, assoc_l1, name="dcache")
        self.l2 = Cache(config.l2_size, assoc_l2, name="l2")

    def access_inst(self, pc: int) -> AccessResult:
        """Instruction fetch of the block containing ``pc``."""
        return self._access(self.l1i, self.params.icache_latency, pc)

    def access_data(self, addr: int) -> AccessResult:
        """Data access of the block containing ``addr``."""
        return self._access(self.l1d, self.params.dcache_latency, addr)

    def _access(self, l1: Cache, l1_latency: int, addr: int) -> AccessResult:
        if l1.access(addr):
            return AccessResult(l1_latency, True, True)
        if self.l2.access(addr):
            return AccessResult(l1_latency + self.params.l2_latency, False, True)
        latency = (
            l1_latency + self.params.l2_latency + self.params.memory_latency
        )
        return AccessResult(latency, False, False)


# ---------------------------------------------------------------------------
# Locality-distance analyses (Table II counters / characterisation inputs).
# ---------------------------------------------------------------------------


def previous_access(keys: np.ndarray) -> np.ndarray:
    """Index of the previous occurrence of each key (-1 = first).

    A stable sort groups equal keys in access order, so each access's
    predecessor within its group is its previous occurrence.
    """
    keys = np.asarray(keys)
    prev = np.full(len(keys), -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeat = ordered[1:] == ordered[:-1]
    prev[order[1:][repeat]] = order[:-1][repeat]
    return prev


def _count_earlier_smaller(values: np.ndarray) -> np.ndarray:
    """``#{s < t : values[s] < values[t]}`` for every ``t``.

    ``values`` are non-negative integers.  A wavelet matrix answers every
    query at once, one bit level per pass from the top: at each level the
    values are stably partitioned by that bit (zeros first), and a query
    whose own value has the bit set counts the zeros of its current range
    and follows the ones, otherwise it follows the zeros.
    """
    n = len(values)
    queries = values  # ``values`` is re-partitioned at every level
    counts = np.zeros(n, dtype=np.int64)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.arange(n, dtype=np.int64)  # query t ranges over [0, t)
    zeros = np.zeros(n + 1, dtype=np.int64)
    for level in range(int(values.max(initial=0)).bit_length() - 1, -1, -1):
        bits = (values >> level) & 1
        np.cumsum(1 - bits, out=zeros[1:])
        zeros_lo = zeros[lo]
        zeros_hi = zeros[hi]
        ones = ((queries >> level) & 1).astype(bool)
        counts += np.where(ones, zeros_hi - zeros_lo, 0)
        lo = np.where(ones, zeros[-1] + lo - zeros_lo, zeros_lo)
        hi = np.where(ones, zeros[-1] + hi - zeros_hi, zeros_hi)
        values = np.concatenate([values[bits == 0], values[bits == 1]])
    return counts


def stack_distances(blocks: np.ndarray) -> np.ndarray:
    """LRU stack distance of each access in a block-id stream.

    The stack distance of an access is the number of *distinct* blocks
    referenced since the previous access to the same block; first touches
    get distance -1 (cold).

    Between an access at ``t`` and its previous occurrence ``p``, each
    distinct block is counted once at its first access after ``p``, i.e.
    at the ``s`` in ``(p, t)`` whose own previous occurrence is before
    ``p``.  Every ``s <= p`` has its previous occurrence before ``p``, so
    the distance is ``#{s < t : prev[s] < p} - (p + 1)``: one offline
    dominance count, O(N log N).
    """
    prev = previous_access(blocks)
    out = np.full(len(prev), -1, dtype=np.int64)
    warm = np.flatnonzero(prev >= 0)
    if len(warm):
        below = _count_earlier_smaller(prev + 1)
        out[warm] = below[warm] - prev[warm] - 1
    return out


def block_reuse_distances(blocks: np.ndarray) -> np.ndarray:
    """Accesses since the previous access to the same block (-1 = cold)."""
    prev = previous_access(blocks)
    gaps = np.arange(len(prev), dtype=np.int64) - prev - 1
    return np.where(prev >= 0, gaps, -1)


def set_reuse_distances(blocks: np.ndarray, n_sets: int) -> np.ndarray:
    """Accesses since the previous access to the same *set* (-1 = cold).

    With ``n_sets`` equal to the smallest configurable cache's set count
    this is the paper's "reduced set reuse distance", which estimates the
    conflicts a smaller cache would suffer.
    """
    if n_sets <= 0:
        raise ValueError("n_sets must be positive")
    return block_reuse_distances(np.asarray(blocks) % n_sets)


def miss_ratio_curve(
    stack_dists: np.ndarray, capacities_blocks: list[int]
) -> dict[int, float]:
    """Fully-associative LRU miss ratios implied by stack distances.

    An access misses a cache of ``c`` blocks iff its stack distance is
    cold (-1) or at least ``c``.  This is the classical single-pass
    Mattson construction: one pass over the trace serves every capacity.
    """
    n = len(stack_dists)
    if n == 0:
        return {c: 0.0 for c in capacities_blocks}
    curve = {}
    for capacity in capacities_blocks:
        misses = int(((stack_dists < 0) | (stack_dists >= capacity)).sum())
        curve[capacity] = misses / n
    return curve


def smoothed_miss_curve(
    stack_dists: np.ndarray,
    capacities_blocks: list[int],
    sharpness: float = 4.0,
) -> dict[int, float]:
    """Miss ratios with a logistic transition around each capacity.

    The hard Mattson threshold (hit iff distance < capacity) is exact for
    a fully-associative LRU cache, but real set-associative caches see a
    *smooth* transition around capacity: set conflicts evict some blocks
    early and interleaving spares others late.  We model the per-access
    miss probability as logistic in the log of distance/capacity,

        P(miss | d) = 1 / (1 + (c / d)^sharpness),

    which is 0.5 at d == c, ~0.06 at d == c/2 and ~0.94 at d == 2c for the
    default sharpness.  Cold accesses count as full misses.
    """
    n = len(stack_dists)
    if n == 0:
        return {c: 0.0 for c in capacities_blocks}
    dists = np.asarray(stack_dists, dtype=np.float64)
    cold = dists < 0
    warm = np.maximum(dists[~cold], 0.5)
    curve = {}
    for capacity in capacities_blocks:
        p_miss = 1.0 / (1.0 + (capacity / warm) ** sharpness)
        curve[capacity] = float((p_miss.sum() + cold.sum()) / n)
    return curve
