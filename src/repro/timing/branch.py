"""Branch prediction: gshare direction predictor and a direct-mapped BTB.

Both structures follow the Table I design space: the gshare pattern table
varies from 1K to 32K two-bit counters (history length tracks the index
width) and the BTB from 1K to 4K entries.  A fetched branch is considered
*mispredicted* when the predicted direction is wrong, or when it is taken
but misses in the BTB (no target to redirect to).

Besides the stateful predictor used by the cycle-level core, this module
provides replay helpers used by the trace characterisation of
:mod:`repro.timing.characterize` (mispredict rate as a function of
predictor size).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.timing.caches import previous_access

__all__ = ["GshareBTB", "btb_misses", "gshare_misses", "simulate_gshare",
           "simulate_btb"]


class GshareBTB:
    """A gshare direction predictor fused with a direct-mapped BTB.

    The pattern table (two-bit counters, 0..3) and the BTB tags are plain
    lists, so the cycle-level core reads and trains them inline.

    Args:
        gshare_entries: pattern-history-table size (power of two).
        btb_entries: BTB entry count (power of two).
    """

    def __init__(self, gshare_entries: int, btb_entries: int) -> None:
        if gshare_entries & (gshare_entries - 1) or gshare_entries <= 0:
            raise ValueError("gshare_entries must be a power of two")
        if btb_entries & (btb_entries - 1) or btb_entries <= 0:
            raise ValueError("btb_entries must be a power of two")
        self.gshare_entries = gshare_entries
        self.btb_entries = btb_entries
        self.pht = [2] * gshare_entries  # weakly taken
        # The global history holds as many outcomes as the index has bits.
        self.pht_mask = gshare_entries - 1
        self.history = 0
        self.btb_tag = [-1] * btb_entries
        self.btb_mask = btb_entries - 1
        self.lookups = 0
        self.updates = 0
        self.direction_mispredicts = 0
        self.btb_misses = 0

    def predict(self, pc: int) -> tuple[bool, bool]:
        """Predict branch at ``pc``.

        Returns:
            ``(predicted_taken, btb_hit)``.
        """
        self.lookups += 1
        taken = self.pht[((pc >> 2) ^ self.history) & self.pht_mask] >= 2
        btb_hit = self.btb_tag[(pc >> 2) & self.btb_mask] == pc
        return taken, btb_hit

    def is_mispredict(self, predicted_taken: bool, btb_hit: bool,
                      actual_taken: bool) -> bool:
        """Apply the misprediction rule (direction wrong, or taken+BTB miss)."""
        if predicted_taken != actual_taken:
            return True
        return actual_taken and not btb_hit

    def update(self, pc: int, actual_taken: bool) -> None:
        """Train direction counter, global history and BTB with the outcome."""
        self.train((pc,), (actual_taken,))

    def train(self, pcs: Sequence[int], taken: Sequence[bool]) -> None:
        """:meth:`update` with each branch of a stream, in order."""
        pht, mask, history = self.pht, self.pht_mask, self.history
        btb_tag, btb_mask = self.btb_tag, self.btb_mask
        for pc, outcome in zip(pcs, taken):
            index = ((pc >> 2) ^ history) & mask
            counter = pht[index]
            if outcome:
                if counter < 3:
                    pht[index] = counter + 1
                btb_tag[(pc >> 2) & btb_mask] = pc
                history = ((history << 1) | 1) & mask
            else:
                if counter > 0:
                    pht[index] = counter - 1
                history = (history << 1) & mask
        self.history = history
        self.updates += len(pcs)

    def predict_and_update(self, pc: int, actual_taken: bool) -> bool:
        """Trace-driven one-shot: predict, train, return mispredict flag."""
        predicted, btb_hit = self.predict(pc)
        mispredict = self.is_mispredict(predicted, btb_hit, actual_taken)
        if mispredict:
            self.direction_mispredicts += int(predicted != actual_taken)
            self.btb_misses += int(predicted == actual_taken)
        self.update(pc, actual_taken)
        return mispredict


def _check_stream(pcs: np.ndarray, taken: np.ndarray) -> None:
    if len(pcs) != len(taken):
        raise ValueError("pcs and taken must have equal length")


def gshare_misses(pcs: np.ndarray, taken: np.ndarray, entries: int,
                  split: int = 0) -> tuple[int, int]:
    """Direction mispredictions of a gshare of ``entries`` two-bit
    counters replayed over a branch stream from a cold table.

    Returns the misses among the first ``split`` branches and the misses
    over the whole stream.  Replaying a warm-up stream followed by a
    measured stream thus also yields the warm-up stream's own count: its
    replay is exactly the joint replay's prefix.

    The global history only shifts in outcomes, so every branch's
    pattern-table index is computed as an array up front; only the
    saturating-counter updates run in order, over Python ints.
    """
    _check_stream(pcs, taken)
    if entries < 1 or split < 0:
        raise ValueError("entries must be positive and split non-negative")
    n = len(pcs)
    mask = entries - 1
    outcomes = np.asarray(taken, dtype=bool)
    bits = outcomes.astype(np.int64)
    # (h << 1 | outcome) & mask keeps an outcome only while it stays below
    # the lowest clear bit of mask: history bit j is the outcome j + 1
    # branches back.
    history = np.zeros(n, dtype=np.int64)
    for j in range(min(((mask + 1) & ~mask).bit_length() - 1, n - 1)):
        history[j + 1:] |= bits[:n - j - 1] << j
    slots = (((np.asarray(pcs).astype(np.int64) >> 2) ^ history)
             & mask).tolist()
    outcome_list = outcomes.tolist()
    pht = [2] * entries
    wrong = 0
    counts = []
    for lo, hi in ((0, min(split, n)), (min(split, n), n)):
        for slot, outcome in zip(slots[lo:hi], outcome_list[lo:hi]):
            counter = pht[slot]
            if outcome:
                if counter < 2:
                    wrong += 1
                if counter < 3:
                    pht[slot] = counter + 1
            else:
                if counter >= 2:
                    wrong += 1
                if counter > 0:
                    pht[slot] = counter - 1
        counts.append(wrong)
    return counts[0], counts[1]


def btb_misses(pcs: np.ndarray, taken: np.ndarray, entries: int,
               split: int = 0) -> tuple[int, int]:
    """Taken branches missing a direct-mapped BTB of ``entries`` entries,
    replayed from empty: among the first ``split`` branches, and over the
    whole stream.

    Only taken branches look up and fill the BTB, so one misses iff the
    previous taken branch on its entry had another PC, or there was none.
    """
    _check_stream(pcs, taken)
    taken = np.asarray(taken, dtype=bool)
    taken_pcs = np.asarray(pcs).astype(np.int64)[taken]
    prev = previous_access((taken_pcs >> 2) & (entries - 1))
    miss = (prev < 0) | (taken_pcs[np.maximum(prev, 0)] != taken_pcs)
    taken_split = int(np.count_nonzero(taken[:split]))
    return (int(np.count_nonzero(miss[:taken_split])),
            int(np.count_nonzero(miss)))


def simulate_gshare(
    pcs: np.ndarray, taken: np.ndarray, entries: int
) -> float:
    """Direction mispredict *rate* of a gshare of ``entries`` counters over
    a branch stream (0.0 for an empty stream)."""
    _, wrong = gshare_misses(pcs, taken, entries)
    return wrong / len(pcs) if len(pcs) else 0.0


def simulate_btb(pcs: np.ndarray, taken: np.ndarray, entries: int) -> float:
    """Fraction of *taken* branches missing a direct-mapped BTB of
    ``entries`` entries (0.0 if the stream has no taken branches)."""
    _, misses = btb_misses(pcs, taken, entries)
    taken_count = int(np.count_nonzero(taken))
    return misses / taken_count if taken_count else 0.0
