"""Dynamic set sampling for cheap histogram gathering (section VIII).

Gathering the block/set reuse-distance histograms for every cache set
would be costly, so the paper applies *dynamic set sampling* [27]: only a
few sets are monitored, and the histogram of the sampled sets stands in
for the full one.  Table IV reports the number of sets each cache needs
per feature type; figure 9 reports the resulting energy overheads (at
most ~1.6% dynamic and ~1.4% leakage, on the data cache).

This module implements

* sampled histogram construction (:func:`sampled_histogram`);
* a fidelity metric between sampled and full histograms;
* the Table IV search — the minimum power-of-two set count whose sampled
  histogram stays within a fidelity threshold (:func:`minimum_sampled_sets`);
* the figure 9 energy-overhead model (:func:`monitoring_overheads`): the
  monitor arrays (two timestamps and a hit counter per monitored block for
  block reuse; one counter per monitored set for set reuse) are priced
  with the same Cacti model as everything else, relative to the host
  cache's own dynamic and leakage energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.counters.histograms import TemporalHistogram, log2_histogram
from repro.power.cacti import CactiModel
from repro.timing.caches import block_reuse_distances, set_reuse_distances

__all__ = [
    "sampled_histogram",
    "histogram_fidelity",
    "minimum_sampled_sets",
    "MonitorOverheads",
    "monitoring_overheads",
]

_MAX_DISTANCE = 65536

#: Monitor storage per block: two 16-bit timestamps + one 8-bit counter.
BLOCK_MONITOR_BITS = 40
#: Monitor storage per set: one 16-bit hit counter.
SET_MONITOR_BITS = 16


def _sampled_set_ids(n_sets: int, sampled: int) -> np.ndarray:
    """Evenly spaced set indices (deterministic sampling pattern)."""
    if not 1 <= sampled <= n_sets:
        raise ValueError("sampled must be in [1, n_sets]")
    return (np.arange(sampled) * (n_sets / sampled)).astype(np.int64)


def sampled_histogram(
    blocks: np.ndarray, n_sets: int, sampled: int, feature: str
) -> TemporalHistogram:
    """Distance histogram built only from accesses to ``sampled`` sets.

    Args:
        blocks: block-id access stream.
        n_sets: set count of the monitored cache.
        sampled: number of sets monitored.
        feature: ``"set_reuse"`` or ``"block_reuse"`` (the two Table IV
            feature types).
    """
    sets = np.asarray(blocks) % n_sets
    chosen = np.isin(sets, _sampled_set_ids(n_sets, sampled))
    filtered = np.asarray(blocks)[chosen]
    if feature == "set_reuse":
        # Distances are measured in *total* accesses, so scale the sampled
        # spacing back up by the sampling ratio (the hardware keeps one
        # global access counter).
        positions = np.flatnonzero(chosen)
        distances = _positional_set_reuse(filtered, positions, n_sets)
    elif feature == "block_reuse":
        positions = np.flatnonzero(chosen)
        distances = _positional_block_reuse(filtered, positions)
    else:
        raise ValueError(f"unknown feature type {feature!r}")
    return log2_histogram(distances, _MAX_DISTANCE)


def _positional_block_reuse(blocks: np.ndarray,
                            positions: np.ndarray) -> np.ndarray:
    """Block reuse distances measured in original-stream positions."""
    last: dict[int, int] = {}
    out = np.empty(len(blocks), dtype=np.int64)
    for j in range(len(blocks)):
        block = int(blocks[j])
        prev = last.get(block)
        out[j] = -1 if prev is None else int(positions[j]) - prev - 1
        last[block] = int(positions[j])
    return out


def _positional_set_reuse(blocks: np.ndarray, positions: np.ndarray,
                          n_sets: int) -> np.ndarray:
    last: dict[int, int] = {}
    out = np.empty(len(blocks), dtype=np.int64)
    for j in range(len(blocks)):
        set_id = int(blocks[j]) % n_sets
        prev = last.get(set_id)
        out[j] = -1 if prev is None else int(positions[j]) - prev - 1
        last[set_id] = int(positions[j])
    return out


def full_histogram(blocks: np.ndarray, n_sets: int,
                   feature: str) -> TemporalHistogram:
    """Unsampled reference histogram for ``feature``."""
    if feature == "set_reuse":
        return log2_histogram(set_reuse_distances(blocks, n_sets), _MAX_DISTANCE)
    if feature == "block_reuse":
        return log2_histogram(block_reuse_distances(blocks), _MAX_DISTANCE)
    raise ValueError(f"unknown feature type {feature!r}")


def histogram_fidelity(full: TemporalHistogram,
                       sampled: TemporalHistogram) -> float:
    """1 - (total variation distance) between normalised histograms."""
    a = full.normalized(include_cold=True)
    b = sampled.normalized(include_cold=True)
    if len(a) != len(b):
        raise ValueError("histograms must share a binning")
    return 1.0 - 0.5 * float(np.abs(a - b).sum())


def minimum_sampled_sets(
    blocks: np.ndarray,
    n_sets: int,
    feature: str,
    fidelity_threshold: float = 0.9,
) -> int:
    """Smallest power-of-two sampled-set count meeting the fidelity bar.

    This is the Table IV experiment, run per cache and per feature type.
    """
    reference = full_histogram(blocks, n_sets, feature)
    sampled = 1
    while sampled < n_sets:
        candidate = sampled_histogram(blocks, n_sets, sampled, feature)
        if (candidate.total > 0
                and histogram_fidelity(reference, candidate)
                >= fidelity_threshold):
            return sampled
        sampled *= 2
    return n_sets


@dataclass(frozen=True)
class MonitorOverheads:
    """Energy overheads of one monitor, relative to its host cache."""

    dynamic_frac: float
    leakage_frac: float
    monitor_bits: int


def monitoring_overheads(
    cache_size_bytes: int,
    assoc: int,
    sampled_sets: int,
    feature: str,
    block_bytes: int = 64,
) -> MonitorOverheads:
    """Figure 9: dynamic/leakage overhead of gathering one histogram.

    The monitor is a small SRAM (one entry per monitored block or set)
    updated on every access to a sampled set; its energy is compared to
    the host cache's per-access read energy and leakage.
    """
    n_sets = max(1, cache_size_bytes // block_bytes // assoc)
    sampled_sets = min(sampled_sets, n_sets)
    if feature == "block_reuse":
        entries = sampled_sets * assoc
        bits = BLOCK_MONITOR_BITS
    elif feature == "set_reuse":
        entries = sampled_sets
        bits = SET_MONITOR_BITS
    else:
        raise ValueError(f"unknown feature type {feature!r}")

    cacti = CactiModel()
    cache = cacti.batch_costs(cache_size_bytes // block_bytes, block_bytes * 8 + 40)
    monitor = cacti.batch_costs(max(2, entries), bits)

    sample_ratio = sampled_sets / n_sets
    # One monitor update per access to a sampled set.
    dynamic_frac = (
        monitor.write_energy_pj.item()
        * sample_ratio
        / cache.read_energy_pj.item()
    )
    leakage_frac = monitor.leakage_mw.item() / cache.leakage_mw.item()
    return MonitorOverheads(
        dynamic_frac=dynamic_frac,
        leakage_frac=leakage_frac,
        monitor_bits=entries * bits,
    )
