"""Online phase-change detection and recognition.

Stage 1 of the paper's technique (figure 2): hardware monitors execution
and flags when the program enters a new phase.  Following Dhodapkar &
Smith [31], the detector keeps a *working-set signature* per interval — a
bit vector of hashed code blocks touched — and signals a phase change when
the relative signature distance to the previous interval exceeds a
threshold.

The detector also *recognises* phases it has seen before by matching the
current signature against a table of stored phase signatures.  Recognition
is what lets the controller reuse an earlier prediction instead of
re-profiling — and why reconfiguration happens only once every ~10
intervals on average (section VIII).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.timing.resources import CACHE_BLOCK_BYTES
from repro.workloads.trace import Trace

__all__ = ["PhaseDetector", "Observation", "signature_of", "signature_distance"]


def signature_of(trace: Trace, bits: int = 256) -> np.ndarray:
    """Working-set signature: bit vector of hashed touched code blocks."""
    if bits < 8:
        raise ValueError("signature needs at least 8 bits")
    blocks = np.unique(trace.pc // CACHE_BLOCK_BYTES)
    buckets = ((blocks * np.int64(2654435761)) % np.int64(2**31)) % bits
    signature = np.zeros(bits, dtype=bool)
    signature[buckets] = True
    return signature


def signature_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Relative working-set distance: |XOR| / |OR| (0 identical, 1 disjoint)."""
    if a.shape != b.shape:
        raise ValueError("signatures must share a size")
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        return 0.0
    return int(np.logical_xor(a, b).sum()) / union


@dataclass(frozen=True)
class Observation:
    """The detector's verdict for one interval (immutable: the arena
    shares one verdict between every run of a program)."""

    phase_changed: bool
    phase_id: int  # stable id of the recognised (or new) phase
    is_new_phase: bool  # True when no stored signature matched
    distance_from_previous: float


class PhaseDetector:
    """Signature-based online detector with phase recognition.

    Args:
        change_threshold: relative distance to the previous interval above
            which a phase change is declared.
        match_threshold: maximum distance to a stored signature for the
            interval to be recognised as that phase.
        signature_bits: working-set signature width.
    """

    def __init__(
        self,
        change_threshold: float = 0.40,
        match_threshold: float = 0.60,
        signature_bits: int = 256,
    ) -> None:
        if not 0 < change_threshold <= 1 or not 0 < match_threshold <= 1:
            raise ValueError("thresholds must be in (0, 1]")
        self.change_threshold = change_threshold
        self.match_threshold = match_threshold
        self.signature_bits = signature_bits
        self._previous: np.ndarray | None = None
        self._table: list[np.ndarray] = []
        self._current_phase: int | None = None

    @property
    def known_phases(self) -> int:
        return len(self._table)

    def observe(self, trace: Trace) -> Observation:
        """Feed one interval; returns the phase verdict."""
        signature = signature_of(trace, self.signature_bits)
        if self._previous is None:
            distance = 1.0
            changed = True
        else:
            distance = signature_distance(signature, self._previous)
            changed = distance > self.change_threshold
        self._previous = signature

        if not changed and self._current_phase is not None:
            # Stable: blend the signature into the current phase entry so
            # slow drift does not accumulate into spurious changes.
            stored = self._table[self._current_phase]
            self._table[self._current_phase] = np.logical_or(stored, signature)
            return Observation(False, self._current_phase, False, distance)

        match, match_distance = self._best_match(signature)
        if match is not None and match_distance <= self.match_threshold:
            is_new = False
            phase_id = match
        else:
            is_new = True
            phase_id = len(self._table)
            self._table.append(signature.copy())
        phase_changed = phase_id != self._current_phase
        self._current_phase = phase_id
        return Observation(phase_changed, phase_id, is_new, distance)

    def _best_match(self, signature: np.ndarray) -> tuple[int | None, float]:
        best_id: int | None = None
        best_distance = np.inf
        for phase_id, stored in enumerate(self._table):
            distance = signature_distance(signature, stored)
            if distance < best_distance:
                best_id = phase_id
                best_distance = distance
        return best_id, float(best_distance)

    def reset(self) -> None:
        """Forget all history (new program)."""
        self._previous = None
        self._table.clear()
        self._current_phase = None
