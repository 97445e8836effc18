"""BBV-based online phase detection (the [41] alternative).

The working-set-signature detector of :mod:`repro.phases.detector` tracks
*which* code executes; Sherwood et al.'s phase-tracking hardware [41]
instead tracks *how much* each basic block executes — an accumulating
basic-block vector per interval, compared by Manhattan distance and
matched against a table of past phase centroids.

Both detectors expose the same ``observe``/``reset`` protocol, so the
policy arena (:class:`~repro.control.arena.Arena`, via its
``detector_factory``) runs with either; a test compares their verdicts on
the same schedules.
"""

from __future__ import annotations

import numpy as np

from repro.phases.bbv import basic_block_vector, bbv_distance
from repro.phases.detector import Observation
from repro.workloads.trace import Trace

__all__ = ["BBVPhaseDetector"]


class BBVPhaseDetector:
    """Online detector over hashed basic-block vectors.

    Args:
        change_threshold: Manhattan distance to the previous interval's
            BBV above which a phase change is declared (BBVs are
            L1-normalised, so distances live in [0, 2]).
        match_threshold: maximum distance to a stored phase centroid for
            recognition.
        dim: hashed BBV dimensionality.
    """

    def __init__(
        self,
        change_threshold: float = 0.5,
        match_threshold: float = 0.7,
        dim: int = 64,
    ) -> None:
        if not 0 < change_threshold <= 2 or not 0 < match_threshold <= 2:
            raise ValueError("thresholds must be in (0, 2]")
        if dim < 2:
            raise ValueError("dim must be at least 2")
        self.change_threshold = change_threshold
        self.match_threshold = match_threshold
        self.dim = dim
        self._previous: np.ndarray | None = None
        self._centroids: list[np.ndarray] = []
        self._members: list[int] = []
        self._current_phase: int | None = None

    @property
    def known_phases(self) -> int:
        return len(self._centroids)

    def observe(self, trace: Trace) -> Observation:
        """Feed one interval; returns the phase verdict."""
        bbv = basic_block_vector(trace, dim=self.dim)
        if self._previous is None:
            distance = 2.0
            changed = True
        else:
            distance = bbv_distance(bbv, self._previous)
            changed = distance > self.change_threshold
        self._previous = bbv

        if not changed and self._current_phase is not None:
            self._update_centroid(self._current_phase, bbv)
            return Observation(False, self._current_phase, False, distance)

        match, match_distance = self._best_match(bbv)
        if match is not None and match_distance <= self.match_threshold:
            phase_id = match
            is_new = False
            self._update_centroid(phase_id, bbv)
        else:
            phase_id = len(self._centroids)
            is_new = True
            self._centroids.append(bbv.copy())
            self._members.append(1)
        phase_changed = phase_id != self._current_phase
        self._current_phase = phase_id
        return Observation(phase_changed, phase_id, is_new, distance)

    def _update_centroid(self, phase_id: int, bbv: np.ndarray) -> None:
        """Running mean keeps centroids representative of the phase."""
        count = self._members[phase_id]
        self._centroids[phase_id] = (
            self._centroids[phase_id] * count + bbv
        ) / (count + 1)
        self._members[phase_id] = count + 1

    def _best_match(self, bbv: np.ndarray) -> tuple[int | None, float]:
        best_id: int | None = None
        best_distance = np.inf
        for phase_id, centroid in enumerate(self._centroids):
            distance = bbv_distance(bbv, centroid)
            if distance < best_distance:
                best_id = phase_id
                best_distance = distance
        return best_id, float(best_distance)

    def reset(self) -> None:
        """Forget all history (new program)."""
        self._previous = None
        self._centroids.clear()
        self._members.clear()
        self._current_phase = None
