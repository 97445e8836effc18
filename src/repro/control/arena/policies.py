"""Concrete arena policies: the paper's controller and its rivals.

* :class:`SoftmaxPolicy` — the paper's one-shot strategy behind the
  :class:`~repro.control.arena.policy.AdaptivityPolicy` interface.  With
  ``feature_set="basic"`` and a basic-feature predictor it doubles as the
  counters-only ablation.  Run through the arena it reproduces the
  paper's figure 2 loop bit for bit (golden-guarded against the
  reference loop in ``tests/reference_controller.py``).
* :class:`PhaseDistancePolicy` — hysteresis in the spirit of Phase
  Distance Mapping: reuse the nearest profiled phase's configuration when
  the working-set signature is close enough, and refuse to switch (or to
  profile a new phase at all) once the billed reconfiguration penalty has
  grown past the reward spread actually observed — under punitive
  overheads it learns to stay put.
* :class:`StaticPolicy` — always the given configuration; by the arena's
  first-interval-is-free accounting it scores *exactly* the static
  reference run (the property suite pins this equality).

Bandit competitors live in :mod:`repro.control.arena.bandit`.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.control.arena.policy import (
    AdaptivityPolicy,
    PolicyDecision,
    PolicyFeedback,
    PolicyView,
)
from repro.model.predictor import ConfigurationPredictor
from repro.phases.detector import signature_distance

__all__ = ["PhaseDistancePolicy", "SoftmaxPolicy", "StaticPolicy",
           "predictor_digest"]


def predictor_digest(predictor: ConfigurationPredictor) -> str:
    """A short stable digest of a trained predictor's weights.

    Folded into policy cache tokens so a retrained model never reuses a
    stale :class:`DataStore` run.
    """
    digest = hashlib.sha256()
    for name, weights in predictor.weights_state().items():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(weights,
                                           dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


class SoftmaxPolicy(AdaptivityPolicy):
    """The paper's controller as an arena policy.

    Profile every unseen phase, predict once with the trained soft-max
    model, reuse the stored prediction whenever the phase recurs.  Its
    records through the arena equal the reference loop's
    (``tests/reference_controller.py``) bit for bit.
    """

    def __init__(self, predictor: ConfigurationPredictor, *,
                 feature_set: str = "advanced", name: str = "softmax") -> None:
        if not predictor.is_trained:
            raise ValueError(f"{name} needs a trained predictor")
        self.predictor = predictor
        self.feature_set = feature_set
        self.name = name
        self._phase_configs: dict[int, MicroarchConfig] = {}
        self._current: MicroarchConfig | None = None

    def reset(self, program: str) -> None:
        self._phase_configs = {}
        self._current = None

    def decide(self, view: PolicyView) -> PolicyDecision:
        observation = view.observation
        if observation.phase_changed:
            stored = self._phase_configs.get(observation.phase_id)
            if stored is None:
                target = self.predictor.predict(
                    view.features(self.feature_set))
                self._phase_configs[observation.phase_id] = target
                self._current = target
                return PolicyDecision(target, profile=True)
            self._current = stored
            return PolicyDecision(stored)
        if self._current is None:  # pragma: no cover - detector contract:
            # the first observation of a run always reports a phase change.
            raise RuntimeError("stable interval before any phase change")
        return PolicyDecision(self._current)

    def cache_token(self) -> tuple[object, ...]:
        return (self.name, self.feature_set, predictor_digest(self.predictor))


class StaticPolicy(AdaptivityPolicy):
    """Always the same configuration — the static-best baseline row."""

    def __init__(self, config: MicroarchConfig, *,
                 name: str = "static-best") -> None:
        self.config = config
        self.name = name

    def decide(self, view: PolicyView) -> PolicyDecision:
        return PolicyDecision(self.config)

    def cache_token(self) -> tuple[object, ...]:
        return (self.name, self.config.as_indices())


class PhaseDistancePolicy(AdaptivityPolicy):
    """Phase-distance reuse with an overhead-aware hysteresis gate.

    Keeps a library of (signature, predicted configuration) pairs.  On a
    phase change, the nearest library entry within ``reuse_threshold``
    supplies the candidate configuration *without* re-profiling; a truly
    novel phase is profiled and admitted.  Two learned gates add the
    hysteresis:

    * a switch to a known candidate only happens when its observed mean
      reward beats the current configuration's by more than the billed
      penalty EMA (unknown candidates are tried optimistically);
    * once the penalty EMA exceeds the whole reward spread seen so far,
      even *profiling new phases* is abandoned — no achievable gain can
      repay the charge, so the policy stays put.
    """

    def __init__(self, predictor: ConfigurationPredictor, *,
                 feature_set: str = "advanced",
                 reuse_threshold: float = 0.35,
                 penalty_decay: float = 0.8,
                 name: str = "phase-distance") -> None:
        if not predictor.is_trained:
            raise ValueError(f"{name} needs a trained predictor")
        if not 0.0 <= reuse_threshold <= 1.0:
            raise ValueError("reuse_threshold must be within [0, 1]")
        if not 0.0 <= penalty_decay < 1.0:
            raise ValueError("penalty_decay must be within [0, 1)")
        self.predictor = predictor
        self.feature_set = feature_set
        self.reuse_threshold = reuse_threshold
        self.penalty_decay = penalty_decay
        self.name = name
        self.reset("")

    def reset(self, program: str) -> None:
        self._library: list[tuple[np.ndarray, MicroarchConfig]] = []
        self._current: MicroarchConfig | None = None
        self._penalty_ema = 0.0
        self._penalty_seen = False
        self._reward_lo = math.inf
        self._reward_hi = -math.inf
        # per-configuration running reward means: indices -> (count, mean)
        self._config_rewards: dict[tuple[int, ...], tuple[int, float]] = {}

    # -- decisions ------------------------------------------------------------

    def decide(self, view: PolicyView) -> PolicyDecision:
        observation = view.observation
        if self._current is None:
            return self._admit(view)
        if not observation.phase_changed:
            return PolicyDecision(self._current)
        nearest = self._nearest(view.signature())
        if nearest is not None:
            candidate = nearest
            if candidate == self._current:
                return PolicyDecision(candidate)
            if self._expected_gain(candidate) > self._penalty_ema:
                return PolicyDecision(candidate)
            return PolicyDecision(self._current)
        if self._penalty_seen and self._penalty_ema > self._reward_spread():
            # Overheads exceed anything adaptation has ever gained —
            # profiling a new phase cannot pay for itself; stay put.
            return PolicyDecision(self._current)
        return self._admit(view)

    def _admit(self, view: PolicyView) -> PolicyDecision:
        target = self.predictor.predict(view.features(self.feature_set))
        self._library.append(
            (np.array(view.signature(), dtype=np.float64, copy=True), target))
        self._current = target
        return PolicyDecision(target, profile=True)

    def _nearest(self, signature: np.ndarray) -> MicroarchConfig | None:
        best: MicroarchConfig | None = None
        best_distance = self.reuse_threshold
        for stored, config in self._library:
            distance = signature_distance(stored, signature)
            if distance <= best_distance:  # first-come tie-break
                if distance < best_distance or best is None:
                    best = config
                    best_distance = distance
        return best

    def _expected_gain(self, candidate: MicroarchConfig) -> float:
        assert self._current is not None
        known_candidate = self._config_rewards.get(candidate.as_indices())
        known_current = self._config_rewards.get(self._current.as_indices())
        if known_candidate is None or known_current is None:
            return math.inf  # optimism: try unobserved configurations
        return known_candidate[1] - known_current[1]

    def _reward_spread(self) -> float:
        if self._reward_hi < self._reward_lo:
            return math.inf  # nothing observed yet
        return self._reward_hi - self._reward_lo

    # -- learning -------------------------------------------------------------

    def update(self, feedback: PolicyFeedback) -> None:
        if not feedback.decision.profile:
            key = feedback.record.config.as_indices()
            count, mean = self._config_rewards.get(key, (0, 0.0))
            count += 1
            mean += (feedback.reward - mean) / count
            self._config_rewards[key] = (count, mean)
            self._reward_lo = min(self._reward_lo, feedback.reward)
            self._reward_hi = max(self._reward_hi, feedback.reward)
        if feedback.overhead_penalty > 0.0:
            if self._penalty_seen:
                self._penalty_ema = (
                    self.penalty_decay * self._penalty_ema
                    + (1.0 - self.penalty_decay) * feedback.overhead_penalty)
            else:
                self._penalty_ema = feedback.overhead_penalty
                self._penalty_seen = True

    def cache_token(self) -> tuple[object, ...]:
        return (self.name, self.feature_set, self.reuse_threshold,
                self.penalty_decay, predictor_digest(self.predictor))
