"""Online bandit policies for the arena.

Framing from "Beyond Static Policies" (PAPERS.md): each adaptation point
is a bandit round, the discrete configuration pool is the arm set, and
the realized log-efficiency (net of reconfiguration charges, so the cost
of switching is part of the signal) is the reward.

* :class:`LinUCBPolicy` — contextual: a ridge-regularised linear model
  per arm over the profiling-counter feature vector, picking the arm
  with the highest upper confidence bound.  Deterministic (no RNG): ties
  break to the lowest arm index, and the update order is the interval
  order, so trajectories are reproducible across processes.
* :class:`EpsilonGreedyPolicy` — context-free: running mean reward per
  arm, explore with probability epsilon.  Never profiles (it needs no
  counters), which under the paper's accounting is a real advantage it
  gets to exploit.  Exploration draws come from
  :func:`repro.util.seeded_rng` keyed by (policy, seed, program), making
  the trajectory a pure function of the run identity.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.control.arena.policy import (
    AdaptivityPolicy,
    PolicyDecision,
    PolicyFeedback,
    PolicyView,
)
from repro.util import seeded_rng

__all__ = ["EpsilonGreedyPolicy", "LinUCBPolicy"]


def _dedup_arms(arms: Sequence[MicroarchConfig]) -> list[MicroarchConfig]:
    pool = list(dict.fromkeys(arms))
    if not pool:
        raise ValueError("a bandit needs at least one arm")
    return pool


def _arms_token(arms: Sequence[MicroarchConfig]) -> tuple[tuple[int, ...], ...]:
    return tuple(arm.as_indices() for arm in arms)


class LinUCBPolicy(AdaptivityPolicy):
    """LinUCB over profiling-counter contexts, one arm per configuration.

    Each phase's first occurrence is profiled to capture its feature
    vector; the vector is stored and replayed as the context on every
    recurrence, so the bandit keeps re-selecting (and keeps learning)
    for known phases without paying further profiling intervals.
    Rewards are centred by a running global mean before the ridge update
    to keep the confidence bonus meaningful when all rewards share a
    large offset (log-efficiency sits around 63–66 on the quick suite).
    """

    def __init__(self, arms: Sequence[MicroarchConfig], *,
                 alpha: float = 0.8, ridge: float = 1.0,
                 feature_set: str = "basic", name: str = "linucb") -> None:
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        if ridge <= 0:
            raise ValueError("ridge must be > 0")
        self.arms = _dedup_arms(arms)
        self.alpha = alpha
        self.ridge = ridge
        self.feature_set = feature_set
        self.name = name
        self.reset("")

    def reset(self, program: str) -> None:
        self._gram: list[np.ndarray] | None = None  # per-arm A = ridge*I + XᵀX
        self._moment: list[np.ndarray] | None = None  # per-arm b = Xᵀr
        self._contexts: dict[int, np.ndarray] = {}
        self._current: MicroarchConfig | None = None
        self._current_arm: int | None = None
        self._context: np.ndarray | None = None
        self._reward_count = 0
        self._reward_mean = 0.0

    def _ensure_dimension(self, dimension: int) -> None:
        if self._gram is None:
            self._gram = [self.ridge * np.eye(dimension)
                          for _ in self.arms]
            self._moment = [np.zeros(dimension) for _ in self.arms]

    def _select(self, context: np.ndarray) -> int:
        assert self._gram is not None and self._moment is not None
        scores = np.empty(len(self.arms))
        for arm in range(len(self.arms)):
            theta = np.linalg.solve(self._gram[arm], self._moment[arm])
            spread = float(context @ np.linalg.solve(self._gram[arm], context))
            scores[arm] = float(context @ theta) + self.alpha * math.sqrt(
                max(spread, 0.0))
        return int(np.argmax(scores))  # ties -> lowest arm index

    def decide(self, view: PolicyView) -> PolicyDecision:
        observation = view.observation
        if observation.phase_changed:
            context = self._contexts.get(observation.phase_id)
            profile = context is None
            if context is None:
                context = np.array(view.features(self.feature_set),
                                   dtype=np.float64, copy=True)
                self._contexts[observation.phase_id] = context
            self._ensure_dimension(context.size)
            arm = self._select(context)
            self._current = self.arms[arm]
            self._current_arm = arm
            self._context = context
            return PolicyDecision(self._current, profile=profile)
        if self._current is None:  # pragma: no cover - detector contract
            raise RuntimeError("stable interval before any phase change")
        return PolicyDecision(self._current)

    def update(self, feedback: PolicyFeedback) -> None:
        if feedback.decision.profile:
            # The profiled interval ran the profiling configuration, not
            # the chosen arm — its reward would mislabel the arm.
            return
        if (self._gram is None or self._moment is None
                or self._current_arm is None or self._context is None):
            return
        centred = feedback.reward - self._reward_mean
        self._reward_count += 1
        self._reward_mean += (
            (feedback.reward - self._reward_mean) / self._reward_count)
        arm = self._current_arm
        self._gram[arm] += np.outer(self._context, self._context)
        self._moment[arm] += centred * self._context

    def cache_token(self) -> tuple[object, ...]:
        return (self.name, self.alpha, self.ridge, self.feature_set,
                _arms_token(self.arms))


class EpsilonGreedyPolicy(AdaptivityPolicy):
    """Context-free epsilon-greedy over the configuration arms.

    Re-decides at every phase change: untried arms first (in arm order),
    then the best running mean, with an epsilon-probability uniform
    exploration draw.  Stays put within a phase.
    """

    def __init__(self, arms: Sequence[MicroarchConfig], *,
                 epsilon: float = 0.1, seed: int = 0,
                 name: str = "epsilon-greedy") -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be within [0, 1]")
        self.arms = _dedup_arms(arms)
        self.epsilon = epsilon
        self.seed = seed
        self.name = name
        self.reset("")

    def reset(self, program: str) -> None:
        self._rng = seeded_rng("arena", self.name, self.seed, program)
        self._counts = [0] * len(self.arms)
        self._means = [0.0] * len(self.arms)
        self._current: MicroarchConfig | None = None
        self._current_arm: int | None = None

    def _select(self) -> int:
        if self._rng.random() < self.epsilon:
            return int(self._rng.integers(len(self.arms)))
        for arm, count in enumerate(self._counts):
            if count == 0:
                return arm  # initial deterministic sweep
        return max(range(len(self.arms)),
                   key=self._means.__getitem__)  # first max wins ties

    def decide(self, view: PolicyView) -> PolicyDecision:
        if view.observation.phase_changed or self._current is None:
            arm = self._select()
            self._current = self.arms[arm]
            self._current_arm = arm
        return PolicyDecision(self._current)

    def update(self, feedback: PolicyFeedback) -> None:
        arm = self._current_arm
        if arm is None:
            return
        self._counts[arm] += 1
        self._means[arm] += (
            (feedback.reward - self._means[arm]) / self._counts[arm])

    def cache_token(self) -> tuple[object, ...]:
        return (self.name, self.epsilon, self.seed, _arms_token(self.arms))
