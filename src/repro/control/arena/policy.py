"""The pluggable adaptivity-policy interface.

The paper's controller is one fixed strategy: profile every unseen phase,
predict once with the soft-max model, reuse the prediction forever.
"Beyond Static Policies" frames the same setting as online policy
*selection* — so the arena abstracts the strategy behind
:class:`AdaptivityPolicy` and evaluates competitors head-to-head under
identical accounting.

The per-interval protocol (mirroring the figure 2 loop):

1. the arena feeds the policy a :class:`PolicyView` — the phase
   detector's verdict plus *lazy* access to profiling features and the
   working-set signature (touching ``features()`` is what commits the
   interval to the profiling configuration, exactly like stage 2 of the
   paper's loop);
2. the policy answers with a :class:`PolicyDecision` — the configuration
   to adopt, and whether this interval was spent profiling;
3. after the interval executes, the arena calls :meth:`~AdaptivityPolicy.update`
   with the realized reward and the overhead actually billed — the hook
   online policies (bandits, hysteresis controllers) learn through.

Policies are run one program at a time; :meth:`~AdaptivityPolicy.reset`
starts a fresh program and must wipe all learned state so runs are
independent, cacheable and order-insensitive.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.phases.detector import Observation

__all__ = ["AdaptivityPolicy", "IntervalRecord", "PolicyDecision",
           "PolicyFeedback", "PolicyView"]


@dataclass(frozen=True)
class PolicyDecision:
    """One interval's choice.

    Attributes:
        config: the configuration to adopt (the machine switches to it,
            paying the reconfiguration charge, if it differs from the
            currently-running one).
        profile: the interval is spent on the profiling configuration
            gathering Table II counters; the switch to ``config`` is
            charged at the end of the interval (section III-B1
            accounting).
    """

    config: MicroarchConfig
    profile: bool = False


@dataclass
class PolicyView:
    """What a policy may observe before deciding an interval.

    ``features``/``signature`` are lazy closures over the arena's
    memoised per-interval profiling state — calling them is free of
    side effects on the accounting (the *decision's* ``profile`` flag is
    what bills the profiling interval).
    """

    interval: int
    observation: Observation
    interval_length: int
    _features: Callable[[str], np.ndarray] = field(repr=False)
    _signature: Callable[[], np.ndarray] = field(repr=False)

    def features(self, feature_set: str = "advanced") -> np.ndarray:
        """Counter features of this interval on the profiling config."""
        return self._features(feature_set)

    def signature(self) -> np.ndarray:
        """Working-set signature of this interval (detector-level, free)."""
        return self._signature()


@dataclass
class IntervalRecord:
    """What happened during one interval: the configuration executed, its
    priced time and energy, and the reconfiguration charge billed to it."""

    interval: int
    phase_id: int
    config: MicroarchConfig
    profiled: bool
    reconfigured: bool
    time_ns: float
    energy_pj: float
    stall_ns: float = 0.0
    reconfig_energy_pj: float = 0.0


@dataclass(frozen=True)
class PolicyFeedback:
    """Realized outcome of one interval, fed back after execution.

    Attributes:
        interval: interval index.
        observation: the detector verdict the decision was made under.
        decision: the policy's own decision.
        record: full accounting record (config executed, stall, energy).
        reward: the arena's net reward for the interval — log
            energy-efficiency *including* any reconfiguration charge.
        overhead_penalty: reward lost to the charge alone
            (``reward_without_charge - reward``); 0.0 on intervals that
            paid nothing.  Overhead-aware policies learn from this.
    """

    interval: int
    observation: Observation
    decision: PolicyDecision
    record: IntervalRecord
    reward: float
    overhead_penalty: float


class AdaptivityPolicy(ABC):
    """A runtime adaptivity strategy competing in the arena."""

    #: Display name (league-table row); unique within one arena run.
    name: str = "policy"

    def reset(self, program: str) -> None:
        """Forget everything; the next :meth:`decide` starts ``program``.

        Seeded policies must derive their stream from ``program`` (via
        :func:`repro.util.seeded_rng`) so a run's trajectory is a pure
        function of (policy, program) — identical across processes and
        independent of the order programs are run in.
        """

    @abstractmethod
    def decide(self, view: PolicyView) -> PolicyDecision:
        """Choose this interval's configuration."""

    def update(self, feedback: PolicyFeedback) -> None:
        """Receive the realized reward (optional online learning hook)."""

    def cache_token(self) -> tuple[object, ...]:
        """Identity of this policy's behaviour for ``DataStore`` keys.

        Two policies with equal tokens must produce identical runs; any
        knob that changes decisions (hyperparameters, model weights,
        seeds) must be folded in.
        """
        return (self.name,)
