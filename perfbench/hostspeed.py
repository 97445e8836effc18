"""Host speed, sampled inside the timed part, and times scaled by it.

On a shared host the CPU's speed drifts.  On a 2-vCPU x86-64 virtual
machine a fixed loop's 10-second median time moved from 6.8 to 9.9 ms
within two minutes, and the process's CPU time tracked its wall time
throughout: the CPU ran slower, no time was stolen from the process.  A
cold build or a league lasts ten seconds or more, so it runs at the mean
host speed over its span, and two runs a few minutes apart differed by
up to 37% for that reason alone.

:class:`HostSpeed` runs a fixed reference loop from a ``SIGALRM``
handler every ``interval`` seconds, in the thread that does the work, and
records how long each pass took.  A timed span's *scaled* time is its
wall time minus the sampler's own time, multiplied by
``reference_s / mean(passes during the span)``: the time the span would
take on a host where the reference loop takes ``reference_s``.  The
reference loop mixes interpreter arithmetic with small matrix products,
like the simulation and training code it runs between.  Nothing in the
program changes the reference loop, so a change to the program moves the
scaled time as much as the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["HostSpeed", "Span", "reference_loop"]

#: Seconds between two passes of the reference loop.
INTERVAL_S = 0.2
#: The reference loop's time on this benchmark's reference host (the
#: quiet-host median on a 2-vCPU x86-64 virtual machine).
REFERENCE_S = 1.2e-3
#: A span holding fewer passes than this is scaled by the passes nearest
#: its middle instead.  Single passes vary by about a fifth within a few
#: seconds, so a short span needs this many for a steady mean; they
#: cover five seconds, well within the tens of seconds over which the
#: host's speed drifts.
MIN_SAMPLES = 25
#: Passes run before timing starts: the first ones pay for cold caches.
WARMUP = 20

_MATRIX = np.random.default_rng(0).standard_normal((64, 64)) / 8.0


def reference_loop() -> int:
    """A fixed piece of work: interpreter arithmetic and small products."""
    total = 0
    for i in range(20000):
        total += i * i
    product = _MATRIX
    for _ in range(10):
        product = product @ _MATRIX
    return total


@dataclass(frozen=True)
class Span:
    """One timed span: wall time, the same without the sampler's own
    passes, and that net time scaled to the reference host."""

    wall_s: float
    net_s: float
    scaled_s: float
    factor: float  # reference_s / mean pass time (1.0 when not sampling)
    samples: int


@dataclass(frozen=True)
class Mark:
    at: float
    own_s: float


class HostSpeed:
    """Samples host speed while running and scales spans by it.

    A sampler that was never started scales nothing: every span's scaled
    time is its net wall time.

    Args:
        interval: seconds between reference passes.
        reference_s: the reference loop's time on the reference host.
        clock: monotonic time source (tests pass a fake one).
        probe: the reference work (tests pass a fake one).
    """

    def __init__(self, interval: float = INTERVAL_S,
                 reference_s: float = REFERENCE_S,
                 clock: Callable[[], float] = time.perf_counter,
                 probe: Callable[[], object] = reference_loop) -> None:
        self.interval = interval
        self.reference_s = reference_s
        self._clock = clock
        self._probe = probe
        #: (time at the middle of the pass, pass duration)
        self.samples: list[tuple[float, float]] = []
        self.own_s = 0.0
        self._previous = None
        self.running = False

    def sample(self) -> None:
        """Run the reference loop once and record its time."""
        t = self._clock()
        self._probe()
        done = self._clock()
        self.samples.append(((t + done) / 2.0, done - t))
        self.own_s += done - t

    def _handler(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Warm the reference loop up, then sample every ``interval``."""
        t = self._clock()
        for _ in range(WARMUP):
            self._probe()
        self.own_s += self._clock() - t
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.running = True

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.running = False

    def mark(self) -> Mark:
        return Mark(self._clock(), self.own_s)

    def span(self, start: Mark) -> Span:
        """The span from ``start`` to now."""
        return self.between(start, self.mark())

    def between(self, start: Mark, end: Mark) -> Span:
        wall = end.at - start.at
        net = wall - (end.own_s - start.own_s)
        passes = self._passes(start.at, end.at)
        if not passes:
            return Span(wall, net, net, 1.0, 0)
        factor = self.reference_s / statistics.fmean(passes)
        return Span(wall, net, net * factor, factor, len(passes))

    def _passes(self, start: float, end: float) -> list[float]:
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) >= MIN_SAMPLES or len(self.samples) <= len(inside):
            return inside
        middle = (start + end) / 2.0
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
        return [d for _, d in nearest[:MIN_SAMPLES]]
