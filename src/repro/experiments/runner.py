"""Fault-tolerant execution of per-phase work.

:class:`PhaseRunner` runs a set of independent work items (phases) to
completion through a ``ProcessPoolExecutor`` while surviving the
failures a long cache build actually hits:

* **worker crashes / OOM kills** — a ``BrokenProcessPool`` poisons the
  whole executor, so the runner rebuilds the pool, re-charges a failure
  to every item that was in flight, and resubmits them (an item whose
  ``submit`` found the pool already broken never ran and is requeued
  uncharged);
* **hung workers** — items carry a per-item deadline
  (``REPRO_PHASE_TIMEOUT``); on expiry the pool is killed and rebuilt
  and the timed-out item is retried;
* **transient exceptions** — retried with deterministic jittered
  exponential backoff (:class:`RetryPolicy`, ``REPRO_MAX_RETRIES``);
* **corrupt inputs** — the caller-provided ``invalidate`` hook is run
  before the retry (e.g. deleting a damaged cache entry);
* **repeated pool failures** — after ``max_pool_rebuilds`` rebuilds the
  runner degrades gracefully to in-process serial execution rather than
  thrashing;
* **persistently-failing items** — quarantined (recorded in the
  :class:`~repro.experiments.journal.RunJournal`) so one bad phase
  cannot block the rest of the suite.  Quarantined items are skipped on
  resume until :meth:`RunJournal.clear_quarantine` is called.

Every attempt/outcome is journalled, so an interrupted run resumes
exactly where it stopped (completed items live in the
:class:`~repro.experiments.datastore.DataStore`; quarantine state lives
in the journal).
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Hashable, Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro import obs
from repro.experiments.errors import (
    CorruptInputError,
    FaultClass,
    classify,
)
from repro.experiments.journal import RunJournal
from repro.util import stable_hash

__all__ = [
    "RetryPolicy",
    "PhaseOutcome",
    "PhaseRunner",
    "retry_call",
    "phase_timeout_from_env",
]


def phase_timeout_from_env(environ: dict | None = None) -> float | None:
    """Per-phase timeout in seconds from ``REPRO_PHASE_TIMEOUT``.

    Unset, empty, or ``<= 0`` disables the timeout.
    """
    environ = os.environ if environ is None else environ
    raw = environ.get("REPRO_PHASE_TIMEOUT", "").strip()
    if not raw:
        return None
    value = float(raw)
    return value if value > 0 else None


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and deterministic jittered exponential backoff.

    The jitter is derived from ``stable_hash(key, failure_count)`` so two
    runs of the same workload sleep identically — backoff never makes a
    run irreproducible.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.25  # fraction of the delay added deterministically

    @classmethod
    def from_env(cls, environ: dict | None = None) -> "RetryPolicy":
        """Policy from ``REPRO_MAX_RETRIES``.

        ``0`` means exactly one attempt and no retries; negative values
        clamp to 0 (callers mean "don't retry", not "never run"); unset
        or blank falls back to the default budget; anything non-integer
        is a loud configuration error rather than a silent default.
        """
        environ = os.environ if environ is None else environ
        raw = str(environ.get("REPRO_MAX_RETRIES", "")).strip()
        if not raw:
            return cls()
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_MAX_RETRIES must be an integer, got {raw!r}"
            ) from None
        return cls(max_retries=max(0, value))

    def delay(self, key: str, failure_count: int) -> float:
        """Sleep before the retry following failure ``failure_count``."""
        exponent = max(0, failure_count - 1)
        base = min(self.backoff_cap,
                   self.backoff_base * self.backoff_factor ** exponent)
        unit = stable_hash(key, failure_count, "backoff") % 1000 / 999.0
        return base * (1.0 + self.jitter * unit)


def retry_call(
    fn: Callable[[], object],
    *,
    key: str = "task",
    policy: RetryPolicy | None = None,
    journal: RunJournal | None = None,
    invalidate: Callable[[], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
    prior_failures: int = 0,
) -> object:
    """Call ``fn`` with classified retries; re-raise when the budget is
    exhausted or the failure is fatal."""
    policy = policy or RetryPolicy.from_env()
    failures = prior_failures
    while True:
        started = time.monotonic()
        if journal is not None:
            journal.record(key, "attempt", attempt=failures + 1, mode="serial")
        try:
            result = fn()
        except Exception as error:
            failures += 1
            fault = classify(error)
            obs.inc("runner.failure")
            if journal is not None:
                journal.record(key, "failure", attempt=failures,
                               duration=round(time.monotonic() - started, 3),
                               error=f"{type(error).__name__}: {error}",
                               error_class=fault.value)
            if fault is FaultClass.FATAL or failures > policy.max_retries:
                raise
            if fault is FaultClass.CORRUPT_INPUT and invalidate is not None:
                invalidate()
            obs.inc("runner.retry")
            sleep(policy.delay(key, failures))
        else:
            if journal is not None:
                journal.record(key, "success", attempt=failures + 1,
                               duration=round(time.monotonic() - started, 3))
            return result


@dataclass
class PhaseOutcome:
    """What happened to one work item over the whole run."""

    key: Hashable
    status: str  # "computed" | "quarantined" | "skipped"
    attempts: int = 0
    failures: int = 0
    duration: float = 0.0
    error: str | None = None


@dataclass
class _Flight:
    key: Hashable
    started: float
    deadline: float | None


class PhaseRunner:
    """Run independent work items to completion despite failures.

    Args:
        worker_task: picklable ``task(key)`` executed in pool workers.
        serial_task: in-process fallback (defaults to ``worker_task``);
            also used when ``workers <= 1``.  Timeouts are not enforced
            on the serial path (there is no process to kill).
        workers: process count; ``<= 1`` runs everything serially.
        policy: retry budget/backoff (default: ``RetryPolicy.from_env``).
        timeout: per-item seconds (default: ``REPRO_PHASE_TIMEOUT``).
        journal: run journal; quarantine state persists through it.
        verify: optional ``verify(key) -> bool`` run after each success
            (e.g. a cache checksum); ``False`` counts as corrupt input.
        invalidate: optional ``invalidate(key)`` run before retrying a
            corrupt-input failure.
        max_pool_rebuilds: pool rebuilds tolerated before degrading to
            serial in-process execution.
        describe: ``key -> str`` used for journal/backoff keys.
        initializer: optional picklable callable run once in every pool
            worker as it starts (``ProcessPoolExecutor`` initializer) —
            e.g. preloading shared training material so the first work
            item does not pay the load.  Also applies to rebuilt pools.
        initargs: arguments for ``initializer``.
    """

    def __init__(
        self,
        worker_task: Callable,
        *,
        serial_task: Callable | None = None,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        timeout: float | None = None,
        journal: RunJournal | None = None,
        verify: Callable[[Hashable], bool] | None = None,
        invalidate: Callable[[Hashable], None] | None = None,
        max_pool_rebuilds: int = 3,
        describe: Callable[[Hashable], str] = str,
        log: Callable[[str], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> None:
        self.worker_task = worker_task
        self.serial_task = serial_task or worker_task
        self.workers = max(1, workers)
        self.initializer = initializer
        self.initargs = initargs
        self.policy = policy or RetryPolicy.from_env()
        self.timeout = phase_timeout_from_env() if timeout is None else (
            timeout if timeout > 0 else None)
        self.journal = journal
        self.verify = verify
        self.invalidate = invalidate
        self.max_pool_rebuilds = max_pool_rebuilds
        self.describe = describe
        self._log = log or (lambda message: None)
        self._sleep = sleep

    # -- journal helpers -------------------------------------------------------

    def _record(self, key: Hashable | None, event: str, **fields) -> None:
        if self.journal is not None:
            name = "-" if key is None else self.describe(key)
            self.journal.record(name, event, **fields)

    # -- public API ------------------------------------------------------------

    def run(self, keys: Iterable[Hashable]) -> dict[Hashable, PhaseOutcome]:
        """Run every item; never raises for per-item failures.

        Returns one :class:`PhaseOutcome` per distinct key.  Check for
        ``status == "quarantined"`` (or consult the journal) to learn
        what could not be completed.
        """
        keys = list(dict.fromkeys(keys))
        outcomes: dict[Hashable, PhaseOutcome] = {}
        work: list[Hashable] = []
        for key in keys:
            if (self.journal is not None
                    and self.journal.outcome(self.describe(key)) == "quarantine"):
                outcomes[key] = PhaseOutcome(
                    key, "skipped",
                    error="previously quarantined; "
                          "RunJournal.clear_quarantine() to retry")
            else:
                work.append(key)
        if not work:
            return outcomes
        self._attempts = {key: 0 for key in work}
        self._failures = {key: 0 for key in work}
        self._outcomes = outcomes
        pooled = self.workers > 1 and len(work) > 1
        with obs.span("runner.run", items=len(work),
                      mode="pool" if pooled else "serial",
                      workers=self.workers):
            if pooled:
                self._run_pool(work)
            else:
                self._run_serial(work)
        return outcomes

    # -- serial path -----------------------------------------------------------

    def _run_serial(self, work: list[Hashable]) -> None:
        for key in work:
            if key in self._outcomes:
                continue
            name = self.describe(key)
            started = time.monotonic()
            try:
                retry_call(
                    lambda key=key: self._checked_call(self.serial_task, key),
                    key=name,
                    policy=self.policy,
                    journal=self.journal,
                    invalidate=(lambda key=key: self.invalidate(key))
                    if self.invalidate else None,
                    sleep=self._sleep,
                    prior_failures=self._failures[key],
                )
            except Exception as error:
                self._quarantine(key, error)
            else:
                self._outcomes[key] = PhaseOutcome(
                    key, "computed",
                    attempts=self._failures[key] + 1,
                    failures=self._failures[key],
                    duration=round(time.monotonic() - started, 3))

    def _checked_call(self, task: Callable, key: Hashable) -> object:
        result = task(key)
        if self.verify is not None and not self.verify(key):
            raise CorruptInputError(
                f"post-completion verification failed for {self.describe(key)}")
        return result

    # -- pool path -------------------------------------------------------------

    def _run_pool(self, work: list[Hashable]) -> None:
        # (ready_time, key): items sleep out their backoff in this list.
        waiting: list[tuple[float, Hashable]] = [(0.0, key) for key in work]
        in_flight: dict[Future, _Flight] = {}
        rebuilds = 0
        executor = self._new_executor(len(work))
        try:
            while waiting or in_flight:
                now = time.monotonic()
                waiting.sort(key=lambda item: item[0])
                # Keep at most `workers` items in flight: anything
                # submitted is (nearly) immediately running, so a pool
                # break charges failures only to plausibly-guilty items.
                broken = False
                while (waiting and waiting[0][0] <= now
                       and len(in_flight) < self.workers):
                    _, key = waiting.pop(0)
                    try:
                        future = executor.submit(self.worker_task, key)
                    except BrokenProcessPool:
                        # A worker died before its future was collected:
                        # this item never ran, so it goes back uncharged
                        # and the pool is rebuilt below.
                        waiting.append((0.0, key))
                        broken = True
                        break
                    self._attempts[key] += 1
                    self._record(key, "attempt", attempt=self._attempts[key],
                                 mode="pool")
                    deadline = now + self.timeout if self.timeout else None
                    in_flight[future] = _Flight(key, now, deadline)
                if broken:
                    done = {future for future in in_flight if future.done()}
                elif not in_flight:
                    # Everything is backing off: sleep to the next item.
                    self._sleep(max(0.0, waiting[0][0] - time.monotonic()))
                    continue
                else:
                    done = self._await_progress(in_flight, waiting)
                for future in done:
                    flight = in_flight.pop(future)
                    try:
                        future.result()
                    except BrokenProcessPool as error:
                        broken = True
                        self._fail(flight, error, waiting)
                    except Exception as error:
                        self._fail(flight, error, waiting)
                    else:
                        self._succeed(flight, waiting)
                timed_out = [future for future, flight in in_flight.items()
                             if flight.deadline is not None
                             and time.monotonic() >= flight.deadline]
                if broken or timed_out:
                    # The pool is unusable (crashed worker) or holds a
                    # hung worker: charge the guilty items, requeue the
                    # innocent in-flight ones for free, and rebuild.
                    for future in timed_out:
                        flight = in_flight.pop(future)
                        self._fail(flight, TimeoutError(
                            f"phase exceeded {self.timeout:.3g}s timeout"),
                            waiting, event="timeout")
                    for future, flight in in_flight.items():
                        if broken:
                            self._fail(flight, BrokenProcessPool(
                                "process pool broke while phase in flight"),
                                waiting)
                        else:
                            waiting.append((0.0, flight.key))
                    in_flight.clear()
                    rebuilds += 1
                    self._record(None, "pool-rebuild", attempt=rebuilds)
                    obs.inc("runner.pool_rebuild")
                    self._kill_executor(executor)
                    if rebuilds > self.max_pool_rebuilds:
                        self._record(None, "degrade-serial")
                        obs.inc("runner.degrade_serial")
                        self._log(
                            f"pool broke {rebuilds}x: degrading to serial")
                        self._run_serial([key for _, key in sorted(
                            waiting, key=lambda item: item[0])])
                        waiting.clear()
                        return
                    remaining = len(waiting)
                    self._log(f"rebuilding worker pool (rebuild {rebuilds}, "
                              f"{remaining} items left)")
                    executor = self._new_executor(remaining)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _await_progress(self, in_flight: dict[Future, _Flight],
                        waiting: list[tuple[float, Hashable]]) -> set[Future]:
        """Block until a future completes, a deadline passes, or a
        backed-off item becomes ready."""
        now = time.monotonic()
        horizons = [flight.deadline for flight in in_flight.values()
                    if flight.deadline is not None]
        if waiting and len(in_flight) < self.workers:
            horizons.append(waiting[0][0])
        timeout = max(0.0, min(horizons) - now) if horizons else None
        done, _ = wait(set(in_flight), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        return done

    def _succeed(self, flight: _Flight,
                 waiting: list[tuple[float, Hashable]]) -> None:
        key = flight.key
        duration = round(time.monotonic() - flight.started, 3)
        if self.verify is not None and not self.verify(key):
            self._fail(flight, CorruptInputError(
                f"post-completion verification failed for {self.describe(key)}"
            ), waiting)
            return
        self._record(key, "success", attempt=self._attempts[key],
                     duration=duration)
        self._outcomes[key] = PhaseOutcome(
            key, "computed", attempts=self._attempts[key],
            failures=self._failures[key], duration=duration)

    def _fail(self, flight: _Flight, error: Exception,
              waiting: list[tuple[float, Hashable]],
              event: str = "failure") -> None:
        key = flight.key
        self._failures[key] += 1
        fault = classify(error)
        obs.inc(f"runner.{event}")
        self._record(key, event, attempt=self._attempts[key],
                     duration=round(time.monotonic() - flight.started, 3),
                     error=f"{type(error).__name__}: {error}",
                     error_class=fault.value)
        if (fault is FaultClass.FATAL
                or self._failures[key] > self.policy.max_retries):
            self._quarantine(key, error)
            return
        if fault is FaultClass.CORRUPT_INPUT and self.invalidate is not None:
            self.invalidate(key)
        obs.inc("runner.retry")
        delay = self.policy.delay(self.describe(key), self._failures[key])
        waiting.append((time.monotonic() + delay, key))

    def _quarantine(self, key: Hashable, error: Exception) -> None:
        message = f"{type(error).__name__}: {error}"
        obs.inc("runner.quarantine")
        self._record(key, "quarantine", attempt=self._attempts.get(key),
                     error=message)
        self._log(f"quarantining {self.describe(key)}: {message}")
        self._outcomes[key] = PhaseOutcome(
            key, "quarantined", attempts=self._attempts.get(key, 0),
            failures=self._failures.get(key, 0), error=message)

    # -- executor lifecycle ----------------------------------------------------

    def _new_executor(self, remaining: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(1, min(self.workers, remaining)),
            initializer=self.initializer,
            initargs=self.initargs)

    @staticmethod
    def _kill_executor(executor: ProcessPoolExecutor) -> None:
        """Tear a (possibly hung or broken) pool down without waiting.

        ``shutdown`` alone never returns while a worker is hung, so the
        worker processes are terminated first.
        """
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:
                pass
        executor.shutdown(wait=False, cancel_futures=True)
