"""Tests for the fault-tolerant execution layer.

The pool tests submit :func:`repro.testing.faults.fault_prone_task` to a
real ``ProcessPoolExecutor`` and drive every failure mode purely through
the ``REPRO_FAULTS`` environment (inherited by worker processes), so the
exact degradation paths used by ``prefetch_phases`` are exercised.
"""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import (
    CorruptInputError,
    FatalError,
    FaultClass,
    RunJournal,
    StaleCodeError,
    TransientError,
    classify,
)
from repro.experiments.runner import (
    PhaseRunner,
    RetryPolicy,
    phase_timeout_from_env,
    retry_call,
)
from repro.testing import faults
from repro.testing.faults import fault_prone_task


@pytest.fixture(autouse=True)
def _fault_env(monkeypatch, tmp_path):
    """Cross-process fault counters isolated per test; no leftover plans."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_HANG_SECONDS", raising=False)
    monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "fault-slots"))
    faults._LOCAL_COUNTS.clear()


@pytest.fixture
def journal(tmp_path):
    return RunJournal(tmp_path / "journal.jsonl")


def fast_policy(max_retries=3):
    return RetryPolicy(max_retries=max_retries, backoff_base=0.01,
                       backoff_cap=0.05)


class TestClassify:
    def test_taxonomy(self):
        from concurrent.futures.process import BrokenProcessPool
        assert classify(TransientError("x")) is FaultClass.TRANSIENT
        assert classify(BrokenProcessPool("x")) is FaultClass.TRANSIENT
        assert classify(TimeoutError("x")) is FaultClass.TRANSIENT
        assert classify(MemoryError()) is FaultClass.TRANSIENT
        assert classify(OSError("disk")) is FaultClass.TRANSIENT
        assert classify(CorruptInputError("x")) is FaultClass.CORRUPT_INPUT
        assert classify(EOFError()) is FaultClass.CORRUPT_INPUT
        assert classify(FatalError("x")) is FaultClass.FATAL
        assert classify(ValueError("x")) is FaultClass.FATAL
        assert classify(KeyError("x")) is FaultClass.FATAL

    def test_stale_code_is_fatal_not_corrupt(self):
        assert classify(StaleCodeError("drift")) is FaultClass.FATAL


class TestRetryPolicy:
    def test_delay_deterministic_and_jittered(self):
        policy = RetryPolicy()
        first = policy.delay("mcf/0", 1)
        assert first == policy.delay("mcf/0", 1)  # reproducible
        assert first != policy.delay("mcf/0", 2)  # varies by attempt
        assert first != policy.delay("swim/1", 1)  # varies by key

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_cap=0.4, jitter=0.0)
        assert policy.delay("k", 1) == pytest.approx(0.1)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 10) == pytest.approx(0.4)  # capped

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "7")
        assert RetryPolicy.from_env().max_retries == 7

    def test_from_env_zero_means_one_attempt(self):
        policy = RetryPolicy.from_env({"REPRO_MAX_RETRIES": "0"})
        assert policy.max_retries == 0
        attempts = []
        slept = []

        def always():
            attempts.append(1)
            raise TransientError("flaky")

        with pytest.raises(TransientError):
            retry_call(always, policy=policy, sleep=slept.append)
        assert len(attempts) == 1  # no retries: exactly one attempt
        assert slept == []         # and no backoff sleeps either

    @pytest.mark.parametrize("raw", ["-1", "-99", " -3 "])
    def test_from_env_negative_clamps_to_zero(self, raw):
        assert RetryPolicy.from_env({"REPRO_MAX_RETRIES": raw}).max_retries == 0

    @pytest.mark.parametrize("raw", ["", "   "])
    def test_from_env_blank_uses_default(self, raw):
        assert (RetryPolicy.from_env({"REPRO_MAX_RETRIES": raw}).max_retries
                == RetryPolicy().max_retries)

    @pytest.mark.parametrize("raw", ["two", "1.5", "0x2"])
    def test_from_env_non_integer_is_loud(self, raw):
        with pytest.raises(ValueError, match="REPRO_MAX_RETRIES"):
            RetryPolicy.from_env({"REPRO_MAX_RETRIES": raw})

    def test_timeout_from_env(self, monkeypatch):
        assert phase_timeout_from_env({}) is None
        assert phase_timeout_from_env({"REPRO_PHASE_TIMEOUT": ""}) is None
        assert phase_timeout_from_env({"REPRO_PHASE_TIMEOUT": "0"}) is None
        assert phase_timeout_from_env({"REPRO_PHASE_TIMEOUT": "2.5"}) == 2.5


class TestRetryCall:
    def test_transient_retried_then_succeeds(self, journal):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientError("not yet")
            return "done"

        result = retry_call(flaky, key="k", policy=fast_policy(),
                            journal=journal, sleep=lambda s: None)
        assert result == "done"
        assert len(attempts) == 3
        assert journal.summary()["failures"] == 2

    def test_fatal_not_retried(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("bug")

        with pytest.raises(ValueError):
            retry_call(broken, policy=fast_policy(), sleep=lambda s: None)
        assert len(attempts) == 1

    def test_budget_exhaustion_reraises(self):
        def always():
            raise TransientError("flaky forever")

        with pytest.raises(TransientError):
            retry_call(always, policy=fast_policy(max_retries=2),
                       sleep=lambda s: None)

    def test_corrupt_input_invalidates_before_retry(self):
        calls = []
        invalidated = []

        def task():
            calls.append(1)
            if not invalidated:
                raise CorruptInputError("bad entry")
            return "ok"

        result = retry_call(task, policy=fast_policy(),
                            invalidate=lambda: invalidated.append(1),
                            sleep=lambda s: None)
        assert result == "ok"
        assert invalidated == [1]
        assert len(calls) == 2

    def test_sleeps_policy_delays(self):
        slept = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 2:
                raise TransientError("x")
            return "ok"

        policy = fast_policy()
        retry_call(flaky, key="k", policy=policy, sleep=slept.append)
        assert slept == [policy.delay("k", 1)]


class TestPhaseRunnerSerial:
    def test_all_computed(self, journal):
        runner = PhaseRunner(fault_prone_task, workers=1, journal=journal,
                             policy=fast_policy(), sleep=lambda s: None)
        outcomes = runner.run(["a", "b", "a"])  # dupes collapse
        assert {k: o.status for k, o in outcomes.items()} == {
            "a": "computed", "b": "computed"}
        assert journal.summary()["successes"] == 2

    def test_transient_retried(self, monkeypatch, journal):
        monkeypatch.setenv("REPRO_FAULTS", "transient@task:a*2")
        runner = PhaseRunner(fault_prone_task, workers=1, journal=journal,
                             policy=fast_policy(), sleep=lambda s: None)
        outcomes = runner.run(["a"])
        assert outcomes["a"].status == "computed"
        assert journal.summary()["failures"] == 2
        assert journal.attempts("a") == 3

    def test_fatal_quarantines_but_continues(self, monkeypatch, journal):
        monkeypatch.setenv("REPRO_FAULTS", "fatal@task:bad*inf")
        runner = PhaseRunner(fault_prone_task, workers=1, journal=journal,
                             policy=fast_policy(), sleep=lambda s: None)
        outcomes = runner.run(["good-1", "bad", "good-2"])
        assert outcomes["bad"].status == "quarantined"
        assert outcomes["good-1"].status == "computed"
        assert outcomes["good-2"].status == "computed"
        assert journal.quarantined() == ["bad"]

    def test_quarantined_key_skipped_on_resume(self, monkeypatch, journal):
        monkeypatch.setenv("REPRO_FAULTS", "fatal@task:bad*inf")
        PhaseRunner(fault_prone_task, workers=1, journal=journal,
                    policy=fast_policy(), sleep=lambda s: None).run(["bad"])
        monkeypatch.delenv("REPRO_FAULTS")
        resumed = PhaseRunner(fault_prone_task, workers=1,
                              journal=RunJournal(journal.path),
                              policy=fast_policy(),
                              sleep=lambda s: None).run(["bad", "ok"])
        assert resumed["bad"].status == "skipped"
        assert resumed["ok"].status == "computed"

    def test_cleared_quarantine_runs_again(self, monkeypatch, journal):
        monkeypatch.setenv("REPRO_FAULTS", "fatal@task:bad*1")
        PhaseRunner(fault_prone_task, workers=1, journal=journal,
                    policy=fast_policy(max_retries=0),
                    sleep=lambda s: None).run(["bad"])
        journal.clear_quarantine("bad")
        outcomes = PhaseRunner(fault_prone_task, workers=1, journal=journal,
                               policy=fast_policy(),
                               sleep=lambda s: None).run(["bad"])
        assert outcomes["bad"].status == "computed"

    def test_verify_failure_invalidates_and_retries(self, journal):
        verified = []
        invalidated = []

        def verify(key):
            verified.append(key)
            return len(verified) > 1  # first verification fails

        runner = PhaseRunner(fault_prone_task, workers=1, journal=journal,
                             policy=fast_policy(), verify=verify,
                             invalidate=invalidated.append,
                             sleep=lambda s: None)
        outcomes = runner.run(["a"])
        assert outcomes["a"].status == "computed"
        assert invalidated == ["a"]


class TestPhaseRunnerPool:
    """Real process pools; faults injected in the workers via env."""

    def test_clean_run(self, journal):
        runner = PhaseRunner(fault_prone_task, workers=2, journal=journal,
                             policy=fast_policy())
        outcomes = runner.run(["a", "b", "c", "d"])
        assert all(o.status == "computed" for o in outcomes.values())
        assert journal.summary()["pool_rebuilds"] == 0

    def test_worker_crash_rebuilds_pool_and_retries(self, monkeypatch,
                                                    journal):
        monkeypatch.setenv("REPRO_FAULTS", "crash@task:b*1")
        runner = PhaseRunner(fault_prone_task, workers=2, journal=journal,
                             policy=fast_policy())
        outcomes = runner.run(["a", "b", "c", "d"])
        assert all(o.status == "computed" for o in outcomes.values())
        summary = journal.summary()
        assert summary["pool_rebuilds"] >= 1
        assert summary["failures"] >= 1
        assert journal.attempts("b") >= 2

    def test_hung_worker_reclaimed_by_timeout(self, monkeypatch, journal):
        monkeypatch.setenv("REPRO_FAULTS", "hang@task:h*1")
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "60")
        runner = PhaseRunner(fault_prone_task, workers=2, journal=journal,
                             policy=fast_policy(), timeout=0.75)
        outcomes = runner.run(["h", "x"])
        assert all(o.status == "computed" for o in outcomes.values())
        summary = journal.summary()
        assert summary["timeouts"] == 1
        assert summary["pool_rebuilds"] >= 1

    def test_repeated_breaks_degrade_to_serial(self, monkeypatch, journal):
        # One crash exhausts the rebuild budget and forces serial
        # degradation; the transient fault then exercises the serial
        # retry path (a crash rule left for the serial path would
        # os._exit the *parent*, which in-process fallback cannot stop).
        monkeypatch.setenv("REPRO_FAULTS",
                           "crash@task:c1*1;transient@task:c3*1")
        runner = PhaseRunner(fault_prone_task, workers=2, journal=journal,
                             policy=fast_policy(), max_pool_rebuilds=0,
                             sleep=lambda s: None)
        outcomes = runner.run(["c1", "c2", "c3", "c4"])
        assert all(o.status == "computed" for o in outcomes.values())
        summary = journal.summary()
        assert summary["degraded_serial"] == 1
        assert summary["pool_rebuilds"] == 1

    def test_submit_into_a_broken_pool_rebuilds(self, monkeypatch, journal):
        """A worker can die before the loop collects its future; the
        executor is then broken and the next ``submit`` raises."""
        class BrokenOnSubmit:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("a child process terminated")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        made = []
        new_executor = PhaseRunner._new_executor

        def first_one_broken(runner, remaining):
            made.append(remaining)
            if len(made) == 1:
                return BrokenOnSubmit()
            return new_executor(runner, remaining)

        monkeypatch.setattr(PhaseRunner, "_new_executor", first_one_broken)
        runner = PhaseRunner(fault_prone_task, workers=2, journal=journal,
                             policy=fast_policy())
        outcomes = runner.run(["a", "b", "c"])
        assert all(o.status == "computed" for o in outcomes.values())
        summary = journal.summary()
        assert summary["pool_rebuilds"] == 1
        assert summary["failures"] == 0  # the item never ran
        assert len(made) == 2

    def test_poison_task_quarantined_others_complete(self, monkeypatch,
                                                     journal):
        monkeypatch.setenv("REPRO_FAULTS", "crash@task:poison*inf")
        runner = PhaseRunner(fault_prone_task, workers=2, journal=journal,
                             policy=fast_policy(max_retries=1),
                             max_pool_rebuilds=10)
        outcomes = runner.run(["poison", "ok-1", "ok-2"])
        assert outcomes["poison"].status == "quarantined"
        assert outcomes["ok-1"].status == "computed"
        assert outcomes["ok-2"].status == "computed"
        assert journal.quarantined() == ["poison"]

    def test_env_timeout_used_when_not_passed(self, monkeypatch):
        monkeypatch.setenv("REPRO_PHASE_TIMEOUT", "12.5")
        runner = PhaseRunner(fault_prone_task, workers=2)
        assert runner.timeout == 12.5
