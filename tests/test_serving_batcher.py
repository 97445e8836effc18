"""Micro-batching policy: size watermark and deadline propagation."""

import pytest

from repro.serving.batcher import MicroBatchPolicy
from repro.serving.protocol import PredictRequest


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def request(request_id: str, deadline_ms: float | None = None,
            program: str | None = None) -> PredictRequest:
    return PredictRequest(id=request_id, features=(1.0, 2.0),
                          deadline_ms=deadline_ms, program=program)


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def policy(clock):
    return MicroBatchPolicy(max_batch_size=4, engine_budget_s=0.050,
                            clock=clock)


class TestAdmission:
    def test_stamps_arrival_and_absolute_deadline(self, policy, clock):
        item = policy.admit(request("a", deadline_ms=80.0), context="ctx")
        assert item.arrival == clock.now
        assert item.deadline == pytest.approx(clock.now + 0.080)
        assert item.context == "ctx"

    def test_no_deadline_means_unbounded_remaining(self, policy, clock):
        item = policy.admit(request("a"))
        assert item.deadline is None
        assert item.remaining(clock.now + 1e9) == float("inf")


class TestSplitExpired:
    def test_partition_by_remaining_engine_budget(self, policy, clock):
        healthy = policy.admit(request("a", deadline_ms=500.0))
        no_deadline = policy.admit(request("b"))
        doomed = policy.admit(request("c", deadline_ms=40.0))
        eligible, expired = policy.split_expired(
            [healthy, no_deadline, doomed])
        assert [i.request.id for i in eligible] == ["a", "b"]
        assert [i.request.id for i in expired] == ["c"]

    def test_time_passing_expires_requests(self, policy, clock):
        item = policy.admit(request("a", deadline_ms=100.0))
        eligible, expired = policy.split_expired([item])
        assert eligible and not expired
        clock.advance(0.060)  # 40ms left < 50ms engine budget
        eligible, expired = policy.split_expired([item])
        assert expired and not eligible


class TestWatermarksAndValidation:
    def test_size_watermark(self, policy):
        items = [policy.admit(request(str(n))) for n in range(4)]
        assert not policy.is_full(items[:3])
        assert policy.is_full(items)

    @pytest.mark.parametrize("kwargs", [
        {"max_batch_size": 0},
        {"engine_budget_s": 0.0},
        {"engine_budget_s": -1.0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatchPolicy(**kwargs)
