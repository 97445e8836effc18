"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, layers, run  # noqa: E402
from perfbench import hostspeed  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402
from perfbench.serve import poisson_schedule  # noqa: E402
from perfbench.tracing import LayerTracer  # noqa: E402


# -- the percentile / sample-count rule ----------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert common.percentile(samples, 50) == 50
    assert common.percentile(samples, 99) == 99
    assert common.percentile(samples, 100) == 100
    assert common.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    tail = common.tail_percentile(samples, wanted=99.9)
    if expected is None:
        assert tail is None
        return
    q, value = tail
    assert q == expected
    assert sum(1 for s in samples if s > value) >= common.BEYOND


def test_tail_never_exceeds_the_wanted_percentile():
    samples = [float(i) for i in range(10_000)]
    assert common.tail_percentile(samples, wanted=99.0)[0] == 99.0


# -- the seeded open-loop schedule ---------------------------------------------


def test_schedule_is_seeded_and_ascending():
    a = poisson_schedule(3, 0, 1000, 2.0)
    assert a == poisson_schedule(3, 0, 1000, 2.0)
    assert a != poisson_schedule(4, 0, 1000, 2.0)
    assert a != poisson_schedule(3, 1, 1000, 2.0)
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 0.0 <= a[0] and a[-1] < 2.0


def test_schedule_keeps_its_rate():
    offsets = poisson_schedule(0, 0, 2000, 10.0)
    assert len(offsets) == pytest.approx(20_000, rel=0.03)
    gaps = [y - x for x, y in zip(offsets, offsets[1:])]
    # Exponential gaps: the standard deviation equals the mean.
    mean = sum(gaps) / len(gaps)
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    assert var ** 0.5 == pytest.approx(mean, rel=0.05)


# -- self time of nested wrappers -----------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_wrappers():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_w()
        leaf_w()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        middle_w()

    leaf_w = tracer.wrap("leaf", leaf, layer="a")
    middle_w = tracer.wrap("middle", middle, layer="b")
    outer_w = tracer.wrap("outer", outer, layer="a")
    outer_w()
    assert tracer.total == {"leaf": 4.0, "middle": 5.5, "outer": 8.5}
    assert tracer.self_time["leaf"] == 4.0
    assert tracer.self_time["middle"] == 1.5
    assert tracer.self_time["outer"] == 3.0
    assert tracer.layer_self("a") == 7.0
    assert tracer.layer_self("b") == 1.5
    assert tracer.outer_time == 8.5
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def failing():
        clock.now += 1.0
        raise RuntimeError("boom")

    def outer():
        clock.now += 1.0
        with pytest.raises(RuntimeError):
            failing_w()

    failing_w = tracer.wrap("failing", failing, layer="x")
    tracer.wrap("outer", outer, layer="y")()
    assert tracer.self_time["outer"] == 1.0
    assert tracer.self_time["failing"] == 1.0
    assert tracer.outer_time == 2.0


def test_coroutines_stay_off_the_stack():
    tracer = LayerTracer()

    async def work():
        await asyncio.sleep(0)
        return 5

    wrapped = tracer.wrap("work", work, layer="x")
    assert asyncio.run(wrapped()) == 5
    assert tracer.calls["work"] == 1
    assert tracer.outer_time == 0.0


def test_disabled_tracer_records_nothing():
    tracer = LayerTracer()
    wrapped = tracer.wrap("f", lambda: 1, layer="x")
    counted = tracer.wrap("g", lambda: 2, layer="x", timed=False)
    tracer.enabled = False
    assert wrapped() == 1 and counted() == 2
    assert not tracer.calls


def test_patches_every_binding_and_uninstalls():
    import repro.experiments.pipeline as pipeline
    import repro.counters.collector as collector

    original = collector.collect_counters
    tracer = LayerTracer()
    tracer.patch_function(collector, "collect_counters", "cc", layer="c")
    assert collector.collect_counters is not original
    assert pipeline.collect_counters is collector.collect_counters
    tracer.uninstall()
    assert collector.collect_counters is original
    assert pipeline.collect_counters is original


# -- host speed ----------------------------------------------------------------


def _sampler(clock: FakeClock, pass_s: list[float]) -> HostSpeed:
    """A sampler whose reference passes take ``pass_s`` in turn."""
    durations = iter(pass_s)

    def probe():
        clock.now += next(durations)

    return HostSpeed(reference_s=1.0, clock=clock, probe=probe)


def test_span_scales_net_time_by_the_passes_inside_it():
    n = hostspeed.MIN_SAMPLES
    clock = FakeClock()
    speed = _sampler(clock, [2.0] + [4.0] * n)
    speed.sample()
    clock.now += 10.0
    mark = speed.mark()
    for _ in range(n):
        clock.now += 3.0  # the work between passes
        speed.sample()
    clock.now += 1.0
    span = speed.span(mark)
    assert span.wall_s == 7.0 * n + 1.0
    assert span.net_s == 3.0 * n + 1.0  # the sampler's own time is not work
    assert span.samples == n
    assert span.factor == 0.25  # passes took 4x the reference
    assert span.scaled_s == (3.0 * n + 1.0) / 4.0


def test_short_span_borrows_the_nearest_passes():
    n = hostspeed.MIN_SAMPLES
    clock = FakeClock()
    speed = _sampler(clock, [1.0] * 3 + [2.0] * n)
    for _ in range(3 + n):
        speed.sample()
        clock.now += 1.0
    mark = speed.mark()
    clock.now += 0.5
    span = speed.span(mark)
    assert span.samples == n
    assert span.factor == 0.5  # the n latest passes took 2 s each
    assert span.scaled_s == 0.25


def test_idle_sampler_scales_nothing():
    clock = FakeClock()
    speed = HostSpeed(clock=clock)
    mark = speed.mark()
    clock.now += 3.0
    span = speed.span(mark)
    assert (span.wall_s, span.net_s, span.scaled_s, span.factor) == (
        3.0, 3.0, 3.0, 1.0)


def test_sampler_runs_from_the_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed(interval=0.01)
    speed.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        speed.stop()
    taken = len(speed.samples)
    time.sleep(0.05)
    assert taken >= 5 and len(speed.samples) == taken
    assert signal.getsignal(signal.SIGALRM) is before


# -- digests ---------------------------------------------------------------------


def test_digest_sees_every_digit():
    a, b, c = common.Digest(), common.Digest(), common.Digest()
    a.add({"x": 0.1 + 0.2, "y": [1, 2]})
    b.add({"y": [1, 2], "x": 0.1 + 0.2})
    c.add({"x": 0.3, "y": [1, 2]})
    assert a.hexdigest() == b.hexdigest() != c.hexdigest()


def _tiny_build(tmp_path: Path, tag: str) -> str:
    from repro import ExperimentPipeline, ReproScale
    from repro.experiments import DataStore

    from perfbench.reproduce import output_digest

    scale = ReproScale.quick().with_(
        benchmarks=("mcf", "swim", "gcc"), n_phases=2,
        phase_trace_length=1000, pool_size=8, neighbour_count=4,
        max_iterations=10)
    pipeline = ExperimentPipeline(scale, store=DataStore(tmp_path / tag),
                                  workers=1, train_workers=1)
    data = pipeline.all_phase_data
    predictions = {fs: pipeline.predictions(fs)
                   for fs in ("advanced", "basic")}
    ratios = {fs: pipeline.suite_ratios(p) for fs, p in predictions.items()}
    return output_digest(pipeline, data, predictions, ratios)


def test_output_digest_is_stable_across_two_runs(tmp_path):
    assert _tiny_build(tmp_path, "one") == _tiny_build(tmp_path, "two")


def test_served_answer_may_differ_only_within_identical_columns():
    from perfbench.serve import Requests

    requests = Requests(
        payloads=[b"[1.0]"],
        offline=[{"width": 4, "rob_size": 96}],
        ties={"width": {2: frozenset({2}), 4: frozenset({4}),
                        8: frozenset({8})},
              "rob_size": {96: frozenset({96, 128}),
                           128: frozenset({96, 128})}})
    assert requests.matches(0, {"width": 4, "rob_size": 96})
    assert requests.matches(0, {"width": 4, "rob_size": 128})
    assert not requests.matches(0, {"width": 8, "rob_size": 96})
    assert not requests.matches(0, {"width": 4})


# -- the benchmark's declared metrics --------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
