"""Tests for the fast interval evaluator."""

import pytest

from repro.timing import (
    CycleSimulator,
    IntervalEvaluator,
    characterize,
    derive_machine_params,
)
from repro.workloads import PhaseSpec, TraceGenerator


@pytest.fixture(scope="module")
def evaluator():
    return IntervalEvaluator()


@pytest.fixture(scope="module")
def char():
    spec = PhaseSpec(name="iv-int", load_frac=0.24, store_frac=0.10,
                     branch_frac=0.14, ilp_mean=8.0, serial_frac=0.3,
                     footprint_blocks=600, reuse_alpha=1.5, code_blocks=60)
    generator = TraceGenerator(spec)
    return characterize(generator.generate(4000, stream_seed=1),
                        warm_trace=generator.generate(4000, stream_seed=2))


@pytest.fixture(scope="module")
def mem_char():
    spec = PhaseSpec(name="iv-mem", load_frac=0.32, store_frac=0.08,
                     branch_frac=0.08, ilp_mean=4.0, serial_frac=0.5,
                     footprint_blocks=40_000, scatter_frac=0.4,
                     reuse_alpha=0.8)
    generator = TraceGenerator(spec)
    return characterize(generator.generate(4000, stream_seed=1),
                        warm_trace=generator.generate(4000, stream_seed=2))


class TestEvaluate:
    def test_returns_consistent_result(self, evaluator, char,
                                        baseline_config):
        result = evaluator.evaluate(char, baseline_config)
        assert result.instructions == char.instructions
        assert result.cycles > 0
        assert result.efficiency > 0
        assert result.power_watts > 0

    def test_deterministic(self, evaluator, char, baseline_config):
        a = evaluator.evaluate(char, baseline_config)
        b = evaluator.evaluate(char, baseline_config)
        assert a == b

    def test_ipc_plausible(self, evaluator, char, baseline_config):
        result = evaluator.evaluate(char, baseline_config)
        assert 0.05 < result.ipc <= baseline_config.width

    def test_ipc_agrees_roughly_with_cycle_model(self, evaluator,
                                                 baseline_config,
                                                 small_trace):
        cycle = CycleSimulator(baseline_config).run(small_trace)
        fast = evaluator.evaluate(characterize(small_trace), baseline_config)
        assert cycle.ipc > 0 and fast.ipc > 0
        assert 0.3 < fast.ipc / cycle.ipc < 3.0


class TestMonotonicities:
    """First-order responses to single-parameter changes."""

    def test_bigger_rob_not_slower(self, evaluator, char, baseline_config):
        small = evaluator.evaluate(char, baseline_config.with_value(
            "rob_size", 32))
        big = evaluator.evaluate(char, baseline_config.with_value(
            "rob_size", 160))
        assert big.ipc >= small.ipc

    def test_bigger_dcache_fewer_stalls_for_mem_bound(
            self, evaluator, mem_char, baseline_config):
        small = evaluator.evaluate(mem_char, baseline_config.with_value(
            "dcache_size", 8 * 1024))
        big = evaluator.evaluate(mem_char, baseline_config.with_value(
            "dcache_size", 128 * 1024))
        assert big.ipc > small.ipc

    def test_bigger_l2_helps_big_footprints(self, evaluator,
                                            baseline_config):
        # Needs a working set beyond the smallest L2 (4096 blocks).
        spec = PhaseSpec(name="iv-l2", load_frac=0.3, store_frac=0.08,
                         branch_frac=0.08, ilp_mean=10.0, serial_frac=0.2,
                         footprint_blocks=60_000, scatter_frac=0.3,
                         streaming_frac=0.4, reuse_alpha=0.8)
        generator = TraceGenerator(spec)
        char = characterize(generator.generate(20_000, stream_seed=1))
        small = evaluator.evaluate(char, baseline_config.with_value(
            "l2_size", 256 * 1024))
        big = evaluator.evaluate(char, baseline_config.with_value(
            "l2_size", 4 * 1024 * 1024))
        assert big.ipc > small.ipc

    def test_oversized_structures_waste_energy(self, evaluator, char,
                                               baseline_config):
        """A small-footprint phase pays leakage for a huge L2 without
        gaining performance."""
        small = evaluator.evaluate(char, baseline_config.with_value(
            "l2_size", 256 * 1024))
        big = evaluator.evaluate(char, baseline_config.with_value(
            "l2_size", 4 * 1024 * 1024))
        assert small.efficiency > big.efficiency

    def test_width_helps_compute(self, evaluator, baseline_config):
        spec = PhaseSpec(name="wide", ilp_mean=30.0, serial_frac=0.05,
                         branch_frac=0.06, loop_branch_frac=0.8,
                         branch_bias=0.97, load_frac=0.2, store_frac=0.08,
                         footprint_blocks=128)
        generator = TraceGenerator(spec)
        wide_char = characterize(generator.generate(4000, stream_seed=1))
        # Widening implies provisioning ports and FUs to match.
        narrow_config = (baseline_config.with_value("width", 2)
                         .with_value("rf_rd_ports", 4)
                         .with_value("rf_wr_ports", 2))
        wide_config = (baseline_config.with_value("width", 8)
                       .with_value("rf_rd_ports", 16)
                       .with_value("rf_wr_ports", 8))
        narrow = evaluator.evaluate(wide_char, narrow_config)
        wide = evaluator.evaluate(wide_char, wide_config)
        assert wide.ipc > 1.3 * narrow.ipc

    def test_ports_limit_throughput(self, evaluator, char, baseline_config):
        few = evaluator.evaluate(char, baseline_config.with_value(
            "rf_wr_ports", 1))
        many = evaluator.evaluate(char, baseline_config.with_value(
            "rf_wr_ports", 8))
        assert few.ipc <= many.ipc
        assert few.ipc <= 1.0 / max(0.05, char.int_dest_frac) + 1e-6

    def test_depth_trades_frequency_for_penalties(self, evaluator, char,
                                                  baseline_config):
        deep = evaluator.evaluate(char, baseline_config.with_value(
            "depth_fo4", 9))
        shallow = evaluator.evaluate(char, baseline_config.with_value(
            "depth_fo4", 36))
        # Deep clocks 4x faster but pays more per-miss/mispredict cycles:
        # ips gains less than 4x.
        assert deep.ips < 4 * shallow.ips
        assert deep.ips > shallow.ips * 0.8

    def test_gshare_size_cannot_hurt(self, evaluator, char, baseline_config):
        small = evaluator.evaluate(char, baseline_config.with_value(
            "gshare_size", 1024))
        large = evaluator.evaluate(char, baseline_config.with_value(
            "gshare_size", 32 * 1024))
        assert large.ipc >= small.ipc * 0.98


class TestInternals:
    def test_effective_window_bounded_by_rob(self, evaluator, char,
                                             baseline_config):
        window = evaluator.effective_window(char, baseline_config)
        assert window <= baseline_config.rob_size

    def test_mispredict_rate_bounded(self, evaluator, char, baseline_config):
        rate = evaluator.mispredict_rate(char, baseline_config)
        assert 0.0 <= rate <= 0.95

    def test_activity_keys_match_power_vocabulary(self, evaluator, char,
                                                  baseline_config):
        from repro.power.wattch import account
        params = derive_machine_params(baseline_config)
        activity = evaluator._activity(char, baseline_config, params)
        report = account(activity, params, 1000)  # must not raise
        assert report.total_pj > 0

    def test_mlp_bounds(self, evaluator):
        assert evaluator._mlp(0.0, 0.0, 8.0) == 1.0
        assert evaluator._mlp(1e9, 1.0, 1e9) == evaluator.MAX_MLP
        # A serial chain cannot overlap misses regardless of window size.
        assert evaluator._mlp(1e9, 1.0, 1.3) == 1.3
