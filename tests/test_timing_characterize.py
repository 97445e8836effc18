"""Tests for trace characterisation."""

import numpy as np
import pytest

from repro.timing import CharTables, characterize
from repro.timing.characterize import WINDOW_GRID
from repro.workloads import PhaseSpec, TraceGenerator


@pytest.fixture(scope="module")
def int_char(int_spec=None):
    spec = PhaseSpec(name="char-int", load_frac=0.24, store_frac=0.10,
                     branch_frac=0.14, ilp_mean=6.0, serial_frac=0.35,
                     footprint_blocks=256, reuse_alpha=1.8, code_blocks=40)
    generator = TraceGenerator(spec)
    return characterize(generator.generate(3000, stream_seed=1),
                        warm_trace=generator.generate(3000, stream_seed=2))


class TestMixStatistics:
    def test_fracs_in_range(self, int_char):
        for value in (int_char.mem_frac, int_char.load_frac,
                      int_char.store_frac, int_char.branch_frac,
                      int_char.fp_frac, int_char.taken_branch_frac):
            assert 0.0 <= value <= 1.0

    def test_mem_frac_is_sum(self, int_char):
        assert int_char.mem_frac == pytest.approx(
            int_char.load_frac + int_char.store_frac)

    def test_op_fracs_sum_to_one(self, int_char):
        assert sum(int_char.op_fracs) == pytest.approx(1.0)

    def test_taken_subset_of_branches(self, int_char):
        assert int_char.taken_branch_frac <= int_char.branch_frac

    def test_src_density_reasonable(self, int_char):
        assert 0.0 < int_char.int_src_density < 2.5


class TestIlpCurves:
    def test_path_grows_with_window(self, int_char):
        assert list(int_char.path_ops) == sorted(int_char.path_ops)

    def test_weighted_at_least_unit(self, int_char):
        for ops, weighted in zip(int_char.path_ops, int_char.path_weighted):
            assert weighted >= ops

    def test_ilp_monotone_in_window(self, int_char):
        small = int_char.ilp(8, 1.0, 4.0)
        large = int_char.ilp(160, 1.0, 4.0)
        assert large >= small * 0.99

    def test_ilp_decreases_with_latency(self, int_char):
        fast = int_char.ilp(64, 1.0, 2.0)
        slow = int_char.ilp(64, 2.0, 10.0)
        assert slow < fast

    def test_serial_code_has_low_ilp(self):
        spec = PhaseSpec(name="serial", ilp_mean=1.5, serial_frac=0.9)
        char = characterize(TraceGenerator(spec).generate(2000))
        assert char.ilp(128, 1.0, 1.0) < 2.5

    def test_parallel_code_has_high_ilp(self):
        spec = PhaseSpec(name="parallel", ilp_mean=40.0, serial_frac=0.02,
                         two_source_frac=0.2)
        char = characterize(TraceGenerator(spec).generate(2000))
        assert char.ilp(128, 1.0, 1.0) > 4.0


class TestMissCurves:
    def test_monotone_in_capacity(self, int_char):
        for curve in (int_char.dcache_miss, int_char.icache_miss,
                      int_char.l2_data_miss, int_char.l2_inst_miss):
            values = [curve[c] for c in sorted(curve)]
            assert values == sorted(values, reverse=True)

    def test_lookup_interpolates(self, int_char):
        small = int_char.dcache_miss_rate(8 * 1024)
        mid = int_char.dcache_miss_rate(24 * 1024)  # between 16K and 32K
        large = int_char.dcache_miss_rate(128 * 1024)
        assert large <= mid <= small

    def test_small_footprint_fits_cache(self):
        spec = PhaseSpec(name="tiny", footprint_blocks=16,
                         streaming_frac=0.0, scatter_frac=0.0)
        char = characterize(TraceGenerator(spec).generate(3000))
        assert char.dcache_miss_rate(128 * 1024) < 0.05

    def test_scattered_footprint_misses(self):
        spec = PhaseSpec(name="big", footprint_blocks=50_000,
                         scatter_frac=0.5, load_frac=0.3)
        char = characterize(TraceGenerator(spec).generate(4000))
        assert char.dcache_miss_rate(8 * 1024) > 0.2

    def test_l2_miss_not_above_l1(self, int_char):
        l2_data, _ = int_char.l2_miss_rates(256 * 1024)
        # L2 capacities exceed L1's, so the same stream misses less.
        assert l2_data <= int_char.dcache_miss_rate(8 * 1024) + 1e-9


class TestBranchTables:
    def test_all_sizes_present(self, int_char):
        assert set(int_char.gshare_mispredict) == {
            1024, 2048, 4096, 8192, 16384, 32768}
        assert set(int_char.btb_taken_miss) == {1024, 2048, 4096}

    def test_rates_bounded(self, int_char):
        for rate in int_char.gshare_mispredict.values():
            assert 0.0 <= rate <= 1.0
        for rate in int_char.btb_taken_miss.values():
            assert 0.0 <= rate <= 1.0

    def test_predictable_phase_low_mispredicts(self):
        spec = PhaseSpec(name="pred", branch_bias=0.99,
                         loop_branch_frac=0.9, code_blocks=16)
        generator = TraceGenerator(spec)
        char = characterize(generator.generate(3000, stream_seed=1),
                            warm_trace=generator.generate(3000, stream_seed=2))
        assert char.gshare_mispredict[32 * 1024] < 0.08

    def test_noisy_phase_high_mispredicts(self):
        spec = PhaseSpec(name="noisy", branch_bias=0.55,
                         loop_branch_frac=0.05, code_blocks=200)
        generator = TraceGenerator(spec)
        char = characterize(generator.generate(3000, stream_seed=1),
                            warm_trace=generator.generate(3000, stream_seed=2))
        assert char.gshare_mispredict[32 * 1024] > 0.2

    def test_self_warming_memorises(self):
        """Without a sibling warm trace, gshare partly memorises the
        stream — the rate must not be higher than the honest one."""
        spec = PhaseSpec(name="mem", branch_bias=0.7, loop_branch_frac=0.1)
        generator = TraceGenerator(spec)
        trace = generator.generate(3000, stream_seed=1)
        sibling = generator.generate(3000, stream_seed=2)
        self_warmed = characterize(trace)
        honest = characterize(trace, warm_trace=sibling)
        assert (self_warmed.gshare_mispredict[32 * 1024]
                <= honest.gshare_mispredict[32 * 1024] + 0.02)


class TestShortTraces:
    """Windows longer than the trace hold no full block and are left out;
    they used to report a critical path of 0.0 and so ~1e11 IPC."""

    def test_windows_longer_than_the_trace_are_dropped(self):
        trace = TraceGenerator(PhaseSpec(name="short")).generate(100)
        char = characterize(trace)
        assert char.window_sizes == (4, 8, 12, 16, 24, 32, 48, 64, 96)
        assert min(char.path_ops) >= 1.0
        assert list(char.path_ops) == sorted(char.path_ops)
        assert list(char.path_weighted) == sorted(char.path_weighted)
        ipc = char.ilp(224, 1.0, 4.0)
        assert ipc == char.ilp(96, 1.0, 4.0)
        assert 0.0 < ipc <= 96.0
        batch = CharTables(char).ilp(np.array([224.0]), 1.0, 4.0)
        assert batch[0] == pytest.approx(ipc, rel=1e-12)

    def test_trace_shorter_than_the_smallest_window(self):
        trace = TraceGenerator(PhaseSpec(name="tiny")).generate(8).slice(0, 3)
        char = characterize(trace)
        assert char.window_sizes == (3,)
        assert 1.0 <= char.path_ops[0] <= 3.0
        assert 0.0 < char.ilp(224, 1.0, 4.0) <= 3.0

    def test_long_traces_keep_the_whole_grid(self, int_char):
        assert int_char.window_sizes == WINDOW_GRID
