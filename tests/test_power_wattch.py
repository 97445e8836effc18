"""Tests for the Wattch-style power accounting."""

import pytest

from repro.power import account
from repro.power.wattch import MEMORY_ACCESS_PJ
from repro.timing import CycleSimulator, derive_machine_params
from repro.timing.resources import ALU_ENERGY_PJ


@pytest.fixture(scope="module")
def params(baseline_config=None):
    from repro.config import KIB, MIB, MicroarchConfig
    config = MicroarchConfig(
        width=4, rob_size=144, iq_size=48, lsq_size=32, rf_size=160,
        rf_rd_ports=4, rf_wr_ports=2, gshare_size=16 * KIB, btb_size=KIB,
        branches=24, icache_size=64 * KIB, dcache_size=32 * KIB,
        l2_size=MIB, depth_fo4=12,
    )
    return derive_machine_params(config)


def base_activity(**overrides):
    activity = {
        "icache_access": 1000, "icache_miss": 10, "dcache_access": 800,
        "dcache_miss": 40, "l2_access": 50, "l2_miss": 5,
        "gshare_access": 300, "btb_access": 300, "rob_write": 2200,
        "rob_read": 2000, "iq_write": 2200, "iq_wakeup": 1800,
        "iq_select": 2100, "lsq_write": 800, "lsq_search": 600,
        "rf_read_int": 2500, "rf_read_fp": 100, "rf_write_int": 1500,
        "rf_write_fp": 80, "ialu_op": 1500, "imul_op": 50, "falu_op": 60,
        "fmul_op": 10,
    }
    activity.update(overrides)
    return activity


class TestAccount:
    def test_report_components_positive(self, params):
        report = account(base_activity(), params, cycles=3000)
        assert report.dynamic_pj > 0
        assert report.leakage_pj > 0
        assert report.clock_pj > 0
        assert report.total_pj == pytest.approx(
            report.dynamic_pj + report.leakage_pj + report.clock_pj)

    def test_power_consistent_with_energy_and_time(self, params):
        report = account(base_activity(), params, cycles=3000)
        assert report.power_watts == pytest.approx(
            report.total_pj * 1e-12 / (report.time_ns * 1e-9))

    def test_more_activity_more_dynamic(self, params):
        low = account(base_activity(), params, cycles=3000)
        high = account(base_activity(dcache_access=8000, ialu_op=15000),
                       params, cycles=3000)
        assert high.dynamic_pj > low.dynamic_pj

    def test_longer_run_leaks_more(self, params):
        short = account(base_activity(), params, cycles=1000)
        long = account(base_activity(), params, cycles=10_000)
        assert long.leakage_pj == pytest.approx(10 * short.leakage_pj)
        assert long.clock_pj == pytest.approx(10 * short.clock_pj)

    def test_l2_misses_priced_as_memory_traffic(self, params):
        without = account(base_activity(l2_miss=0), params, cycles=3000)
        with_misses = account(base_activity(l2_miss=100), params, cycles=3000)
        assert with_misses.dynamic_pj - without.dynamic_pj == pytest.approx(
            100 * MEMORY_ACCESS_PJ)
        # L1 misses are priced through their l2_access events instead.
        l1_misses = account(base_activity(icache_miss=500, dcache_miss=500),
                            params, cycles=3000)
        assert l1_misses.dynamic_pj == account(
            base_activity(), params, cycles=3000).dynamic_pj

    def test_unknown_activity_key_rejected(self, params):
        with pytest.raises(KeyError):
            account({"l3_access": 5}, params, cycles=100)

    def test_zero_counts_ignored(self, params):
        report = account({"ialu_op": 0}, params, cycles=100)
        assert report.dynamic_pj == 0.0

    def test_per_structure_breakdown_sums(self, params):
        """Dynamic energy is each structure's accesses times its per-access
        energy, plus ALU operations and memory-bus transfers."""
        activity = base_activity()
        rf = params.structures["rf"]
        expected = {
            "alu": sum(ALU_ENERGY_PJ[key[:-3]] * activity[key]
                       for key in ("ialu_op", "imul_op", "falu_op", "fmul_op")),
            "memory_bus": MEMORY_ACCESS_PJ * activity["l2_miss"],
            "rf": rf.read_energy_pj * (activity["rf_read_int"]
                                       + activity["rf_read_fp"])
            + rf.write_energy_pj * (activity["rf_write_int"]
                                    + activity["rf_write_fp"]),
        }
        for name in ("icache", "dcache", "l2", "gshare", "btb"):
            expected[name] = (params.structures[name].read_energy_pj
                              * activity[f"{name}_access"])
        iq, rob, lsq = (params.structures[n] for n in ("iq", "rob", "lsq"))
        expected["iq"] = (iq.write_energy_pj * activity["iq_write"]
                          + iq.read_energy_pj * (activity["iq_wakeup"]
                                                 + activity["iq_select"]))
        expected["rob"] = (rob.write_energy_pj * activity["rob_write"]
                           + rob.read_energy_pj * activity["rob_read"])
        expected["lsq"] = (lsq.write_energy_pj * activity["lsq_write"]
                           + lsq.read_energy_pj * activity["lsq_search"])
        assert set(expected) == set(params.structures) | {"alu", "memory_bus"}
        report = account(activity, params, cycles=3000)
        assert report.dynamic_pj == pytest.approx(sum(expected.values()))

    def test_cycle_sim_activity_prices_cleanly(self, params, small_trace):
        """The simulator's activity vocabulary matches the accountant's."""
        result = CycleSimulator(params.config).run(small_trace)
        report = account(result.activity, params, result.cycles)
        assert 0.05 < report.power_watts < 200
