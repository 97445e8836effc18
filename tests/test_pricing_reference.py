"""Cacti, machine-parameter and Wattch pricing equal their references.

:mod:`tests.reference_pricing` keeps the per-configuration formulas that
the array forms in ``src/repro`` replaced.  Every field the production
code derives must be *exactly* (``==``, and of the same type) what its
reference derives: the machine parameters of any Table I configuration
(structure costs, whole-cycle latencies and ``op_latency`` included), the
power report of any activity dictionary, row by row for a batch, and the
cost of any single array geometry.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MicroarchConfig, TABLE1_PARAMETERS
from repro.counters.sampling import monitoring_overheads
from repro.power.cacti import CactiModel
from repro.power.wattch import _ACTIVITY_STRUCTURE, _ALU_KEYS, account
from repro.timing import ConfigBatch, derive_machine_params_arrays
from repro.timing.resources import derive_machine_params
from tests import reference_pricing as reference

CARDINALITIES = [p.cardinality for p in TABLE1_PARAMETERS]

configs = st.tuples(*[st.integers(0, n - 1) for n in CARDINALITIES]).map(
    MicroarchConfig.from_indices)

#: Every activity key the accountant prices or skips.
ACTIVITY_KEYS = sorted(
    [*_ACTIVITY_STRUCTURE, *_ALU_KEYS, "icache_miss", "dcache_miss", "l2_miss"])

#: Activity dictionaries: any subset of the vocabulary, in any order,
#: with zero counts among them.
activities = st.lists(st.sampled_from(ACTIVITY_KEYS), unique=True).flatmap(
    lambda keys: st.lists(
        st.one_of(st.just(0), st.integers(0, 10**9)),
        min_size=len(keys), max_size=len(keys),
    ).map(lambda counts: dict(zip(keys, counts))))

cycle_counts = st.integers(0, 10**10)

SMALLEST = MicroarchConfig.from_indices((0,) * len(CARDINALITIES))
LARGEST = MicroarchConfig.from_indices(tuple(n - 1 for n in CARDINALITIES))


def assert_identical(actual, expected, what):
    assert actual == expected, what
    assert type(actual) is type(expected), what


class TestMachineParams:
    @given(configs)
    @example(SMALLEST)
    @example(LARGEST)
    @settings(max_examples=300, deadline=None)
    def test_every_field_equals_the_reference(self, config):
        actual = derive_machine_params.__wrapped__(config)
        expected = reference.derive_machine_params(config)
        for field in dataclasses.fields(actual):
            if field.name == "structures":
                continue
            assert_identical(getattr(actual, field.name),
                             getattr(expected, field.name), field.name)
        assert [type(c) for c in actual.op_latency] == [
            type(c) for c in expected.op_latency]
        assert actual.structures.keys() == expected.structures.keys()
        for name, costs in actual.structures.items():
            for field in dataclasses.fields(costs):
                assert_identical(getattr(costs, field.name),
                                 getattr(expected.structures[name], field.name),
                                 (name, field.name))
        for ns in (0.0, 0.3, 1.0, 80.0, actual.period_ns * 3):
            assert_identical(actual.cycles_for_ns(ns),
                             expected.cycles_for_ns(ns), ns)


REPORT_FIELDS = ("time_ns", "dynamic_pj", "leakage_pj", "clock_pj",
                 "total_pj", "energy_joules")


class TestAccount:
    @given(configs, activities, cycle_counts)
    @example(SMALLEST, {}, 0)
    @settings(max_examples=300, deadline=None)
    def test_every_field_equals_the_reference(self, config, activity, cycles):
        actual = account(activity, derive_machine_params(config), cycles)
        expected = reference.account(
            activity, reference.derive_machine_params(config), cycles)
        for name in (*REPORT_FIELDS, "power_watts"):
            assert_identical(getattr(actual, name), getattr(expected, name),
                             name)

    @given(st.lists(st.tuples(configs, cycle_counts),
                    min_size=1, max_size=12),
           st.lists(st.sampled_from(ACTIVITY_KEYS), unique=True),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_batch_rows_equal_the_reference(self, rows, keys, rng):
        """Arrays priced at once equal each configuration priced alone.

        With no activity at all, ``dynamic_pj`` is a plain zero that
        broadcasts over the batch."""
        counts = {key: [rng.randrange(10**9) for _ in rows] for key in keys}
        batch_configs = [config for config, _ in rows]
        cycles = np.array([c for _, c in rows], dtype=np.int64)
        report = account(
            {key: np.array(values, dtype=np.float64)
             for key, values in counts.items()},
            derive_machine_params_arrays(ConfigBatch(batch_configs).params),
            cycles)
        for i, (config, row_cycles) in enumerate(rows):
            expected = reference.account(
                {key: values[i] for key, values in counts.items()},
                reference.derive_machine_params(config), row_cycles)
            for name in REPORT_FIELDS:
                values = np.broadcast_to(getattr(report, name), cycles.shape)
                assert values[i] == getattr(expected, name), (name, i)


geometries = st.builds(
    reference.ArrayGeometry,
    entries=st.integers(1, 1 << 22),
    entry_bits=st.integers(1, 1024),
    read_ports=st.integers(1, 24),
    write_ports=st.integers(1, 24),
    is_cam=st.booleans(),
    tag_bits=st.integers(1, 64),
)


class TestCacti:
    @given(geometries)
    @settings(max_examples=300, deadline=None)
    def test_batch_costs_equal_the_scalar_methods(self, geometry):
        costs = CactiModel().batch_costs(
            np.array([geometry.entries]), geometry.entry_bits,
            np.array([geometry.read_ports]), np.array([geometry.write_ports]),
            is_cam=geometry.is_cam, tag_bits=geometry.tag_bits)
        cacti = reference.CactiModel()
        assert costs.latency_ns[0] == cacti.access_latency_ns(geometry)
        assert costs.read_energy_pj[0] == cacti.read_energy_pj(geometry)
        assert costs.write_energy_pj[0] == cacti.write_energy_pj(geometry)
        assert costs.leakage_mw[0] == cacti.leakage_mw(geometry)
        assert costs.transistors[0] == cacti.transistors(geometry)

    @given(st.sampled_from([8, 16, 32, 64, 128, 1024, 4096]).map(
               lambda kib: kib * 1024),
           st.sampled_from([1, 2, 4, 8, 16]),
           st.integers(1, 4096),
           st.sampled_from(["block_reuse", "set_reuse"]))
    @settings(max_examples=100, deadline=None)
    def test_monitor_overheads_equal_the_scalar_methods(
            self, size, assoc, sampled_sets, feature):
        actual = monitoring_overheads(size, assoc, sampled_sets, feature)
        cacti = reference.CactiModel()
        n_sets = max(1, size // 64 // assoc)
        sampled = min(sampled_sets, n_sets)
        if feature == "block_reuse":
            entries, bits = sampled * assoc, 40
        else:
            entries, bits = sampled, 16
        cache = reference.ArrayGeometry(size // 64, 64 * 8 + 40)
        monitor = reference.ArrayGeometry(max(2, entries), bits)
        assert_identical(
            actual.dynamic_frac,
            cacti.write_energy_pj(monitor) * (sampled / n_sets)
            / cacti.read_energy_pj(cache), "dynamic_frac")
        assert_identical(
            actual.leakage_frac,
            cacti.leakage_mw(monitor) / cacti.leakage_mw(cache),
            "leakage_frac")
