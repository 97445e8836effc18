"""Batch/scalar equivalence: the vectorized evaluator must price every
configuration exactly like the scalar interval evaluator."""

import numpy as np
import pytest

from repro.config import DesignSpace
from repro.timing import (
    BatchIntervalEvaluator,
    CharTables,
    ConfigBatch,
    IntervalEvaluator,
    characterize,
    derive_machine_params,
    derive_machine_params_arrays,
)
from repro.workloads import PhaseSpec, TraceGenerator

RTOL = 1e-9

#: Characterisations spanning compute-bound, memory-bound and FP-streaming
#: behaviour, so every CPI term (branch, data, instruction side) is active.
_SPECS = (
    PhaseSpec(name="eq-int", load_frac=0.24, store_frac=0.10,
              branch_frac=0.14, ilp_mean=8.0, serial_frac=0.3,
              footprint_blocks=600, reuse_alpha=1.5, code_blocks=60),
    PhaseSpec(name="eq-mem", load_frac=0.32, store_frac=0.08,
              branch_frac=0.08, ilp_mean=4.0, serial_frac=0.5,
              footprint_blocks=40_000, scatter_frac=0.4, reuse_alpha=0.8),
    PhaseSpec(name="eq-fp", load_frac=0.28, store_frac=0.10,
              branch_frac=0.07, fp_frac=0.6, ilp_mean=16.0,
              serial_frac=0.15, footprint_blocks=2048, reuse_alpha=1.1,
              streaming_frac=0.3, code_blocks=24, loop_branch_frac=0.7,
              branch_bias=0.95),
)


@pytest.fixture(scope="module", params=range(len(_SPECS)),
                ids=[s.name for s in _SPECS])
def char(request):
    generator = TraceGenerator(_SPECS[request.param])
    return characterize(generator.generate(4000, stream_seed=1),
                        warm_trace=generator.generate(4000, stream_seed=2))


@pytest.fixture(scope="module")
def configs():
    """>= 200 uniform random configurations."""
    return DesignSpace(seed=11).random_sample(220)


@pytest.fixture(scope="module")
def scalar():
    return IntervalEvaluator()


@pytest.fixture(scope="module")
def batch():
    return BatchIntervalEvaluator()


class TestEquivalence:
    def test_matches_scalar_evaluator(self, char, configs, scalar, batch):
        """Property: every result equals the scalar evaluator's exactly."""
        expected = [scalar.evaluate(char, config) for config in configs]
        actual = batch.evaluate_many(char, configs)
        assert len(actual) == len(expected)
        for config, a, b in zip(configs, expected, actual):
            for field in ("cycles", "time_ns", "energy_pj", "efficiency"):
                assert getattr(a, field) == getattr(b, field), (
                    f"{field} diverges on {config.describe()}"
                )
            assert a == b

    def test_batch_result_arrays_consistent(self, char, configs, batch):
        result = batch.evaluate_batch(char, configs)
        assert len(result) == len(configs)
        assert result.cycles.dtype == np.int64
        assert (result.cycles >= 1).all()
        assert (result.energy_pj > 0).all()
        assert (result.efficiency > 0).all()
        best = result.best_index
        assert result.efficiency[best] == result.efficiency.max()

    def test_precomputed_tables_equal_fresh(self, char, configs, batch):
        tables = CharTables(char)
        with_tables = batch.evaluate_batch(char, configs, tables=tables)
        fresh = batch.evaluate_batch(char, configs)
        assert (with_tables.cycles == fresh.cycles).all()
        assert (with_tables.energy_pj == fresh.energy_pj).all()

    def test_empty_batch(self, char, batch):
        result = batch.evaluate_batch(char, [])
        assert len(result) == 0
        assert result.results() == []

    def test_single_config_batch(self, char, configs, scalar, batch):
        [single] = batch.evaluate_many(char, configs[:1])
        assert single == scalar.evaluate(char, configs[0])


class TestBatchMachineParams:
    def test_matches_scalar_derivation(self, configs):
        packed = ConfigBatch(configs)
        params = derive_machine_params_arrays(packed.params)
        for i, config in enumerate(configs):
            scalar = derive_machine_params(config)
            assert params.period_ns[i] == pytest.approx(
                scalar.period_ns, rel=RTOL)
            assert params.mispredict_penalty[i] == scalar.mispredict_penalty
            assert params.dcache_latency_f[i] == pytest.approx(
                scalar.dcache_latency_f, rel=RTOL)
            assert params.l2_latency_f[i] == pytest.approx(
                scalar.l2_latency_f, rel=RTOL)
            assert params.total_leakage_mw[i] == pytest.approx(
                scalar.total_leakage_mw, rel=RTOL)
            assert params.clock_energy_pj_per_cycle[i] == pytest.approx(
                scalar.clock_energy_pj_per_cycle, rel=RTOL)
            for name, costs in params.structures.items():
                assert costs.read_energy_pj[i] == pytest.approx(
                    scalar.structures[name].read_energy_pj, rel=RTOL), name
                assert costs.write_energy_pj[i] == pytest.approx(
                    scalar.structures[name].write_energy_pj, rel=RTOL), name
                assert costs.leakage_mw[i] == pytest.approx(
                    scalar.structures[name].leakage_mw, rel=RTOL), name


class TestConfigBatch:
    def test_roundtrip(self, configs):
        packed = ConfigBatch(configs)
        assert len(packed) == len(configs)
        assert list(packed) == list(configs)
        assert (packed.column("width")
                == np.array([c.width for c in configs])).all()
