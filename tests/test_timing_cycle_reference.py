"""The fused cycle loop equals the hook-based loop it replaced.

:mod:`tests.reference_cycle` keeps the stage-method core and the
per-event collector hooks verbatim.  :class:`CycleSimulator` must return
exactly what that loop returns — the whole :class:`SimResult`, every
occupancy histogram and sum of the collector, and the watchdog's
message — on arbitrary traces and configurations, with and without
warm-up, including runs the watchdog stops.  Digests of ``SimResult``
and of every :class:`PhaseCounters` field from ``collect_counters`` on
fixed seeded traces pin the whole path, the shared predictor and cache
classes included, to what the hook-based loop produced.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.configuration import (
    KIB,
    MIB,
    PROFILING_CONFIG,
    MicroarchConfig,
)
from repro.config.parameters import TABLE1_PARAMETERS
from repro.config.space import DesignSpace
from repro.counters.collector import OccupancyCollector, collect_counters
from repro.timing.cycle import CycleSimulator, SimulationError
from repro.timing.resources import OpClass
from repro.workloads.generator import PhaseSpec, TraceGenerator
from repro.workloads.trace import Trace
from tests import reference_cycle as ref

BASELINE = MicroarchConfig(
    width=4, rob_size=144, iq_size=48, lsq_size=32, rf_size=160,
    rf_rd_ports=4, rf_wr_ports=2, gshare_size=16 * KIB, btb_size=1 * KIB,
    branches=24, icache_size=64 * KIB, dcache_size=32 * KIB,
    l2_size=1 * MIB, depth_fo4=12,
)
SMALLEST = MicroarchConfig.from_indices((0,) * len(TABLE1_PARAMETERS))
LARGEST = MicroarchConfig.from_indices(
    tuple(p.cardinality - 1 for p in TABLE1_PARAMETERS))
CORNERS = (PROFILING_CONFIG, BASELINE, SMALLEST, LARGEST)

#: Sums and counts the collector keeps next to its histograms.
COLLECTOR_SUMS = (
    "cycles", "rob_spec_sum", "iq_spec_sum", "lsq_spec_sum", "rob_occ_sum",
    "iq_occ_sum", "lsq_occ_sum", "int_reg_sum", "fp_reg_sum", "dispatched",
    "dispatched_mem", "squashed", "squashed_mem",
)
COLLECTOR_HISTOGRAMS = (
    "alu_usage", "mem_port_usage", "rob_usage", "iq_usage", "lsq_usage",
    "int_reg_usage", "fp_reg_usage", "rd_port_usage", "wr_port_usage",
)


# -- strategies --------------------------------------------------------------

@st.composite
def traces(draw, max_len: int = 400):
    """Random traces: any op mix, short and long dependences, code and
    data footprints from one block to far beyond the largest caches."""
    n = draw(st.integers(1, max_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = rng.choice(len(OpClass.NAMES), n).astype(np.uint8)
    for op, frac in ((OpClass.LOAD, st.sampled_from([0.0, 0.3, 0.7])),
                     (OpClass.STORE, st.sampled_from([0.0, 0.15])),
                     (OpClass.BRANCH, st.sampled_from([0.0, 0.15, 0.5]))):
        ops[rng.random(n) < draw(frac)] = op
    reach = draw(st.sampled_from([1, 3, 16, 400]))
    src1 = np.where(rng.random(n) < 0.8, rng.integers(0, reach + 1, n), 0)
    src2 = np.where(rng.random(n) < 0.4, rng.integers(0, reach + 1, n), 0)
    blocks = draw(st.sampled_from([1, 60, 3000, 200_000]))
    code = draw(st.sampled_from([1, 50, 20_000]))
    taken = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    return Trace(
        ops=ops, src1=src1.astype(np.int32), src2=src2.astype(np.int32),
        addr=(rng.integers(0, blocks, n) * 64
              + rng.integers(0, 64, n)).astype(np.int64),
        pc=(0x40_0000 + 4 * rng.integers(0, code, n)).astype(np.int64),
        taken=taken,
    )


def configs():
    indices = st.tuples(*(st.integers(0, p.cardinality - 1)
                          for p in TABLE1_PARAMETERS))
    return st.one_of(st.sampled_from(CORNERS),
                     indices.map(MicroarchConfig.from_indices))


# -- helpers -------------------------------------------------------------------

def _outcome(run):
    try:
        return run(), None
    except SimulationError as error:
        return None, str(error)


def _collector_state(collector) -> dict:
    state = {name: getattr(collector, name) for name in COLLECTOR_SUMS}
    for name in COLLECTOR_HISTOGRAMS:
        histogram = getattr(collector, name)
        state[name] = (histogram.edges, histogram.counts.tolist(),
                       histogram.cold)
    return state


def _assert_same_run(config, trace, observe, warm=True, warm_trace=None,
                     max_cpi=500):
    fused = CycleSimulator(config, max_cycles_per_instruction=max_cpi)
    got_collector = OccupancyCollector(config) if observe else None
    want_collector = ref.OccupancyCollector(config) if observe else None
    got, got_error = _outcome(lambda: fused.run(
        trace, collector=got_collector, warm=warm, warm_trace=warm_trace))
    want, want_error = _outcome(lambda: ref.run(
        config, trace, collector=want_collector, warm=warm,
        warm_trace=warm_trace, max_cycles_per_instruction=max_cpi))
    assert got_error == want_error
    assert got == want
    if observe and want is not None:
        assert _collector_state(got_collector) == \
            _collector_state(want_collector)
    return want_error is not None


# -- equality under hypothesis -------------------------------------------------

@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=traces(), config=configs(), observe=st.booleans(),
       warm=st.booleans(), warm_trace=st.one_of(st.none(), traces()),
       max_cpi=st.sampled_from([1, 2, 3, 500]))
def test_fused_loop_equals_reference(trace, config, observe, warm,
                                     warm_trace, max_cpi):
    _assert_same_run(config, trace, observe, warm=warm,
                     warm_trace=warm_trace, max_cpi=max_cpi)


@pytest.mark.parametrize("config", CORNERS, ids=lambda c: c.describe())
def test_generated_phases_equal_reference(config):
    """Realistic phases: long dependence chains, loops, squashes."""
    for spec in PIN_SPECS.values():
        generator = TraceGenerator(spec)
        _assert_same_run(config, generator.generate(1500, stream_seed=4),
                         observe=True,
                         warm_trace=generator.generate(800, stream_seed=5))


def test_watchdog_message_equals_reference():
    n = 64
    trace = Trace(ops=np.full(n, OpClass.LOAD, dtype=np.uint8),
                  src1=np.zeros(n, dtype=np.int32),
                  src2=np.zeros(n, dtype=np.int32),
                  addr=np.arange(n, dtype=np.int64) * 64 * 999_983,
                  pc=np.arange(n, dtype=np.int64) * 4,
                  taken=np.zeros(n, dtype=bool))
    assert _assert_same_run(BASELINE, trace, observe=True, warm=False,
                            max_cpi=1)
    with pytest.raises(SimulationError, match=r"after 1065 cycles"):
        CycleSimulator(BASELINE, max_cycles_per_instruction=1).run(
            trace, warm=False)


def test_no_state_outlives_a_run():
    """One simulator replays an input identically after other inputs."""
    generator = TraceGenerator(PIN_SPECS["int"])
    first = generator.generate(600, stream_seed=1)
    other = generator.generate(900, stream_seed=2)
    simulator = CycleSimulator(PROFILING_CONFIG)
    before = simulator.run(first, collector=OccupancyCollector(
        PROFILING_CONFIG))
    simulator.run(other)
    assert simulator.run(first, collector=OccupancyCollector(
        PROFILING_CONFIG)) == before
    assert _digest(collect_counters(first)) == \
        _digest(collect_counters(first))


# -- pinned digests --------------------------------------------------------------

PIN_SPECS = {
    "int": PhaseSpec(name="pin-int", load_frac=0.24, store_frac=0.10,
                     branch_frac=0.14, ilp_mean=6.0, serial_frac=0.35,
                     footprint_blocks=256, reuse_alpha=1.8, code_blocks=40),
    "fp": PhaseSpec(name="pin-fp", fp_frac=0.6, load_frac=0.3,
                    branch_frac=0.06, ilp_mean=20.0, footprint_blocks=4000,
                    scatter_frac=0.2, code_blocks=120, branch_bias=0.7),
    "serial": PhaseSpec(name="pin-serial", ilp_mean=1.5, serial_frac=0.9,
                        branch_frac=0.2, loop_branch_frac=0.8),
    "mcf": PhaseSpec(name="pin-mcf", load_frac=0.35, branch_frac=0.18,
                     footprint_blocks=60_000, scatter_frac=0.6,
                     streaming_frac=0.2, code_blocks=300, branch_bias=0.6),
}

PIN_CONFIGS = {
    "profiling": PROFILING_CONFIG,
    "baseline": BASELINE,
    "smallest": SMALLEST,
    "random": DesignSpace(seed=2016).random_configuration(),
}


def _canonical(value: object) -> str:
    """An exact text form: floats by ``repr``, arrays as lists."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + _canonical(
            {f.name: getattr(value, f.name)
             for f in dataclasses.fields(value)})
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_canonical(v)}"
                              for k, v in sorted(value.items())) + "}"
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _digest(value: object) -> str:
    return hashlib.sha256(_canonical(value).encode()).hexdigest()[:16]


def _pin_inputs(spec: str, length: int, warm: str):
    generator = TraceGenerator(PIN_SPECS[spec])
    trace = generator.generate(length, stream_seed=1)
    warm_trace = (generator.generate(length, stream_seed=2)
                  if warm == "sibling" else None)
    return trace, warm_trace


#: (spec, config, length, warm-up) -> (SimResult digest, PhaseCounters
#: digest), captured from the hook-based loop.  Warm-up "sibling" trains
#: the predictor on a sibling stream, "self" on the trace itself, and
#: "off" simulates cold (``collect_counters`` always warms, on itself).
PIN_DIGESTS = {
    ("int", "profiling", 2000, "sibling"): ("5939be384564666f",
                                           "6e921bf86d9d5835"),
    ("fp", "profiling", 2000, "self"): ("beb9d2d8f70f9346",
                                       "4a6dc8134f3ea906"),
    ("serial", "profiling", 1500, "off"): ("0bf968e2ad065574",
                                          "8a1a68b51fc965a0"),
    ("mcf", "profiling", 1500, "sibling"): ("6aa811f144346782",
                                           "c89efaeb04f2966f"),
    ("int", "baseline", 1500, "sibling"): ("06327f26ddb72d17",
                                          "210ae92deea352ab"),
    ("fp", "smallest", 1500, "sibling"): ("8d343c8d199ae425",
                                         "124e305f127bf7b4"),
    ("mcf", "smallest", 1000, "off"): ("3261782ff2581a69",
                                      "219535dd8a334771"),
    ("serial", "random", 1200, "self"): ("6e6253ad268ef164",
                                        "7f5379e7032a8768"),
    ("int", "random", 1000, "sibling"): ("7dc46f0f2c607da4",
                                        "c7cd8843f2259164"),
}


@pytest.mark.parametrize("case", sorted(PIN_DIGESTS))
def test_pinned_digests(case):
    spec, config_name, length, warm = case
    config = PIN_CONFIGS[config_name]
    trace, warm_trace = _pin_inputs(spec, length, warm)
    result = CycleSimulator(config).run(trace, warm=warm != "off",
                                        warm_trace=warm_trace)
    counters = collect_counters(trace, config, warm_trace=warm_trace)
    assert (_digest(result), _digest(counters)) == PIN_DIGESTS[case]
