"""The array kernels behind trace analysis equal their scalar references.

:mod:`tests.reference_kernels` keeps the per-element loops the kernels
replaced.  Every kernel must return *exactly* what its reference
returns — distances and miss counts are integers, critical-path depths
integer-valued floats, and the branch rates the same float expressions
over those integers — on arbitrary inputs, including the edge cases
(empty, single-element, one-block, branch-free and never-taken streams,
lengths that are no multiple of any window, warm streams of another
length).  A digest of ``characterize()`` and of the advanced feature
vector from ``collect_counters()`` on fixed seeded traces pins the whole
path to what the scalar loops produced.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.parameters import parameter_by_name
from repro.counters.collector import (
    _MAX_DISTANCE,
    _cache_counters,
    collect_counters,
)
from repro.counters.features import AdvancedFeatureExtractor
from repro.timing.branch import (
    btb_misses,
    gshare_misses,
    simulate_btb,
    simulate_gshare,
)
from repro.timing.caches import (
    block_reuse_distances,
    set_reuse_distances,
    stack_distances,
)
from repro.timing.characterize import WINDOW_GRID, _critical_paths, characterize
from repro.timing.resources import OpClass
from repro.workloads.generator import PhaseSpec, TraceGenerator
from repro.workloads.trace import Trace
from tests import reference_kernels as ref

GSHARE_SIZES = parameter_by_name("gshare_size").values
BTB_SIZES = parameter_by_name("btb_size").values


# -- strategies --------------------------------------------------------------

def block_streams(max_len: int = 300):
    """Block-id streams: few distinct ids (deep reuse) up to many."""
    return st.integers(1, 400).flatmap(
        lambda distinct: st.lists(st.integers(0, distinct - 1),
                                  max_size=max_len)
    ).map(lambda ids: np.array(ids, dtype=np.int64))


@st.composite
def branch_streams(draw, max_len: int = 400):
    """(pcs, taken) streams over a handful of branch sites, so both
    predictors see aliasing, repeats and evictions."""
    n = draw(st.integers(0, max_len))
    sites = draw(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pcs = np.array(sites, dtype=np.int64)[rng.integers(0, len(sites), n)] * 4
    bias = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    taken = rng.random(n) < bias
    return pcs, taken


@st.composite
def traces(draw, min_len: int = 1, max_len: int = 700):
    """Random traces: any op mix, dependence distances reaching in and
    out of every window, a small code and data footprint."""
    n = draw(st.integers(min_len, max_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    branch_frac = draw(st.sampled_from([0.0, 0.15, 0.5]))
    load_frac = draw(st.sampled_from([0.0, 0.3]))
    ops = rng.choice(len(OpClass.NAMES), n).astype(np.uint8)
    ops[rng.random(n) < load_frac] = OpClass.LOAD
    ops[rng.random(n) < branch_frac] = OpClass.BRANCH
    reach = draw(st.sampled_from([2, 8, 64, 400]))
    src1 = rng.integers(0, reach, n).astype(np.int32)
    src2 = np.where(rng.random(n) < 0.5, rng.integers(0, reach, n),
                    0).astype(np.int32)
    taken = rng.random(n) < draw(st.sampled_from([0.0, 0.6, 1.0]))
    return Trace(
        ops=ops, src1=src1, src2=src2,
        addr=rng.integers(0, 64 * 200, n).astype(np.int64),
        pc=(0x40_0000 + 4 * rng.integers(0, 300, n)).astype(np.int64),
        taken=taken,
    )


def expected_windows(n: int) -> tuple[int, ...]:
    return tuple(w for w in WINDOW_GRID if w <= n) or (n,)


# -- locality distances ------------------------------------------------------

class TestDistanceKernels:
    @settings(max_examples=150, deadline=None)
    @given(block_streams())
    def test_stack_distances(self, blocks):
        assert stack_distances(blocks).tolist() == \
            ref.stack_distances(blocks).tolist()

    @settings(max_examples=100, deadline=None)
    @given(block_streams())
    def test_block_reuse_distances(self, blocks):
        assert block_reuse_distances(blocks).tolist() == \
            ref.block_reuse_distances(blocks).tolist()

    @settings(max_examples=100, deadline=None)
    @given(block_streams(), st.integers(1, 70))
    def test_set_reuse_distances(self, blocks, n_sets):
        assert set_reuse_distances(blocks, n_sets).tolist() == \
            ref.set_reuse_distances(blocks, n_sets).tolist()

    @pytest.mark.parametrize("blocks", [[], [7], [3, 3, 3], [1, 2, 1, 2]])
    def test_edge_streams(self, blocks):
        blocks = np.array(blocks, dtype=np.int64)
        for kernel, reference in (
            (stack_distances, ref.stack_distances),
            (block_reuse_distances, ref.block_reuse_distances),
        ):
            out = kernel(blocks)
            assert out.dtype == np.int64
            assert out.tolist() == reference(blocks).tolist()

    def test_long_stream(self):
        blocks = np.random.default_rng(5).integers(0, 3000, 20_000)
        assert (stack_distances(blocks) == ref.stack_distances(blocks)).all()

    @settings(max_examples=60, deadline=None)
    @given(block_streams(), st.integers(1, 64), st.integers(1, 8))
    def test_cache_counter_histograms(self, blocks, n_sets, n_sets_reduced):
        """``collect_counters``' four distance histograms per cache."""
        counters = _cache_counters(blocks, n_sets, n_sets_reduced,
                                   accesses=len(blocks), miss_rate=0.0)
        expected = ref.cache_histograms(blocks, n_sets, n_sets_reduced,
                                        _MAX_DISTANCE)
        for name, histogram in expected.items():
            got = getattr(counters, name)
            assert got.counts.tolist() == histogram.counts.tolist(), name
            assert got.cold == histogram.cold, name


# -- branch predictors -------------------------------------------------------

class TestBranchKernels:
    @settings(max_examples=80, deadline=None)
    @given(branch_streams(), st.sampled_from([1, 2, 16, 1024, 32768]))
    def test_gshare_rate(self, stream, entries):
        pcs, taken = stream
        assert simulate_gshare(pcs, taken, entries) == \
            ref.simulate_gshare(pcs, taken, entries)

    @settings(max_examples=80, deadline=None)
    @given(branch_streams(), st.sampled_from([1, 4, 1024, 4096]))
    def test_btb_rate(self, stream, entries):
        pcs, taken = stream
        assert simulate_btb(pcs, taken, entries) == \
            ref.simulate_btb(pcs, taken, entries)

    @settings(max_examples=60, deadline=None)
    @given(branch_streams(), st.integers(0, 450))
    def test_split_counts_equal_prefix_replay(self, stream, split):
        """One replay's prefix count is the prefix stream's own count."""
        pcs, taken = stream
        head = min(split, len(pcs))
        for kernel in (gshare_misses, btb_misses):
            prefix, total = kernel(pcs, taken, 1024, split=split)
            assert prefix == kernel(pcs[:head], taken[:head], 1024)[1]
            assert total == kernel(pcs, taken, 1024)[1]

    def test_empty_and_never_taken(self):
        empty = np.array([], dtype=np.int64)
        assert gshare_misses(empty, empty.astype(bool), 1024) == (0, 0)
        assert btb_misses(empty, empty.astype(bool), 1024) == (0, 0)
        pcs = np.arange(50, dtype=np.int64) * 4
        never = np.zeros(50, dtype=bool)
        assert simulate_btb(pcs, never, 1024) == 0.0
        # A weakly-taken cold table mispredicts each site's first visit.
        assert simulate_gshare(pcs, never, 1024) == \
            ref.simulate_gshare(pcs, never, 1024)

    def test_invalid_arguments(self):
        pcs = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError):
            gshare_misses(pcs, np.zeros(2, dtype=bool), 1024)
        with pytest.raises(ValueError):
            gshare_misses(pcs, np.zeros(3, dtype=bool), 0)
        with pytest.raises(ValueError):
            btb_misses(pcs, np.zeros(2, dtype=bool), 1024)


# -- characterisation --------------------------------------------------------

class TestCharacterizeKernels:
    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_critical_paths(self, trace):
        windows, ops, weighted = _critical_paths(trace)
        assert windows == expected_windows(len(trace))
        assert (ops, weighted) == ref.critical_paths(trace, windows)

    @pytest.mark.parametrize(
        "n", [1, 3, 4, 5, 100, 223, 224, 225, 1001, 13440, 13441, 13667])
    def test_critical_paths_lengths(self, n):
        """One block, shorter than the grid, no multiple of any window,
        and the edges of the DP's 13440-instruction chunks."""
        trace = TraceGenerator(PhaseSpec(name="kern-len")).generate(
            max(n, 8), stream_seed=n).slice(0, n)
        windows, ops, weighted = _critical_paths(trace)
        assert windows == expected_windows(n)
        assert (ops, weighted) == ref.critical_paths(trace, windows)

    @settings(max_examples=40, deadline=None)
    @given(traces(), st.one_of(st.none(), traces()))
    def test_branch_tables(self, trace, warm):
        """Joint replays equal separate warm and warm + measure replays,
        whatever the warm stream's length."""
        char = characterize(trace, warm_trace=warm)
        gshare, btb = ref.branch_tables(trace, warm, GSHARE_SIZES, BTB_SIZES)
        assert char.gshare_mispredict == gshare
        assert char.btb_taken_miss == btb

    def test_branch_free_trace(self):
        trace = TraceGenerator(PhaseSpec(name="kern-nobranch")).generate(300)
        trace = dataclasses.replace(
            trace, ops=np.where(trace.ops == OpClass.BRANCH, OpClass.IALU,
                                trace.ops).astype(np.uint8))
        char = characterize(trace)
        assert set(char.gshare_mispredict.values()) == {0.0}
        assert set(char.btb_taken_miss.values()) == {0.0}


# -- pinned digests ------------------------------------------------------------

PIN_SPECS = {
    "int": PhaseSpec(name="pin-int", load_frac=0.24, store_frac=0.10,
                     branch_frac=0.14, ilp_mean=6.0, serial_frac=0.35,
                     footprint_blocks=256, reuse_alpha=1.8, code_blocks=40),
    "fp": PhaseSpec(name="pin-fp", fp_frac=0.6, load_frac=0.3,
                    branch_frac=0.06, ilp_mean=20.0, footprint_blocks=4000,
                    scatter_frac=0.2, code_blocks=120, branch_bias=0.7),
    "serial": PhaseSpec(name="pin-serial", ilp_mean=1.5, serial_frac=0.9,
                        branch_frac=0.2, loop_branch_frac=0.8),
}


def _canonical(value: object) -> str:
    """A stable text form.  Floats keep 12 significant digits, so the pin
    does not hang on the last-ulp results of the platform's ``pow``."""
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_canonical(v)}"
                              for k, v in sorted(value.items())) + "}"
    if isinstance(value, (tuple, list, np.ndarray)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if isinstance(value, np.floating):
        return _canonical(float(value))
    return repr(value)


def _digest(value: object) -> str:
    return hashlib.sha256(_canonical(value).encode()).hexdigest()[:16]


#: (spec, length, warm length) -> digest, captured from the scalar loops.
CHAR_DIGESTS = {
    ("int", 3000, 3000): "6b975550361a42a4",
    ("fp", 4000, 2500): "3029f5de5a12502b",
    ("serial", 1000, None): "70a153a68bfe75ad",
    ("int", 224, None): "7de173fc0da54cca",
    ("fp", 300, 5000): "6ae6e5236048b734",
}
#: (spec, length) -> digest of the advanced feature vector.
COUNTER_DIGESTS = {
    ("int", 1000): "3b1aaf3f8822e61f",
    ("fp", 1500): "f66759e53326b13f",
}


@pytest.mark.parametrize("case", sorted(CHAR_DIGESTS, key=str))
def test_characterize_digest(case):
    spec, length, warm_length = case
    generator = TraceGenerator(PIN_SPECS[spec])
    warm = (generator.generate(warm_length, stream_seed=2)
            if warm_length else None)
    char = characterize(generator.generate(length, stream_seed=1),
                        warm_trace=warm)
    fields = [getattr(char, f.name) for f in dataclasses.fields(char)]
    assert _digest(fields) == CHAR_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(COUNTER_DIGESTS))
def test_advanced_features_digest(case):
    spec, length = case
    trace = TraceGenerator(PIN_SPECS[spec]).generate(length, stream_seed=3)
    features = AdvancedFeatureExtractor().extract(collect_counters(trace))
    assert _digest(np.asarray(features, dtype=np.float64)) == \
        COUNTER_DIGESTS[case]
