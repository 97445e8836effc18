"""NumPy-vectorized batch configuration evaluation.

The section V-C protocol prices ~1,298 configurations per phase — >337k
evaluations at paper scale.  :class:`~repro.timing.interval.IntervalEvaluator`
does that one config at a time in pure-Python scalar math;
:class:`BatchIntervalEvaluator` packs a whole sequence of configurations
into parameter arrays (:class:`ConfigBatch`), precomputes the
characterisation-dependent lookup tables once per call
(:class:`CharTables`), and evaluates the effective window, base IPC, CPI
penalties, activity counts and Wattch energy for *all* configurations in
one vectorized pass.

The machine parameters (:func:`~repro.timing.resources.derive_machine_params_arrays`)
and the Wattch accounting (:func:`~repro.power.wattch.account`) are the
ones the scalar evaluator uses too.  Only the interval core model (CPI and
activity counts) is written twice, because a one-row call here costs
several times the scalar one; every vectorized expression of it mirrors
the scalar evaluator term for term (same operation order, float64
throughout), so position ``i`` of a batch agrees with
``IntervalEvaluator.evaluate`` on configuration ``i`` bitwise —
``tests/test_timing_batch.py`` asserts that every result is equal across
random configurations and characterisations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.config.configuration import MicroarchConfig
from repro.config.parameters import PARAMETER_NAMES
from repro.power.metrics import EfficiencyResult
from repro.power.wattch import account
from repro.timing.characterize import NOMINAL_LOAD_WEIGHT, TraceCharacterization
from repro.timing.interval import IntervalEvaluator
from repro.timing.resources import (
    ARCH_REGS,
    CACHE_BLOCK_BYTES,
    BatchMachineParams,
    OpClass,
    derive_machine_params_arrays,
)

__all__ = [
    "BatchEvalResult",
    "BatchIntervalEvaluator",
    "CharTables",
    "ConfigBatch",
]

class ConfigBatch:
    """A sequence of configurations packed into per-parameter arrays."""

    __slots__ = ("configs", "params", "_n")

    def __init__(self, configs: Sequence[MicroarchConfig]) -> None:
        self.configs = tuple(configs)
        n = len(self.configs)
        self._n = n
        self.params: dict[str, np.ndarray] = {
            name: np.fromiter(
                (getattr(c, name) for c in self.configs), dtype=np.int64, count=n
            )
            for name in PARAMETER_NAMES
        }

    @classmethod
    def from_arrays(cls, params: dict[str, np.ndarray]) -> "ConfigBatch":
        """A batch built directly from per-parameter value arrays.

        The design-space-exploration screener prices 100k+ candidate
        configurations per phase; materialising a ``MicroarchConfig``
        object for each would dominate the runtime, so this constructor
        accepts the packed arrays directly.  ``configs`` is left empty —
        callers that need the objects (``evaluate_many``, protocol dicts)
        must build the batch from configurations instead.
        """
        missing = set(PARAMETER_NAMES) - set(params)
        if missing:
            raise ValueError(f"missing parameter arrays: {sorted(missing)}")
        lengths = {len(params[name]) for name in PARAMETER_NAMES}
        if len(lengths) > 1:
            raise ValueError(f"ragged parameter arrays: lengths {sorted(lengths)}")
        batch = cls.__new__(cls)
        batch.configs = ()
        batch._n = lengths.pop() if lengths else 0
        batch.params = {
            name: np.asarray(params[name], dtype=np.int64)
            for name in PARAMETER_NAMES
        }
        return batch

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[MicroarchConfig]:
        return iter(self.configs)

    def column(self, name: str) -> np.ndarray:
        """The int64 value array of one Table I parameter."""
        return self.params[name]


def _curve_table(curve: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    keys = np.array(sorted(curve), dtype=np.float64)
    values = np.array([curve[int(k)] for k in keys], dtype=np.float64)
    return keys, values


class CharTables:
    """Per-characterisation scalars and lookup tables, precomputed once.

    Everything the vectorized evaluator needs from a
    :class:`TraceCharacterization`: the clamped mix denominators, the ILP
    curve grids and the miss-ratio / branch tables as sorted key/value
    arrays ready for ``np.interp``.
    """

    def __init__(self, char: TraceCharacterization) -> None:
        self.char = char
        self.window_sizes = np.asarray(char.window_sizes, dtype=np.float64)
        self.path_ops = np.asarray(char.path_ops, dtype=np.float64)
        self.path_weighted = np.asarray(char.path_weighted, dtype=np.float64)
        # Miss curves are keyed in blocks; branch tables in bytes.
        self.dcache = _curve_table(char.dcache_miss)
        self.icache = _curve_table(char.icache_miss)
        self.l2_data = _curve_table(char.l2_data_miss)
        self.l2_inst = _curve_table(char.l2_inst_miss)
        self.gshare = _curve_table(char.gshare_mispredict)
        self.btb = _curve_table(char.btb_taken_miss)

    def ilp(
        self,
        window: np.ndarray,
        alu_latency: np.ndarray | float,
        load_latency: np.ndarray | float,
    ) -> np.ndarray:
        """Vectorized ``TraceCharacterization.ilp`` over config arrays."""
        ws = self.window_sizes
        w = np.minimum(np.maximum(window, ws[0]), ws[-1])
        ops = np.interp(w, ws, self.path_ops)
        weighted = np.interp(w, ws, self.path_weighted)
        loads_on_path = np.maximum(
            0.0, (weighted - ops) / (NOMINAL_LOAD_WEIGHT - 1.0)
        )
        alu_on_path = np.maximum(1e-9, ops - loads_on_path)
        path_cycles = alu_on_path * alu_latency + loads_on_path * load_latency
        return w / np.maximum(path_cycles, 1e-9)

    @staticmethod
    def _lookup(table: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
        keys, values = table
        return np.interp(x, keys, values)


@dataclass(frozen=True)
class BatchEvalResult:
    """Vectorized evaluation of one characterisation x many configurations."""

    configs: tuple[MicroarchConfig, ...]
    instructions: int
    cycles: np.ndarray  # int64
    time_ns: np.ndarray
    energy_pj: np.ndarray

    @property
    def ips(self) -> np.ndarray:
        return self.instructions / (self.time_ns * 1e-9)

    @property
    def power_watts(self) -> np.ndarray:
        return self.energy_pj / self.time_ns * 1e-3

    @property
    def efficiency(self) -> np.ndarray:
        """The paper's ips^3/W metric for every configuration."""
        return self.ips**3 / self.power_watts

    @property
    def best_index(self) -> int:
        return int(np.argmax(self.efficiency))

    def __len__(self) -> int:
        return len(self.configs)

    def result(self, i: int) -> EfficiencyResult:
        return EfficiencyResult(
            instructions=self.instructions,
            cycles=int(self.cycles[i]),
            time_ns=float(self.time_ns[i]),
            energy_pj=float(self.energy_pj[i]),
        )

    def results(self) -> list[EfficiencyResult]:
        """Per-configuration scalar results, in batch order."""
        return [self.result(i) for i in range(len(self.configs))]


class BatchIntervalEvaluator(IntervalEvaluator):
    """Vectorized interval evaluator: prices N configurations in one pass.

    Subclasses :class:`IntervalEvaluator`, so the scalar ``evaluate`` stays
    available (and shares the calibration constants); ``evaluate_batch`` /
    ``evaluate_many`` are the fast paths.
    """

    def evaluate_batch(
        self,
        char: TraceCharacterization,
        configs: Sequence[MicroarchConfig] | ConfigBatch,
        tables: CharTables | None = None,
    ) -> BatchEvalResult:
        """Timing, energy and efficiency of every configuration at once.

        Args:
            char: the phase's trace characterisation.
            configs: configurations to price (packed or not).
            tables: precomputed :class:`CharTables` for ``char``; pass one
                when evaluating several batches of the same phase.
        """
        batch = configs if isinstance(configs, ConfigBatch) else ConfigBatch(configs)
        if len(batch) == 0:
            return BatchEvalResult(
                configs=(),
                instructions=char.instructions,
                cycles=np.empty(0, dtype=np.int64),
                time_ns=np.empty(0),
                energy_pj=np.empty(0),
            )
        with obs.span("batch.evaluate", configs=len(batch)):
            obs.inc("batch.configs", len(batch))
            tables = tables or CharTables(char)
            params = derive_machine_params_arrays(batch.params)
            cpi, miss = self._cpi_v(char, tables, batch, params)
            cycles = np.maximum(
                1, np.rint(char.instructions * cpi).astype(np.int64)
            )
            activity = self._activity_v(char, tables, batch, miss)
            report = account(activity, params, cycles)
        return BatchEvalResult(
            configs=batch.configs,
            instructions=char.instructions,
            cycles=cycles,
            time_ns=cycles * params.period_ns,
            energy_pj=np.asarray(report.total_pj),
        )

    def evaluate_many(
        self,
        char: TraceCharacterization,
        configs: Sequence[MicroarchConfig] | ConfigBatch,
        tables: CharTables | None = None,
    ) -> list[EfficiencyResult]:
        """Like scalar ``evaluate`` per config, computed in one pass."""
        return self.evaluate_batch(char, configs, tables=tables).results()

    # -- timing (vectorized mirrors of the scalar methods) ----------------

    def _effective_window_v(
        self, char: TraceCharacterization, batch: ConfigBatch
    ) -> np.ndarray:
        regs = np.maximum(batch.column("rf_size") - ARCH_REGS, 1).astype(
            np.float64
        )
        window = batch.column("rob_size").astype(np.float64)
        window = np.minimum(
            window, batch.column("iq_size") * self.IQ_WINDOW_FACTOR
        )
        window = np.minimum(
            window, batch.column("lsq_size") / max(char.mem_frac, 0.05)
        )
        window = np.minimum(window, regs / max(char.int_dest_frac, 0.05))
        window = np.minimum(window, regs / max(char.fp_dest_frac, 0.02))
        window = np.minimum(
            window, batch.column("branches") / max(char.branch_frac, 0.02)
        )
        return window

    def _base_ipc_v(
        self,
        char: TraceCharacterization,
        tables: CharTables,
        batch: ConfigBatch,
        params: BatchMachineParams,
        window: np.ndarray,
    ) -> np.ndarray:
        width = batch.column("width").astype(np.float64)
        ilp_cap = tables.ilp(window, params.ialu_latency_f, params.dcache_latency_f)
        fetch_cap = np.minimum(width, 1.0 / max(char.taken_branch_frac, 1e-3))
        int_ops = 1.0 - char.fp_frac - char.mem_frac
        rd_ports = batch.column("rf_rd_ports").astype(np.float64)
        wr_ports = batch.column("rf_wr_ports").astype(np.float64)
        caps = np.minimum(width, fetch_cap)
        caps = np.minimum(caps, ilp_cap)
        caps = np.minimum(caps, rd_ports / max(char.int_src_density, 0.05))
        caps = np.minimum(caps, rd_ports / max(char.fp_src_density, 0.02))
        caps = np.minimum(caps, wr_ports / max(char.int_dest_frac, 0.05))
        caps = np.minimum(caps, wr_ports / max(char.fp_dest_frac, 0.02))
        caps = np.minimum(caps, params.mem_ports / max(char.mem_frac, 0.02))
        caps = np.minimum(caps, params.int_alus / max(int_ops, 0.05))
        caps = np.minimum(caps, params.fp_units / max(char.fp_frac, 0.02))
        return np.maximum(caps, 1e-3)

    def _mispredict_rate_v(
        self, char: TraceCharacterization, tables: CharTables, batch: ConfigBatch
    ) -> np.ndarray:
        gshare = tables._lookup(
            tables.gshare, batch.column("gshare_size").astype(np.float64)
        )
        btb = tables._lookup(
            tables.btb, batch.column("btb_size").astype(np.float64)
        )
        taken_share = char.taken_branch_frac / max(char.branch_frac, 1e-6)
        return np.minimum(0.95, gshare + (1.0 - gshare) * btb * taken_share)

    def _mlp_v(
        self,
        window: np.ndarray,
        miss_density: np.ndarray,
        parallelism: np.ndarray,
    ) -> np.ndarray:
        overlap = np.minimum(
            self.MAX_MLP, window * self.MLP_WINDOW_SHARE * miss_density
        )
        return np.maximum(1.0, np.minimum(overlap, parallelism))

    def _cpi_v(
        self,
        char: TraceCharacterization,
        tables: CharTables,
        batch: ConfigBatch,
        params: BatchMachineParams,
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """CPI per config plus the miss rates reused by the activity pass."""
        window = self._effective_window_v(char, batch)
        base = 1.0 / self._base_ipc_v(char, tables, batch, params, window)

        mispredicts = char.branch_frac * self._mispredict_rate_v(
            char, tables, batch
        )
        branch_cpi = mispredicts * (
            params.mispredict_penalty + self.BRANCH_RESOLVE_EXTRA
        )

        blocks = CACHE_BLOCK_BYTES  # miss curves are keyed in blocks
        miss_l1d = tables._lookup(
            tables.dcache, (batch.column("dcache_size") // blocks).astype(np.float64)
        )
        l2_blocks = (batch.column("l2_size") // blocks).astype(np.float64)
        miss_l2d_raw = tables._lookup(tables.l2_data, l2_blocks)
        miss_l2i_raw = tables._lookup(tables.l2_inst, l2_blocks)
        miss_l2d = np.minimum(miss_l2d_raw, miss_l1d)
        l2_hit_frac = miss_l1d - miss_l2d
        parallelism = tables.ilp(window, 1.0, 1.0)
        mlp_l2 = self._mlp_v(window, char.mem_frac * miss_l1d, parallelism)
        mlp_mem = self._mlp_v(window, char.mem_frac * miss_l2d, parallelism)
        data_cpi = char.mem_frac * (
            l2_hit_frac * params.l2_latency_f / mlp_l2
            + miss_l2d * (params.l2_latency_f + params.memory_latency_f) / mlp_mem
        )

        miss_l1i = tables._lookup(
            tables.icache, (batch.column("icache_size") // blocks).astype(np.float64)
        )
        miss_l2i = np.minimum(miss_l2i_raw, miss_l1i)
        inst_cpi = char.fetch_block_frac * (
            miss_l1i * params.l2_latency_f + miss_l2i * params.memory_latency_f
        )

        miss = {
            "l1d": miss_l1d,
            "l1i": miss_l1i,
            "l2d_raw": miss_l2d_raw,
            "l2i_raw": miss_l2i_raw,
        }
        return base + branch_cpi + data_cpi + inst_cpi, miss

    # -- energy -----------------------------------------------------------

    def _activity_v(
        self,
        char: TraceCharacterization,
        tables: CharTables,
        batch: ConfigBatch,
        miss: dict[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        """Activity count arrays, in the scalar dictionary's key order."""
        n = char.instructions
        ones = np.ones(len(batch))
        dispatched = n * self.DISPATCH_OVERHEAD
        mem_ops = dispatched * char.mem_frac
        branches = dispatched * char.branch_frac

        icache_accesses = dispatched * char.fetch_block_frac
        icache_misses = icache_accesses * miss["l1i"]
        dcache_misses = mem_ops * miss["l1d"]
        l2_misses = mem_ops * miss["l2d_raw"] + icache_accesses * miss["l2i_raw"]

        fracs = char.op_fracs
        activity = {
            "icache_access": icache_accesses * ones,
            "icache_miss": icache_misses,
            "dcache_access": mem_ops * ones,
            "dcache_miss": dcache_misses,
            "l2_access": icache_misses + dcache_misses,
            "l2_miss": l2_misses,
            "gshare_access": branches * ones,
            "btb_access": branches * ones,
            "rob_write": dispatched * ones,
            "rob_read": float(n) * ones,
            "iq_write": dispatched * ones,
            "iq_wakeup": dispatched * 0.8 * ones,
            "iq_select": dispatched * ones,
            "lsq_write": mem_ops * ones,
            "lsq_search": dispatched * char.load_frac * ones,
            "rf_read_int": dispatched * char.int_src_density * ones,
            "rf_read_fp": dispatched * char.fp_src_density * ones,
            "rf_write_int": dispatched * char.int_dest_frac * ones,
            "rf_write_fp": dispatched * char.fp_dest_frac * ones,
            "ialu_op": dispatched
            * (fracs[OpClass.IALU] + fracs[OpClass.BRANCH])
            * ones,
            "imul_op": dispatched * fracs[OpClass.IMUL] * ones,
            "falu_op": dispatched * fracs[OpClass.FALU] * ones,
            "fmul_op": dispatched * fracs[OpClass.FMUL] * ones,
        }
        return {key: np.rint(value) for key, value in activity.items()}
