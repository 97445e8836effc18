"""Generators for every table and figure of the paper's evaluation.

Each ``figureN``/``tableN`` function consumes an
:class:`~repro.experiments.pipeline.ExperimentPipeline` (cached, so
re-renders are instant) and returns a structured result carrying both the
raw series and a ``render()`` text form printing the same rows the paper
reports.  The benchmark harness under ``benchmarks/`` drives these and
records paper-vs-measured numbers in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.configuration import MicroarchConfig
from repro.config.parameters import (
    TABLE1_PARAMETERS,
    design_space_size,
    parameter_by_name,
)
from repro.config.space import DesignSpace
from repro.control.overheads import plan_set_sampling, sampling_energy_overheads
from repro.control.reconfiguration import ReconfigurationModel
from repro.experiments.baselines import geomean
from repro.experiments.pipeline import ExperimentPipeline, PhaseKey
from repro.experiments.reporting import render_bars, render_distribution, render_table
from repro.timing.characterize import characterize
from repro.timing.cycle import CycleSimulator
from repro.timing.interval import IntervalEvaluator
from repro.power.wattch import account

__all__ = [
    "figure1", "table1", "figure3", "table3", "figure4", "figure5",
    "figure6", "figure7", "figure8", "table4", "figure9", "table5",
    "section8_overheads", "evaluator_validation",
]


# ---------------------------------------------------------------------------
# Figure 1 — optimal structure sizes over time, widths 8 vs 4
# ---------------------------------------------------------------------------


@dataclass
class Figure1:
    """Per-interval optimal IQ and RF sizes at fixed widths."""

    programs: tuple[str, ...]
    widths: tuple[int, ...]
    # program -> width -> (iq sizes per interval, rf sizes per interval)
    series: dict[str, dict[int, tuple[list[int], list[int]]]]

    def render(self) -> str:
        parts = ["Figure 1: optimal IQ/RF size per interval (widths 8 vs 4)"]
        for program in self.programs:
            parts.append(f"\n{program}:")
            for width in self.widths:
                iq, rf = self.series[program][width]
                parts.append(f"  width {width}: IQ  " +
                             " ".join(f"{v:3d}" for v in iq))
                parts.append(f"  width {width}: RF  " +
                             " ".join(f"{v:3d}" for v in rf))
        return "\n".join(parts)


def figure1(
    pipeline: ExperimentPipeline,
    programs: tuple[str, ...] = ("gap", "applu", "mgrid"),
    widths: tuple[int, ...] = (8, 4),
    n_intervals: int = 24,
) -> Figure1:
    """Sweep IQ and RF per interval with the pipeline width pinned."""
    evaluator = IntervalEvaluator()
    space = DesignSpace()
    series: dict[str, dict[int, tuple[list[int], list[int]]]] = {}
    available = [p for p in programs if p in pipeline.benchmark_names]
    for name in available:
        program = pipeline.programs[name]
        count = min(n_intervals, program.n_intervals)
        series[name] = {}
        # Spread the sampled intervals across the whole run so several
        # phase segments are visible in the time series.
        indices = [round(i * (program.n_intervals - 1) / max(count - 1, 1))
                   for i in range(count)]
        chars = [characterize(program.interval_trace(i)) for i in indices]
        for width in widths:
            iq_series: list[int] = []
            rf_series: list[int] = []
            for char in chars:
                # Pinning the width implies provisioning ports to match
                # (the paper's width parameter moves the whole datapath).
                base = (pipeline.baseline_config
                        .with_value("width", width)
                        .with_value("rf_rd_ports", 2 * width)
                        .with_value("rf_wr_ports", width))

                def best_of_axis(axis: str) -> int:
                    configs = space.axis_sweep(base, axis)
                    best = max(
                        configs,
                        key=lambda c: evaluator.evaluate(char, c).efficiency,
                    )
                    return best[axis]

                iq_series.append(best_of_axis("iq_size"))
                rf_series.append(best_of_axis("rf_size"))
            series[name][width] = (iq_series, rf_series)
    return Figure1(programs=tuple(available), widths=widths, series=series)


# ---------------------------------------------------------------------------
# Table I — the design space
# ---------------------------------------------------------------------------


@dataclass
class Table1:
    rows: list[tuple[str, str, int]]
    total: int

    def render(self) -> str:
        body = [(name, values, num) for name, values, num in self.rows]
        table = render_table(
            ["Parameter", "Value Range", "Num"], body,
            title="Table I: microarchitectural design parameters",
        )
        return table + f"\nTotal design points: {self.total:,} (~627bn)"


def table1() -> Table1:
    rows = []
    for parameter in TABLE1_PARAMETERS:
        values = parameter.values
        if len(values) <= 4:
            text = ", ".join(str(v) for v in values)
        else:
            step = values[1] - values[0]
            geometric = values[1] == values[0] * 2
            text = (f"{values[0]} -> {values[-1]} : "
                    + ("2*" if geometric else f"{step}+"))
        rows.append((parameter.name, text, parameter.cardinality))
    return Table1(rows=rows, total=design_space_size())


# ---------------------------------------------------------------------------
# Figure 3 — LSQ counters and efficiency curves for four phases
# ---------------------------------------------------------------------------


@dataclass
class Figure3:
    phases: dict[str, dict]

    def render(self) -> str:
        parts = ["Figure 3: load/store queue counters for four phases"]
        for label, data in self.phases.items():
            parts.append(f"\n{label}: best LSQ = {data['best_lsq']}, "
                         f"spec = {data['speculative_frac']:.0%}, "
                         f"mis-spec = {data['misspeculated_frac']:.0%}")
            hist = data["usage_histogram"]
            parts.append("  LSQ usage:    " +
                         " ".join(f"{v:.2f}" for v in hist))
            curve = data["efficiency_curve"]
            parts.append("  eff vs LSQ:   " + " ".join(
                f"{size}:{value:.2f}" for size, value in curve))
        return "\n".join(parts)


def figure3(
    pipeline: ExperimentPipeline,
    phases: tuple[PhaseKey, ...] = (
        ("mgrid", 0), ("swim", 0), ("parser", 0), ("vortex", 0),
    ),
) -> Figure3:
    """LSQ usage histograms, speculation counters and efficiency-vs-LSQ."""
    evaluator = IntervalEvaluator()
    space = DesignSpace()
    out: dict[str, dict] = {}
    for key in phases:
        if key[0] not in pipeline.benchmark_names:
            continue
        data = pipeline.all_phase_data[key]
        best, _ = data.best
        curve = []
        for config in space.axis_sweep(best, "lsq_size"):
            result = data.evaluations.get(config)
            if result is None:
                result = evaluator.evaluate(data.characterization, config)
            curve.append((config.lsq_size, result.efficiency))
        peak = max(v for _, v in curve)
        curve = [(s, v / peak) for s, v in curve]
        best_lsq = max(curve, key=lambda sv: sv[1])[0]
        out[f"{key[0]}.p{key[1]}"] = {
            "best_lsq": best_lsq,
            "usage_histogram": data.counters.lsq_usage.normalized().tolist(),
            "speculative_frac": data.counters.lsq_speculative_frac,
            "misspeculated_frac": data.counters.lsq_misspeculated_frac,
            "efficiency_curve": curve,
        }
    return Figure3(phases=out)


# ---------------------------------------------------------------------------
# Table III — the baseline configuration
# ---------------------------------------------------------------------------


@dataclass
class Table3:
    config: MicroarchConfig

    def render(self) -> str:
        values = self.config.as_dict()
        return render_table(
            list(values.keys()),
            [list(values.values())],
            title="Table III: best overall static configuration (baseline)",
        )


def table3(pipeline: ExperimentPipeline) -> Table3:
    return Table3(config=pipeline.baseline_config)


# ---------------------------------------------------------------------------
# Figure 4 — model vs best static, basic and advanced counters
# ---------------------------------------------------------------------------


@dataclass
class Figure4:
    advanced: dict[str, float]
    basic: dict[str, float]

    @property
    def advanced_average(self) -> float:
        return geomean(list(self.advanced.values()))

    @property
    def basic_average(self) -> float:
        return geomean(list(self.basic.values()))

    def render(self) -> str:
        names = list(self.advanced)
        rows = [
            (name, f"{self.basic[name]:.2f}x", f"{self.advanced[name]:.2f}x")
            for name in names
        ]
        rows.append(("AVERAGE", f"{self.basic_average:.2f}x",
                     f"{self.advanced_average:.2f}x"))
        table = render_table(
            ["benchmark", "basic counters", "advanced counters"], rows,
            title=("Figure 4: energy-efficiency vs best overall static "
                   "configuration (paper: 1.3x basic, 2x advanced)"),
        )
        bars = render_bars(names, [self.advanced[n] for n in names],
                           title="\nadvanced counters:")
        return table + "\n" + bars


def figure4(pipeline: ExperimentPipeline) -> Figure4:
    return Figure4(
        advanced=pipeline.suite_ratios(pipeline.predictions("advanced")),
        basic=pipeline.suite_ratios(pipeline.predictions("basic")),
    )


# ---------------------------------------------------------------------------
# Figure 5 — performance and energy breakdown
# ---------------------------------------------------------------------------


@dataclass
class Figure5:
    performance: dict[str, float]  # ips ratio vs baseline
    energy: dict[str, float]  # energy ratio vs baseline (lower is better)

    @property
    def average_speedup(self) -> float:
        return geomean(list(self.performance.values()))

    @property
    def average_energy_ratio(self) -> float:
        return geomean(list(self.energy.values()))

    def render(self) -> str:
        rows = [
            (name, f"{self.performance[name]:.2f}x",
             f"{(1 - self.energy[name]) * 100:+.0f}%")
            for name in self.performance
        ]
        rows.append((
            "AVERAGE", f"{self.average_speedup:.2f}x",
            f"{(1 - self.average_energy_ratio) * 100:+.0f}%",
        ))
        return render_table(
            ["benchmark", "performance", "energy saved"], rows,
            title=("Figure 5: performance and energy vs baseline "
                   "(paper: +15% performance, -21% energy)"),
        )


def figure5(pipeline: ExperimentPipeline) -> Figure5:
    predictions = pipeline.predictions("advanced")
    performance: dict[str, float] = {}
    energy: dict[str, float] = {}
    for name in pipeline.benchmark_names:
        keys = [key for key in pipeline.phase_keys if key[0] == name]
        perf_ratios = []
        energy_ratios = []
        for key in keys:
            model = pipeline.evaluate(key, predictions[key])
            base = pipeline.evaluate(key, pipeline.baseline_config)
            perf_ratios.append(model.ips / base.ips)
            energy_ratios.append(model.energy_pj / base.energy_pj)
        performance[name] = geomean(perf_ratios)
        energy[name] = geomean(energy_ratios)
    return Figure5(performance=performance, energy=energy)


# ---------------------------------------------------------------------------
# Figure 6 — model vs specialised static vs oracle dynamic
# ---------------------------------------------------------------------------


@dataclass
class Figure6:
    model: dict[str, float]
    per_program: dict[str, float]
    oracle: dict[str, float]

    @property
    def averages(self) -> tuple[float, float, float]:
        return (
            geomean(list(self.model.values())),
            geomean(list(self.per_program.values())),
            geomean(list(self.oracle.values())),
        )

    @property
    def fraction_of_available(self) -> float:
        """(model - 1) / (oracle - 1): paper reports 74%."""
        model_avg, _, oracle_avg = self.averages
        if oracle_avg <= 1.0:
            return 1.0
        return (model_avg - 1.0) / (oracle_avg - 1.0)

    def render(self) -> str:
        rows = [
            (name, f"{self.per_program[name]:.2f}x",
             f"{self.model[name]:.2f}x", f"{self.oracle[name]:.2f}x")
            for name in self.model
        ]
        model_avg, spec_avg, oracle_avg = self.averages
        rows.append(("AVERAGE", f"{spec_avg:.2f}x", f"{model_avg:.2f}x",
                     f"{oracle_avg:.2f}x"))
        table = render_table(
            ["benchmark", "per-program static", "our model", "best dynamic"],
            rows,
            title=("Figure 6: limit comparison, normalised to best overall "
                   "static (paper: 1.5x / 2x / 2.7x)"),
        )
        return (table + f"\nfraction of available improvement achieved: "
                        f"{self.fraction_of_available:.0%} (paper: 74%)")


def figure6(pipeline: ExperimentPipeline) -> Figure6:
    return Figure6(
        model=pipeline.suite_ratios(pipeline.predictions("advanced")),
        per_program=pipeline.suite_ratios(pipeline.per_program_assignment()),
        oracle=pipeline.suite_ratios(pipeline.oracle),
    )


# ---------------------------------------------------------------------------
# Figure 7 — per-phase distribution vs baseline (a) and vs best (b)
# ---------------------------------------------------------------------------


@dataclass
class Figure7:
    ratios_vs_baseline: list[float]
    ratios_vs_best: list[float]

    @property
    def frac_better_than_baseline(self) -> float:
        return float(np.mean(np.asarray(self.ratios_vs_baseline) > 1.0))

    @property
    def frac_at_least_2x(self) -> float:
        return float(np.mean(np.asarray(self.ratios_vs_baseline) >= 2.0))

    @property
    def median_fraction_of_best(self) -> float:
        return float(np.median(self.ratios_vs_best))

    @property
    def frac_better_than_sampled_best(self) -> float:
        return float(np.mean(np.asarray(self.ratios_vs_best) > 1.0))

    def _distribution(self, values: list[float], edges: list[float]
                      ) -> tuple[list[str], list[float], list[float]]:
        array = np.asarray(values)
        labels, fracs, ecdf = [], [], []
        for low, high in zip(edges[:-1], edges[1:]):
            labels.append(f"[{low:g},{high:g})")
            fracs.append(float(np.mean((array >= low) & (array < high))))
            ecdf.append(float(np.mean(array >= low)))
        return labels, fracs, ecdf

    def render(self) -> str:
        labels_a, fracs_a, ecdf_a = self._distribution(
            self.ratios_vs_baseline,
            [0, 0.5, 1.0, 1.5, 2, 3, 4, 6, 8, 16, 64],
        )
        labels_b, fracs_b, ecdf_b = self._distribution(
            self.ratios_vs_best, [0, 0.25, 0.5, 0.74, 0.9, 1.0, 1.1, 2.0],
        )
        part_a = render_distribution(
            labels_a, fracs_a, ecdf_a,
            title=("Figure 7(a): per-phase efficiency vs baseline "
                   f"(better than baseline: "
                   f"{self.frac_better_than_baseline:.0%}, paper: 80%; "
                   f">=2x: {self.frac_at_least_2x:.0%}, paper: 33%)"),
        )
        part_b = render_distribution(
            labels_b, fracs_b, ecdf_b,
            title=("\nFigure 7(b): per-phase efficiency vs sampled best "
                   f"(median: {self.median_fraction_of_best:.2f}, paper: "
                   f"0.74; beats sampled best: "
                   f"{self.frac_better_than_sampled_best:.0%}, paper: 9%)"),
        )
        return part_a + "\n" + part_b


def figure7(pipeline: ExperimentPipeline) -> Figure7:
    predictions = pipeline.predictions("advanced")
    vs_baseline: list[float] = []
    vs_best: list[float] = []
    for key in pipeline.phase_keys:
        model = pipeline.evaluate(key, predictions[key]).efficiency
        base = pipeline.evaluate(key, pipeline.baseline_config).efficiency
        best = pipeline.evaluate(key, pipeline.oracle[key]).efficiency
        vs_baseline.append(model / base)
        vs_best.append(model / best)
    return Figure7(ratios_vs_baseline=vs_baseline, ratios_vs_best=vs_best)


# ---------------------------------------------------------------------------
# Figure 8 — per-parameter fixed-value efficiency distributions (violins)
# ---------------------------------------------------------------------------


@dataclass
class Figure8:
    # parameter -> value -> (best share %, quartiles of best-with-value/best)
    distributions: dict[str, dict[int, dict[str, float]]]

    def render(self) -> str:
        parts = ["Figure 8: best achievable efficiency with one parameter "
                 "fixed (fraction of per-phase optimum)"]
        for parameter, per_value in self.distributions.items():
            parts.append(f"\n{parameter}:")
            for value, stats in per_value.items():
                parts.append(
                    f"  {value:>8}: best for {stats['best_share']:5.1%} of "
                    f"phases | min={stats['min']:.2f} q1={stats['q1']:.2f} "
                    f"median={stats['median']:.2f} q3={stats['q3']:.2f}"
                )
        return "\n".join(parts)


def figure8(
    pipeline: ExperimentPipeline,
    parameters: tuple[str, ...] = ("width", "iq_size", "icache_size"),
) -> Figure8:
    distributions: dict[str, dict[int, dict[str, float]]] = {}
    phase_data = pipeline.all_phase_data
    for name in parameters:
        parameter = parameter_by_name(name)
        per_value: dict[int, list[float]] = {v: [] for v in parameter.values}
        best_counts: dict[int, int] = {v: 0 for v in parameter.values}
        for data in phase_data.values():
            by_value: dict[int, float] = {}
            for config, result in data.evaluations.items():
                value = config[name]
                current = by_value.get(value)
                if current is None or result.efficiency > current:
                    by_value[value] = result.efficiency
            best_eff = max(by_value.values())
            best_value = max(by_value, key=by_value.get)
            best_counts[best_value] = best_counts.get(best_value, 0) + 1
            for value, eff in by_value.items():
                per_value.setdefault(value, []).append(eff / best_eff)
        n_phases = len(phase_data)
        distributions[name] = {}
        for value in parameter.values:
            samples = np.asarray(per_value.get(value) or [0.0])
            distributions[name][value] = {
                "best_share": best_counts.get(value, 0) / n_phases,
                "min": float(samples.min()),
                "q1": float(np.percentile(samples, 25)),
                "median": float(np.median(samples)),
                "q3": float(np.percentile(samples, 75)),
            }
    return Figure8(distributions=distributions)


# ---------------------------------------------------------------------------
# Table IV / Figure 9 — set sampling and its energy overheads
# ---------------------------------------------------------------------------


@dataclass
class Table4:
    sampled_sets: dict[tuple[str, str], int]

    def render(self) -> str:
        rows = []
        for feature in ("set_reuse", "block_reuse"):
            rows.append((
                feature,
                self.sampled_sets[("icache", feature)],
                self.sampled_sets[("dcache", feature)],
                self.sampled_sets[("l2", feature)],
            ))
        return render_table(
            ["Feature type", "Insn. cache", "Data cache", "L2 cache"], rows,
            title="Table IV: sets sampled per cache per feature type",
        )


def table4(pipeline: ExperimentPipeline, max_traces: int = 12,
           fidelity_threshold: float = 0.85) -> Table4:
    keys = pipeline.phase_keys[:: max(1, len(pipeline.phase_keys)
                                      // max_traces)][:max_traces]
    traces = [pipeline.phase_trace(*key) for key in keys]
    plan = plan_set_sampling(traces, fidelity_threshold=fidelity_threshold)
    return Table4(sampled_sets=plan.sampled_sets)


@dataclass
class Figure9:
    overheads: dict[tuple[str, str], dict[str, float]]

    @property
    def max_dynamic(self) -> float:
        return max(v["dynamic"] for v in self.overheads.values())

    @property
    def max_leakage(self) -> float:
        return max(v["leakage"] for v in self.overheads.values())

    def render(self) -> str:
        rows = [
            (cache, feature, f"{v['dynamic']:.2%}", f"{v['leakage']:.2%}")
            for (cache, feature), v in sorted(self.overheads.items())
        ]
        table = render_table(
            ["cache", "feature", "dynamic overhead", "leakage overhead"],
            rows,
            title=("Figure 9: energy overheads of reuse-distance gathering "
                   "(paper max: 1.55% dynamic / 1.4% leakage)"),
        )
        return (table + f"\nmax dynamic: {self.max_dynamic:.2%}  "
                        f"max leakage: {self.max_leakage:.2%}")


def figure9(pipeline: ExperimentPipeline, table4_result: Table4 | None = None
            ) -> Figure9:
    plan = table4_result or table4(pipeline)
    from repro.control.overheads import CacheSamplingPlan

    overheads = sampling_energy_overheads(
        CacheSamplingPlan(sampled_sets=plan.sampled_sets)
    )
    return Figure9(overheads={
        key: {"dynamic": value.dynamic_frac, "leakage": value.leakage_frac}
        for key, value in overheads.items()
    })


# ---------------------------------------------------------------------------
# Table V — reconfiguration overheads
# ---------------------------------------------------------------------------


@dataclass
class Table5:
    cycles: dict[str, int]

    def render(self) -> str:
        order = ["width", "rf", "gshare", "btb", "rob", "iq", "lsq",
                 "icache", "dcache", "l2"]
        rows = [(name, self.cycles[name]) for name in order
                if name in self.cycles]
        return render_table(
            ["Processor structure", "Cycle overhead"], rows,
            title=("Table V: reconfiguration overhead per structure "
                   "(paper: bpred 154 ... L2 18322)"),
        )


def table5(pipeline: ExperimentPipeline | None = None) -> Table5:
    reference = (pipeline.baseline_config if pipeline is not None
                 else None)
    if reference is None:
        from repro.config.configuration import PROFILING_CONFIG
        reference = PROFILING_CONFIG
    return Table5(cycles=ReconfigurationModel().table5(reference))


# ---------------------------------------------------------------------------
# Section VIII — end-to-end runtime overheads
# ---------------------------------------------------------------------------


@dataclass
class Section8:
    reconfiguration_rate: float
    time_overhead: float
    energy_overhead: float
    programs: tuple[str, ...]

    def render(self) -> str:
        return "\n".join([
            "Section VIII: controller runtime overheads",
            f"  reconfiguration rate: {self.reconfiguration_rate:.2f} per "
            f"interval (paper: ~0.1, i.e. once every 10 intervals)",
            f"  time overhead: {self.time_overhead:.2%} (paper: ~3% per "
            f"reconfigured interval, amortised below 1%)",
            f"  energy overhead: {self.energy_overhead:.2%}",
            f"  programs: {', '.join(self.programs)}",
        ])


def section8_overheads(
    pipeline: ExperimentPipeline,
    programs: tuple[str, ...] | None = None,
    max_intervals: int = 40,
) -> Section8:
    """The paper's controller (the softmax policy under the ``paper``
    scenario's Table V charges) run through the arena."""
    from repro.control.arena import DEFAULT_SCENARIOS, SoftmaxPolicy
    from repro.experiments.arena import build_arena

    names = programs or pipeline.benchmark_names[:4]
    arena = build_arena(pipeline, max_intervals=max_intervals,
                        use_store=False)
    policy = SoftmaxPolicy(pipeline.full_predictor("advanced"))
    paper = next(s for s in DEFAULT_SCENARIOS if s.name == "paper")
    time_total = 0.0
    energy_total = 0.0
    time_overhead = 0.0
    energy_overhead = 0.0
    reconfigs = 0
    intervals = 0
    for name in names:
        report = arena.run_policy(policy, name, paper)
        time_total += report.time_ns
        energy_total += report.energy_pj
        time_overhead += report.overhead_time_ns
        energy_overhead += report.overhead_energy_pj
        reconfigs += report.reconfigurations
        intervals += report.intervals
    return Section8(
        reconfiguration_rate=reconfigs / max(intervals, 1),
        time_overhead=time_overhead / (time_total - time_overhead),
        energy_overhead=energy_overhead / (energy_total - energy_overhead),
        programs=tuple(names),
    )


# ---------------------------------------------------------------------------
# Validation — cycle model vs interval evaluator
# ---------------------------------------------------------------------------


@dataclass
class EvaluatorValidation:
    rank_correlations: dict[str, float]
    ipc_log_errors: dict[str, float]

    @property
    def mean_rank_correlation(self) -> float:
        return float(np.mean(list(self.rank_correlations.values())))

    def render(self) -> str:
        rows = [
            (name, f"{self.rank_correlations[name]:.2f}",
             f"{self.ipc_log_errors[name]:.2f}")
            for name in self.rank_correlations
        ]
        table = render_table(
            ["phase", "rank correlation", "mean |log2 ipc error|"], rows,
            title=("Evaluator validation: cycle model vs interval "
                   "evaluator across configurations"),
        )
        return (table + f"\nmean rank correlation: "
                        f"{self.mean_rank_correlation:.2f}")


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    ranks_a = np.argsort(np.argsort(a)).astype(float)
    ranks_b = np.argsort(np.argsort(b)).astype(float)
    ca = ranks_a - ranks_a.mean()
    cb = ranks_b - ranks_b.mean()
    denom = float(np.sqrt((ca**2).sum() * (cb**2).sum()))
    return float((ca * cb).sum() / denom) if denom else 0.0


def evaluator_validation(
    pipeline: ExperimentPipeline,
    n_phases: int = 6,
    n_configs: int = 12,
) -> EvaluatorValidation:
    """Simulate a config sample with both evaluators; compare rankings."""
    evaluator = IntervalEvaluator()
    keys = pipeline.phase_keys[:: max(1, len(pipeline.phase_keys) // n_phases)]
    keys = keys[:n_phases]
    correlations: dict[str, float] = {}
    log_errors: dict[str, float] = {}
    for key in keys:
        data = pipeline.all_phase_data[key]
        trace = pipeline.phase_trace(*key)
        configs = list(data.evaluations)[:n_configs]
        cycle_eff = []
        fast_eff = []
        errors = []
        for config in configs:
            simulator = CycleSimulator(config)
            result = simulator.run(trace)
            report = account(result.activity, simulator.params, result.cycles)
            cycle_ips = result.ips
            cycle_eff.append(cycle_ips**3 / report.power_watts)
            fast = data.evaluations[config]
            fast_eff.append(fast.efficiency)
            errors.append(abs(np.log2(fast.ipc / result.ipc)))
        label = f"{key[0]}.p{key[1]}"
        correlations[label] = _spearman(np.asarray(cycle_eff),
                                        np.asarray(fast_eff))
        log_errors[label] = float(np.mean(errors))
    return EvaluatorValidation(rank_correlations=correlations,
                               ipc_log_errors=log_errors)
