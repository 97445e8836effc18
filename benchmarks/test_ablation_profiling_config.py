"""Ablation: the profiling configuration choice (section III-B1).

The paper profiles on the *largest* configuration so internal resources
never saturate and hide the phase's true requirements.  Profiling on a
small corner configuration instead clips every occupancy histogram at the
small structure sizes, destroying the signal the model needs.
"""

import numpy as np
from conftest import emit

from repro.config import KIB, MicroarchConfig
from repro.counters import collect_counters
from repro.experiments.baselines import geomean
from repro.experiments.pipeline import FEATURE_EXTRACTORS
from repro.model import PhaseRecord, fast_leave_one_program_out

SMALL_PROFILING = MicroarchConfig(
    width=2, rob_size=32, iq_size=8, lsq_size=8, rf_size=40, rf_rd_ports=2,
    rf_wr_ports=1, gshare_size=1 * KIB, btb_size=1 * KIB, branches=8,
    icache_size=8 * KIB, dcache_size=8 * KIB, l2_size=256 * KIB,
    depth_fo4=12,
)


def test_ablation_profiling_config(ablation_pipeline, benchmark):
    pipe = ablation_pipeline
    extractor = FEATURE_EXTRACTORS["advanced"]

    def cv_with_profiling(config) -> float:
        key = f"{pipe.scale.tag}/ablation-profiling/{config.describe()}"

        def compute():
            records = []
            for data in pipe.all_phase_data.values():
                trace = pipe.phase_trace(data.program, data.phase_id)
                warm = pipe.programs[data.program].phase_warm_trace(
                    data.phase_id)
                counters = collect_counters(trace, config=config,
                                            warm_trace=warm)
                records.append(PhaseRecord(
                    program=data.program, phase_id=data.phase_id,
                    features=extractor.extract(counters),
                    evaluations={c: r.efficiency
                                 for c, r in data.evaluations.items()},
                ))
            predictions = fast_leave_one_program_out(
                records, max_iterations=pipe.scale.max_iterations)
            return geomean(list(pipe.suite_ratios(predictions).values()))

        return pipe.store.get_or_compute(key, compute)

    def run():
        return {
            "largest (paper)": pipe.suite_ratios(
                pipe.predictions("advanced")),
            "smallest corner": cv_with_profiling(SMALL_PROFILING),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    large = geomean(list(results["largest (paper)"].values()))
    small = results["smallest corner"]
    emit("Ablation: profiling configuration (saturation hides requirements)",
         f"  profiling on largest config:  {large:.2f}x\n"
         f"  profiling on smallest config: {small:.2f}x")
    # Saturated counters must not beat unsaturated ones.
    assert large >= small - 0.05
