"""End-to-end experiment pipeline.

Orchestrates the whole reproduction for a given
:class:`~repro.experiments.scale.ReproScale`:

1. build the synthetic suite and extract each benchmark's phases;
2. profile every phase on the profiling configuration (Table II counters,
   both feature sets);
3. characterise every phase trace for the fast evaluator;
4. run the section V-C sampling protocol per phase (shared random pool +
   neighbours + one-at-a-time sweep);
5. derive baselines (best static, per-program static, oracle dynamic);
6. train and cross-validate the predictor (leave-one-program-out).

Every expensive step is cached in a :class:`DataStore`, so figures re-run
from disk instantly.  Per-phase work (profile + characterize + sweep) is
independent across phases, so :meth:`ExperimentPipeline.prefetch_phases`
can fan it out over a ``ProcessPoolExecutor``: workers write through the
(atomic, checksummed) store and the parent then re-reads pure cache
hits.  Set the ``REPRO_WORKERS`` environment variable (or the
``workers`` constructor argument) to enable the fan-out; the default of
1 keeps everything in-process.

The fan-out is fault tolerant (see :mod:`repro.experiments.runner`):
crashed or hung workers are retried on a rebuilt pool with jittered
exponential backoff (``REPRO_MAX_RETRIES`` retries, ``REPRO_PHASE_TIMEOUT``
seconds per phase), repeated pool failures degrade to in-process serial
execution, every attempt is journalled (``RunJournal``) so interrupted
builds resume where they stopped, and persistently-failing phases are
quarantined — reported at the end via :class:`QuarantinedPhaseError` —
instead of blocking the rest of the suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.config.configuration import MicroarchConfig
from repro.config.space import DesignSpace
from repro.counters.collector import PhaseCounters, collect_counters
from repro.counters.features import (
    AdvancedFeatureExtractor,
    BasicFeatureExtractor,
)
from repro.experiments.baselines import (
    best_static_config,
    best_static_per_program,
    geomean,
    oracle_configs,
)
from repro.dse import (
    CandidateSampler,
    DseSettings,
    EncodedPool,
    ScreenResult,
    ScreenStats,
)
from repro.experiments.datastore import DataStore
from repro.experiments.errors import QuarantinedPhaseError
from repro.experiments.journal import RunJournal
from repro.experiments.runner import PhaseRunner, RetryPolicy
from repro.experiments.scale import ReproScale
from repro.experiments.sweeps import run_phase_sweep
from repro.model.training import PhaseRecord
from repro.power.metrics import EfficiencyResult
from repro.timing.batch import BatchIntervalEvaluator
from repro.timing.characterize import TraceCharacterization, characterize
from repro.util import stable_hash
from repro.workloads.program import Program
from repro.workloads.suite import build_program, spec2000_suite
from repro.workloads.trace import Trace

__all__ = ["PhaseData", "ExperimentPipeline"]

PhaseKey = tuple[str, int]

FEATURE_EXTRACTORS = {
    "advanced": AdvancedFeatureExtractor(),
    "basic": BasicFeatureExtractor(),
}


@dataclass
class PhaseData:
    """Everything gathered for one phase."""

    program: str
    phase_id: int
    counters: PhaseCounters
    characterization: TraceCharacterization
    features: dict[str, np.ndarray]
    evaluations: dict[MicroarchConfig, EfficiencyResult]

    @property
    def key(self) -> PhaseKey:
        return (self.program, self.phase_id)

    @property
    def best(self) -> tuple[MicroarchConfig, EfficiencyResult]:
        config = max(self.evaluations,
                     key=lambda c: self.evaluations[c].efficiency)
        return config, self.evaluations[config]


class ExperimentPipeline:
    """Cached, end-to-end driver for every figure and table."""

    def __init__(
        self,
        scale: ReproScale | None = None,
        store: DataStore | None = None,
        verbose: bool = False,
        workers: int | None = None,
        train_workers: int | None = None,
        dse: DseSettings | None = None,
    ) -> None:
        self.scale = scale or ReproScale.default()
        self.store = store or DataStore()
        self.verbose = verbose
        if dse is None:
            dse_pool_env = os.environ.get("REPRO_DSE_POOL", "")
            if dse_pool_env.strip():
                dse = DseSettings(pool_size=int(dse_pool_env))
        self.dse = dse
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "1"))
        self.workers = max(1, workers)
        if train_workers is None:
            train_workers = int(
                os.environ.get("REPRO_TRAIN_WORKERS", str(self.workers)))
        self.train_workers = max(1, train_workers)
        self.evaluator = BatchIntervalEvaluator()
        self._extra_evaluations: dict[PhaseKey, dict[MicroarchConfig,
                                                     EfficiencyResult]] = {}

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[pipeline] {message}", flush=True)

    # -- workloads -------------------------------------------------------------

    @cached_property
    def profiles(self):
        return spec2000_suite(self.scale.benchmarks)

    @cached_property
    def benchmark_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.profiles)

    @cached_property
    def programs(self) -> dict[str, Program]:
        return {
            profile.name: build_program(
                profile,
                n_phases=self.scale.n_phases,
                n_intervals=max(10, 10 * self.scale.n_phases),
                interval_length=self.scale.phase_trace_length,
                seed=self.scale.seed,
            )
            for profile in self.profiles
        }

    def phase_trace(self, program: str, phase_id: int) -> Trace:
        return self.programs[program].phase_trace(phase_id)

    @property
    def phase_keys(self) -> list[PhaseKey]:
        return [
            (name, phase_id)
            for name in self.benchmark_names
            for phase_id in range(self.scale.n_phases)
        ]

    # -- design space -------------------------------------------------------------

    @cached_property
    def pool(self) -> tuple[MicroarchConfig, ...]:
        """The shared uniform random sample (stage 1 of section V-C)."""
        space = DesignSpace(seed=stable_hash(self.scale.tag, "pool"))
        return tuple(space.random_sample(self.scale.pool_size))

    @cached_property
    def dse_pool(self) -> EncodedPool | None:
        """The shared encoded screening pool (``None`` unless DSE is on).

        One pool for every phase, like the stage-1 sample: screened
        evaluations then cover a common candidate set across phases,
        and workers rebuild it bit-identically from the seed parts.
        """
        if self.dse is None:
            return None
        sampler = CandidateSampler("pipeline", self.scale.tag,
                                   self.dse.pool_size)
        return sampler.sample(self.dse.pool_size)

    # -- per-phase data -------------------------------------------------------------

    def _phase_cache_key(self, program: str, phase_id: int) -> str:
        if self.dse is not None:
            # The DSE path adds screened evaluations to the phase data,
            # so its cache entries live under the settings fingerprint —
            # toggling the path (or resizing the pool) never serves
            # stale evaluation sets.
            return self.store.versioned_key(
                self.scale.tag, "phase-dse", self.dse.fingerprint(),
                program, phase_id)
        return self.store.versioned_key(self.scale.tag, "phase", program,
                                        phase_id)

    def _dse_screen_key(self, program: str, phase_id: int) -> str:
        """Cache key for one phase's raw screen result (see ``dse_stats``)."""
        assert self.dse is not None and self.dse_pool is not None
        return self.store.versioned_key(
            self.scale.tag, "dse-screen", self.dse.fingerprint(),
            self.dse_pool.digest()[:12], program, phase_id)

    @property
    def _training_tag(self) -> str:
        """The training inputs ``ReproScale.tag`` leaves out (the tag
        seeds the pool and the sweeps, so it cannot grow them)."""
        scale = self.scale
        return (f"t{scale.threshold}-r{scale.regularization}"
                f"-i{scale.max_iterations}")

    def _prediction_key(self, feature_set: str) -> str:
        return self.store.versioned_key(self.scale.tag, "predictions",
                                        feature_set, self._training_tag)

    def _full_predictor_key(self, feature_set: str) -> str:
        return self.store.versioned_key(self.scale.tag, "full-predictor",
                                        feature_set, self._training_tag)

    def phase_data(self, program: str, phase_id: int) -> PhaseData:
        key = self._phase_cache_key(program, phase_id)

        def compute() -> PhaseData:
            self._log(f"profiling + sweeping {program} phase {phase_id}")
            if os.environ.get("REPRO_FAULTS"):  # fault-injection hook
                from repro.testing.faults import inject

                inject("compute", f"{program}/{phase_id}")
            with obs.span("phase.compute", program=program, phase=phase_id):
                trace = self.phase_trace(program, phase_id)
                warm = self.programs[program].phase_warm_trace(phase_id)
                with obs.span("phase.profile"):
                    counters = collect_counters(trace, warm_trace=warm)
                    features = {
                        name: extractor.extract(counters)
                        for name, extractor in FEATURE_EXTRACTORS.items()
                    }
                with obs.span("phase.characterize"):
                    char = characterize(trace, warm_trace=warm)
                with obs.span("phase.sweep"):
                    screen_cache = None
                    if self.dse_pool is not None:
                        screen_cache = (
                            self.store,
                            self._dse_screen_key(program, phase_id))
                    sweep = run_phase_sweep(
                        char,
                        self.pool,
                        neighbour_count=self.scale.neighbour_count,
                        seed=stable_hash(self.scale.tag, program, phase_id,
                                         "sweep"),
                        evaluator=self.evaluator,
                        dse_pool=self.dse_pool,
                        screen_cache=screen_cache,
                    )
            return PhaseData(
                program=program,
                phase_id=phase_id,
                counters=counters,
                characterization=char,
                features=features,
                evaluations=sweep.evaluations,
            )

        return self.store.get_or_compute(key, compute)

    def dse_stats(self, program: str, phase_id: int) -> ScreenStats | None:
        """Screening statistics for one phase, or ``None`` off the DSE path.

        Served from the cached screen result
        (:meth:`~repro.dse.SuccessiveHalvingScreener.screen` writes it
        during :meth:`phase_data`), so this never triggers a screen.
        """
        if self.dse is None:
            return None
        key = self._dse_screen_key(program, phase_id)
        if not self.store.contains(key):
            return None
        screen = self.store.get(key)
        assert isinstance(screen, ScreenResult)
        return screen.stats

    @cached_property
    def journal(self) -> RunJournal:
        """The run journal for this store + scale (JSONL, append-only)."""
        return RunJournal.for_store(self.store, self.scale.tag)

    def phase_runner(
        self,
        workers: int | None = None,
        policy: RetryPolicy | None = None,
        timeout: float | None = None,
    ) -> PhaseRunner:
        """A fault-tolerant runner wired to this pipeline's store/journal."""
        workers = self.workers if workers is None else max(1, workers)
        store_dir = str(self.store.directory)
        return PhaseRunner(
            partial(_phase_worker_task, self.scale, store_dir, self.dse),
            serial_task=lambda key: self.phase_data(*key),
            workers=workers,
            policy=policy,
            timeout=timeout,
            journal=self.journal,
            verify=lambda key: self.store.contains(self._phase_cache_key(*key)),
            invalidate=lambda key: self.store.delete(self._phase_cache_key(*key)),
            describe=lambda key: f"{key[0]}/{key[1]}",
            log=self._log,
        )

    def prefetch_phases(
        self,
        keys: Iterable[PhaseKey] | None = None,
        workers: int | None = None,
        policy: RetryPolicy | None = None,
        timeout: float | None = None,
        raise_on_quarantine: bool = True,
    ) -> list[PhaseKey]:
        """Compute every missing phase cache entry, fanned out over processes.

        Each worker process runs the full profile → characterize → sweep
        chain for one phase and writes the result through the store's
        atomic, checksummed ``put``; the parent then only re-reads cache
        hits.  Execution is fault tolerant: worker crashes, hangs and
        transient errors are retried (``REPRO_MAX_RETRIES``,
        ``REPRO_PHASE_TIMEOUT``), corrupt cache entries are invalidated
        and recomputed, every attempt lands in :attr:`journal`, and an
        interrupted call resumes exactly where it stopped.  Returns the
        keys that were actually computed (missing before the call).

        Phases that keep failing are quarantined *after* everything else
        has been computed; they are reported via
        :class:`QuarantinedPhaseError` (or just journalled, with
        ``raise_on_quarantine=False``) and skipped on subsequent runs
        until :meth:`RunJournal.clear_quarantine` is called.

        Args:
            keys: phases to prefetch (default: all of ``phase_keys``).
            workers: process count; defaults to the pipeline's ``workers``
                (the ``REPRO_WORKERS`` environment variable).  With one
                worker the phases are computed serially in-process.
            policy: retry budget/backoff override.
            timeout: per-phase seconds override.
            raise_on_quarantine: raise if any phase was quarantined
                (including by a previous run).
        """
        keys = list(keys) if keys is not None else self.phase_keys
        # contains() verifies checksums, so corrupt entries are
        # rescheduled into the fan-out rather than discovered (and
        # recomputed serially) by the parent afterwards.
        missing = [
            key for key in keys
            if not self.store.contains(self._phase_cache_key(*key))
        ]
        if not missing:
            return []
        workers = self.workers if workers is None else max(1, workers)
        workers = min(workers, len(missing))
        if workers > 1:
            self._log(
                f"prefetching {len(missing)} phases on {workers} workers")
        runner = self.phase_runner(workers=workers, policy=policy,
                                   timeout=timeout)
        with obs.span("pipeline.prefetch", missing=len(missing),
                      workers=workers):
            outcomes = runner.run(missing)
        obs.flush()  # metrics gathered so far survive even a later crash
        computed = [key for key, outcome in outcomes.items()
                    if outcome.status == "computed"]
        not_done = sorted(
            runner.describe(key) for key, outcome in outcomes.items()
            if outcome.status in ("quarantined", "skipped"))
        if not_done and raise_on_quarantine:
            raise QuarantinedPhaseError(not_done, self.journal.path)
        return computed

    @cached_property
    def all_phase_data(self) -> dict[PhaseKey, PhaseData]:
        if self.workers > 1:
            self.prefetch_phases()
        return {
            key: self.phase_data(*key) for key in self.phase_keys
        }

    @cached_property
    def evaluations(self) -> dict[PhaseKey, dict[MicroarchConfig,
                                                 EfficiencyResult]]:
        return {key: data.evaluations
                for key, data in self.all_phase_data.items()}

    # -- evaluation of arbitrary configs -----------------------------------------

    def evaluate(self, key: PhaseKey, config: MicroarchConfig) -> EfficiencyResult:
        """Efficiency of ``config`` on phase ``key`` (memoised)."""
        data = self.all_phase_data[key]
        result = data.evaluations.get(config)
        if result is not None:
            return result
        extra = self._extra_evaluations.setdefault(key, {})
        result = extra.get(config)
        if result is None:
            result = self.evaluator.evaluate(data.characterization, config)
            extra[config] = result
        return result

    # -- baselines --------------------------------------------------------------

    @cached_property
    def baseline_config(self) -> MicroarchConfig:
        """Best overall static configuration (Table III)."""
        return best_static_config(self.pool, self.evaluations)

    @cached_property
    def per_program_static(self) -> dict[str, MicroarchConfig]:
        return best_static_per_program(self.pool, self.evaluations)

    @cached_property
    def oracle(self) -> dict[PhaseKey, MicroarchConfig]:
        return oracle_configs(self.evaluations)

    # -- model ------------------------------------------------------------------

    def phase_records(self, feature_set: str) -> list[PhaseRecord]:
        return [
            PhaseRecord(
                program=data.program,
                phase_id=data.phase_id,
                features=data.features[feature_set],
                evaluations={c: r.efficiency
                             for c, r in data.evaluations.items()},
            )
            for data in self.all_phase_data.values()
        ]

    def predictions(self, feature_set: str = "advanced"
                    ) -> dict[PhaseKey, MicroarchConfig]:
        """Leave-one-program-out predictions for every phase (cached).

        Cross-validation runs through
        :func:`~repro.model.fastcv.fast_leave_one_program_out`: good
        sets and parameter datasets are assembled once, the 364
        (fold, parameter) fits fan out over ``train_workers`` processes
        (``REPRO_TRAIN_WORKERS``), and each trained fold's weights are
        memoised in the store — so an interrupted or repeated sweep
        retrains only what is missing.
        """
        if feature_set not in FEATURE_EXTRACTORS:
            raise KeyError(f"unknown feature set {feature_set!r}")
        key = self._prediction_key(feature_set)

        # Imported here: fastcv sits above the experiments package (it
        # reuses DataStore/PhaseRunner), so a module-level import would
        # be circular through repro.model.__init__.
        from repro.model.fastcv import fast_leave_one_program_out

        def compute() -> dict[PhaseKey, MicroarchConfig]:
            self._log(f"leave-one-out cross-validation ({feature_set})")
            with obs.span("cv.predictions", feature_set=feature_set):
                return fast_leave_one_program_out(
                    self.phase_records(feature_set),
                    regularization=self.scale.regularization,
                    threshold=self.scale.threshold,
                    max_iterations=self.scale.max_iterations,
                    workers=self.train_workers,
                    store=self.store,
                    cache_tag=f"{self.scale.tag}/{feature_set}",
                    journal=self.journal,
                    log=self._log,
                )

        return self.store.get_or_compute(key, compute)

    def full_predictor(self, feature_set: str = "advanced"
                       ) -> "ConfigurationPredictor":
        """A predictor trained on *every* phase (for controller demos;
        cross-validated results come from :meth:`predictions`)."""
        from repro.model.predictor import ConfigurationPredictor

        key = self._full_predictor_key(feature_set)

        def compute() -> ConfigurationPredictor:
            self._log(f"training full predictor ({feature_set})")
            with obs.span("cv.full_predictor", feature_set=feature_set):
                data = list(self.all_phase_data.values())
                predictor = ConfigurationPredictor(
                    regularization=self.scale.regularization,
                    max_iterations=self.scale.max_iterations,
                )
                predictor.fit_evaluations(
                    [d.features[feature_set] for d in data],
                    [{c: r.efficiency for c, r in d.evaluations.items()}
                     for d in data],
                    threshold=self.scale.threshold,
                )
            return predictor

        return self.store.get_or_compute(key, compute)

    # -- derived metrics -----------------------------------------------------------

    def phase_ratio(self, key: PhaseKey, config: MicroarchConfig) -> float:
        """Efficiency of ``config`` on ``key`` relative to the baseline."""
        baseline = self.evaluate(key, self.baseline_config).efficiency
        return self.evaluate(key, config).efficiency / baseline

    def benchmark_ratio(self, program: str,
                        configs: dict[PhaseKey, MicroarchConfig]) -> float:
        """Geometric-mean per-phase efficiency ratio for one benchmark."""
        ratios = [
            self.phase_ratio(key, configs[key])
            for key in self.phase_keys
            if key[0] == program
        ]
        return geomean(ratios)

    def suite_ratios(self, configs: dict[PhaseKey, MicroarchConfig]
                     ) -> dict[str, float]:
        """Per-benchmark ratios (figure 4/6 bars) for a config assignment."""
        return {
            name: self.benchmark_ratio(name, configs)
            for name in self.benchmark_names
        }

    def static_assignment(self, config: MicroarchConfig
                          ) -> dict[PhaseKey, MicroarchConfig]:
        """Every phase mapped to one fixed configuration."""
        return {key: config for key in self.phase_keys}

    def per_program_assignment(self) -> dict[PhaseKey, MicroarchConfig]:
        statics = self.per_program_static
        return {key: statics[key[0]] for key in self.phase_keys}


#: Per-worker-process pipeline, kept alive between tasks so the synthetic
#: suite and shared pool are built once per process, not once per phase.
_WORKER_PIPELINE: ExperimentPipeline | None = None


def _phase_worker(
    scale: ReproScale,
    store_dir: str,
    dse: DseSettings | None,
    program: str,
    phase_id: int,
) -> PhaseKey:
    """Compute one phase in a worker process, writing through the store.

    Worker processes are reused across tasks (and across successive
    ``prefetch_phases`` calls when the executor survives), so the cached
    pipeline must be rebuilt whenever the scale *or* the store directory
    differs from the previous task's — otherwise a reused worker would
    serve results for the wrong scale or write them to the wrong cache.
    """
    # The rebind is a deliberate per-process memo: each pool worker keeps
    # its own pipeline so the suite/pool build once per process, and the
    # parent never reads it (results flow through the DataStore).
    global _WORKER_PIPELINE  # reprolint: disable=RPL-P002
    if os.environ.get("REPRO_FAULTS"):  # fault-injection hook (tests/CI)
        from repro.testing.faults import inject

        inject("worker", f"{program}/{phase_id}")
    if (
        _WORKER_PIPELINE is None
        or _WORKER_PIPELINE.scale != scale
        or _WORKER_PIPELINE.dse != dse
        or str(_WORKER_PIPELINE.store.directory) != store_dir
    ):
        _WORKER_PIPELINE = ExperimentPipeline(
            scale, store=DataStore(store_dir), workers=1, dse=dse
        )
    _WORKER_PIPELINE.phase_data(program, phase_id)
    # Pool workers can be terminated without running atexit hooks, so
    # cumulative metric totals are flushed after every completed phase.
    obs.flush()
    return (program, phase_id)


def _phase_worker_task(
    scale: ReproScale,
    store_dir: str,
    dse: DseSettings | None,
    key: PhaseKey,
) -> PhaseKey:
    """`PhaseRunner` task adapter: one picklable ``task(key)`` callable."""
    return _phase_worker(scale, store_dir, dse, *key)


def warm_worker(scale: ReproScale, store_dir: str,
                dse: DseSettings | None = None) -> None:
    """Build this worker process's pipeline state without computing a phase.

    Pays the per-process startup cost a pool worker's first phase task
    otherwise absorbs: the pipeline object, the synthetic suite, and the
    shared configuration pool.  Usable as a ``ProcessPoolExecutor``
    initializer to pre-pay that cost at spawn, and by
    ``scripts/bench_sweep.py`` to *measure* it separately — so the
    worker-pool wall time in ``BENCH_sweep.json`` can be read net of
    warm-up rather than mistaken for an engine regression.
    """
    # Same deliberate per-process memo as _phase_worker: the parent never
    # reads this, each pool worker warms its own copy.
    global _WORKER_PIPELINE  # reprolint: disable=RPL-P002
    if (
        _WORKER_PIPELINE is None
        or _WORKER_PIPELINE.scale != scale
        or _WORKER_PIPELINE.dse != dse
        or str(_WORKER_PIPELINE.store.directory) != store_dir
    ):
        _WORKER_PIPELINE = ExperimentPipeline(
            scale, store=DataStore(store_dir), workers=1, dse=dse
        )
    _WORKER_PIPELINE.programs
    _WORKER_PIPELINE.pool
