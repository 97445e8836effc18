"""The section V-C per-phase sampling protocol.

For each phase: evaluate a shared uniform random pool, find its best
configuration, evaluate random local neighbours of it, re-select the best
of everything seen, then sweep each parameter one at a time through all
its values.  At paper scale this is 1000 + 200 + 98 = 1,298 evaluations
per phase; the sizes come from the active
:class:`~repro.experiments.scale.ReproScale`.

Each of the three stages is priced as one deduplicated batch through the
vectorized :class:`~repro.timing.batch.BatchIntervalEvaluator`.

The surrogate-accelerated path (opt-in; see :mod:`repro.dse`) slots in
between stage 1 and stage 2: a 100k+ candidate pool is screened by
successive halving, the exactly-priced survivors join the evaluation
set, and the neighbour/one-at-a-time stages then polish around the best
of everything seen.  Stage 1 still prices the shared pool exactly — the
static baselines are defined over it for every phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.config.configuration import MicroarchConfig
from repro.config.space import DesignSpace
from repro.dse import EncodedPool, ScreenStats, SuccessiveHalvingScreener
from repro.power.metrics import EfficiencyResult
from repro.timing.batch import BatchIntervalEvaluator, CharTables
from repro.timing.characterize import TraceCharacterization

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.experiments.datastore import DataStore

__all__ = ["PhaseSweep", "run_phase_sweep"]


@dataclass
class PhaseSweep:
    """All evaluations gathered for one phase."""

    evaluations: dict[MicroarchConfig, EfficiencyResult]
    #: Successive-halving statistics when the DSE path screened a
    #: candidate pool for this phase (``None`` on the exact-only path).
    screening: ScreenStats | None = field(default=None, compare=False)

    @property
    def efficiencies(self) -> dict[MicroarchConfig, float]:
        return {c: r.efficiency for c, r in self.evaluations.items()}

    @property
    def best(self) -> tuple[MicroarchConfig, EfficiencyResult]:
        config = max(self.evaluations,
                     key=lambda c: self.evaluations[c].efficiency)
        return config, self.evaluations[config]


def run_phase_sweep(
    char: TraceCharacterization,
    pool: Sequence[MicroarchConfig],
    neighbour_count: int,
    seed: int,
    evaluator: BatchIntervalEvaluator | None = None,
    dse_pool: EncodedPool | None = None,
    screener: SuccessiveHalvingScreener | None = None,
    screen_cache: tuple["DataStore", str] | None = None,
) -> PhaseSweep:
    """Run the full V-C protocol for one characterised phase.

    Args:
        char: the phase's trace characterisation.
        pool: the shared random sample (stage 1; identical for every
            phase so static baselines are well defined).
        neighbour_count: stage 2 size (paper: 200).
        seed: seed for the neighbour sampling (and, on the DSE path,
            the screening draws).
        evaluator: configuration evaluator (default: a fresh
            :class:`BatchIntervalEvaluator`).
        dse_pool: opt-in encoded candidate pool to screen between
            stages 1 and 2 (see :class:`~repro.dse.CandidateSampler`).
        screener: the screener for ``dse_pool`` (default: a
            :class:`~repro.dse.SuccessiveHalvingScreener` sharing
            ``evaluator``).
        screen_cache: optional ``(store, key)`` pair; the screen result
            is served from / written to the
            :class:`~repro.experiments.datastore.DataStore` under it.
    """
    if not pool:
        raise ValueError("pool must not be empty")
    evaluator = evaluator or BatchIntervalEvaluator()
    space = DesignSpace(seed=seed)
    evaluations: dict[MicroarchConfig, EfficiencyResult] = {}
    tables = CharTables(char)

    def evaluate_stage(configs: Iterable[MicroarchConfig]) -> None:
        """Price every not-yet-seen config, deduplicated, in one batch."""
        fresh = [c for c in dict.fromkeys(configs) if c not in evaluations]
        if fresh:
            evaluations.update(
                zip(fresh, evaluator.evaluate_many(char, fresh, tables=tables)))

    def best_so_far() -> MicroarchConfig:
        return max(evaluations, key=lambda c: evaluations[c].efficiency)

    # Stage 1: shared uniform random pool.
    evaluate_stage(pool)

    # Optional surrogate stage: screen the big encoded pool, keep every
    # exactly-priced row.
    screening: ScreenStats | None = None
    if dse_pool is not None:
        if screener is None:
            screener = SuccessiveHalvingScreener(evaluator=evaluator)
        store, cache_key = screen_cache if screen_cache else (None, None)
        screened = screener.screen(char, dse_pool, seed, tables=tables,
                                   store=store, cache_key=cache_key)
        screening = screened.stats
        for config, result in screened.evaluations(dse_pool).items():
            evaluations.setdefault(config, result)

    # Stage 2: random local neighbours of the pool best.
    evaluate_stage(space.random_neighbours(best_so_far(), neighbour_count))

    # Stage 3: one-at-a-time sweep around the overall best.
    evaluate_stage(space.one_at_a_time(best_so_far()))

    return PhaseSweep(evaluations=evaluations, screening=screening)
