"""Tests for the per-phase sweep protocol."""

import pytest

from repro.config import DesignSpace, TABLE1_PARAMETERS
from repro.experiments import run_phase_sweep
from repro.timing import characterize
from repro.workloads import PhaseSpec, TraceGenerator


@pytest.fixture(scope="module")
def char():
    spec = PhaseSpec(name="sweep-int", footprint_blocks=600, code_blocks=50)
    return characterize(TraceGenerator(spec).generate(3000))


@pytest.fixture(scope="module")
def pool():
    return DesignSpace(seed=3).random_sample(16)


class TestRunPhaseSweep:
    def test_pool_always_evaluated(self, char, pool):
        sweep = run_phase_sweep(char, pool, neighbour_count=5, seed=0)
        for config in pool:
            assert config in sweep.evaluations

    def test_protocol_size(self, char, pool):
        sweep = run_phase_sweep(char, pool, neighbour_count=5, seed=0)
        # pool + neighbours + one-at-a-time (97, minus overlaps).
        assert len(sweep.evaluations) >= len(pool) + 5 + 80
        assert len(sweep.evaluations) <= len(pool) + 5 + 97

    def test_one_at_a_time_covers_every_value(self, char, pool):
        """Stage 3 guarantees every parameter value appears somewhere."""
        sweep = run_phase_sweep(char, pool, neighbour_count=5, seed=0)
        for parameter in TABLE1_PARAMETERS:
            seen = {c[parameter.name] for c in sweep.evaluations}
            assert seen == set(parameter.values), parameter.name

    def test_best_is_maximum(self, char, pool):
        sweep = run_phase_sweep(char, pool, neighbour_count=5, seed=0)
        best, result = sweep.best
        assert result.efficiency == max(
            r.efficiency for r in sweep.evaluations.values())

    def test_deterministic(self, char, pool):
        a = run_phase_sweep(char, pool, neighbour_count=5, seed=42)
        b = run_phase_sweep(char, pool, neighbour_count=5, seed=42)
        assert set(a.evaluations) == set(b.evaluations)

    def test_neighbourhood_improves_or_matches_pool(self, char, pool):
        sweep = run_phase_sweep(char, pool, neighbour_count=10, seed=1)
        pool_best = max(sweep.evaluations[c].efficiency for c in pool)
        _, overall = sweep.best
        assert overall.efficiency >= pool_best

    def test_efficiencies_view(self, char, pool):
        sweep = run_phase_sweep(char, pool, neighbour_count=2, seed=0)
        efficiencies = sweep.efficiencies
        assert set(efficiencies) == set(sweep.evaluations)
        assert all(v > 0 for v in efficiencies.values())

    def test_empty_pool_rejected(self, char):
        with pytest.raises(ValueError):
            run_phase_sweep(char, [], neighbour_count=5, seed=0)

    def test_duplicate_pool_entries_priced_once(self, char, pool):
        sweep = run_phase_sweep(char, list(pool) + list(pool),
                                neighbour_count=5, seed=0)
        reference = run_phase_sweep(char, pool, neighbour_count=5, seed=0)
        assert set(sweep.evaluations) == set(reference.evaluations)
