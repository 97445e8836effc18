"""Tests for the leave-one-program-out cross-validation engine, checked
against the serial loop in ``tests/reference_crossval.py``."""

import numpy as np
import pytest

from repro.config import DesignSpace, TABLE1_PARAMETERS
from repro.experiments.datastore import DataStore
from repro.model import (
    FastCrossValidator,
    PhaseRecord,
    fast_leave_one_program_out,
)
from tests.reference_crossval import fold_weights, leave_one_program_out


def records_for(programs, phases_per_program=3, seed=0):
    """Simple learnable suite (same shape as the crossval tests)."""
    rng = np.random.default_rng(seed)
    space = DesignSpace(seed=seed)
    pool = space.random_sample(10)
    records = []
    for program in programs:
        for phase in range(phases_per_program):
            knob = rng.random()
            x = np.array([knob, 1.0])
            best = pool[0].with_value("width", 8 if knob > 0.5 else 2)
            evaluations = {c: 10.0 for c in pool}
            evaluations[best] = 100.0
            records.append(PhaseRecord(program=program, phase_id=phase,
                                       features=x, evaluations=evaluations))
    return records


def structured_records(n_programs=6, phases_per_program=4, n_features=8,
                       pool_size=40, seed=0):
    """A suite whose ideal configuration is a shared function of the
    features, so leave-one-out folds genuinely generalise."""
    rng = np.random.default_rng(seed)
    pool = DesignSpace(seed=seed + 1).random_sample(pool_size)
    parameters = TABLE1_PARAMETERS
    projection = rng.normal(size=(len(parameters), n_features))
    projection /= np.sqrt(n_features)
    fractions = np.array([
        [parameter.index_of(config[parameter.name])
         / max(1, parameter.cardinality - 1)
         for parameter in parameters]
        for config in pool
    ])
    records = []
    for program_index in range(n_programs):
        for phase_id in range(phases_per_program):
            z = rng.normal(size=n_features)
            ideal = 0.5 + 0.5 * np.tanh(projection @ z)
            distance = np.mean(np.abs(fractions - ideal), axis=1)
            noise = rng.normal(scale=0.004, size=len(pool))
            scores = 1.0 - 0.8 * distance + noise
            records.append(PhaseRecord(
                program=f"prog{program_index}", phase_id=phase_id,
                features=z,
                evaluations={config: float(score)
                             for config, score in zip(pool, scores)},
            ))
    return records


class TestDefaultModeParity:
    def test_identical_to_serial_reference(self):
        """The headline contract: incremental assembly changes nothing."""
        records = records_for(["a", "b", "c", "d"], phases_per_program=4)
        serial = leave_one_program_out(records, max_iterations=40)
        fast = fast_leave_one_program_out(records, max_iterations=40)
        assert fast == serial

    def test_identical_on_structured_suite(self):
        records = structured_records(n_programs=4, phases_per_program=3)
        serial = leave_one_program_out(records, max_iterations=60)
        fast = fast_leave_one_program_out(records, max_iterations=60)
        assert fast == serial

    def test_fold_weights_equal_reference_fits(self):
        """Every (fold, parameter) weight matrix equals the serial loop's:
        same all-ones start, same objective arithmetic, same CG path."""
        records = structured_records(n_programs=3, phases_per_program=3)
        expected = fold_weights(records, max_iterations=25)
        actual = FastCrossValidator(records, max_iterations=25).fold_weights()
        assert set(actual) == set(expected)
        for held_out, weights in expected.items():
            assert set(actual[held_out]) == set(weights)
            for name, matrix in weights.items():
                np.testing.assert_array_equal(actual[held_out][name], matrix)

    def test_workers_parity(self, tmp_path):
        """The fold fan-out lands on the same predictions as serial, and
        every fit is trained in a worker: a fit the fan-out quarantines is
        retrained in-process with equal predictions, so equality alone
        would pass a fan-out that silently turned serial."""
        records = records_for(["a", "b", "c"], phases_per_program=3)
        serial = leave_one_program_out(records, max_iterations=30)
        log: list[str] = []
        fast = fast_leave_one_program_out(
            records, max_iterations=30, workers=2,
            store=DataStore(tmp_path), log=log.append)
        assert fast == serial
        assert any("on 2 workers" in line for line in log), log
        assert not [line for line in log
                    if "quarantining" in line or "degrading" in line], log


class TestFoldCaching:
    def test_second_run_reuses_fold_weights(self, tmp_path):
        records = records_for(["a", "b", "c"], phases_per_program=2)
        store = DataStore(tmp_path)
        first = fast_leave_one_program_out(records, max_iterations=30,
                                           store=store)
        misses = store.misses
        assert misses > 0
        hits_before = store.hits
        second = fast_leave_one_program_out(records, max_iterations=30,
                                            store=store)
        assert second == first
        assert store.misses == misses  # nothing retrained
        # one hit per (fold, parameter)
        assert store.hits - hits_before == 3 * len(TABLE1_PARAMETERS)

    def test_fingerprint_tracks_inputs(self):
        records = records_for(["a", "b", "c"])
        base = FastCrossValidator(records, max_iterations=30)
        other_iters = FastCrossValidator(records, max_iterations=31)
        other_lambda = FastCrossValidator(records, max_iterations=30,
                                          regularization=0.9)
        other_threshold = FastCrossValidator(records, max_iterations=30,
                                             threshold=0.07)
        other_records = FastCrossValidator(records_for(["a", "b", "c"],
                                                       seed=1),
                                           max_iterations=30)
        tagged = FastCrossValidator(records, max_iterations=30,
                                    cache_tag="quick")
        fingerprints = [base.fingerprint, other_iters.fingerprint,
                        other_lambda.fingerprint,
                        other_threshold.fingerprint,
                        other_records.fingerprint, tagged.fingerprint]
        assert len(set(fingerprints)) == 6
        # Same inputs -> same fingerprint (cache is actually reusable).
        again = FastCrossValidator(records_for(["a", "b", "c"]),
                                   max_iterations=30)
        assert again.fingerprint == base.fingerprint

    def test_quarantined_fits_fall_back_to_in_process(self, tmp_path,
                                                      monkeypatch):
        """Even if the fan-out completes nothing, run() still returns a
        complete prediction set (coordinator trains in-process)."""
        records = records_for(["a", "b", "c"], phases_per_program=2)
        validator = FastCrossValidator(records, max_iterations=30,
                                       workers=2,
                                       store=DataStore(tmp_path))
        monkeypatch.setattr(FastCrossValidator, "_fan_out",
                            lambda self, store, missing: None)
        predictions = validator.run()
        assert set(predictions) == {r.key for r in records}


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fast_leave_one_program_out([])

    def test_needs_two_programs(self):
        with pytest.raises(ValueError):
            fast_leave_one_program_out(records_for(["solo"]))

    def test_fan_out_requires_store(self):
        with pytest.raises(ValueError):
            FastCrossValidator(records_for(["a", "b"]), workers=2)
