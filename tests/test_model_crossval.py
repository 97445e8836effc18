"""Behaviour of leave-one-program-out cross-validation and of
:class:`~repro.model.PhaseRecord`."""

import numpy as np
import pytest

from repro.config import DesignSpace
from repro.model import PhaseRecord, fast_leave_one_program_out


def records_for(programs, phases_per_program=3, seed=0):
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


class TestLeaveOneOut:
    def test_every_phase_predicted(self):
        records = records_for(["a", "b", "c"])
        predictions = fast_leave_one_program_out(records, max_iterations=40)
        assert set(predictions) == {r.key for r in records}

    def test_learns_across_programs(self):
        records = records_for(["a", "b", "c", "d"], phases_per_program=6)
        predictions = fast_leave_one_program_out(records, max_iterations=80)
        correct = 0
        for record in records:
            predicted = predictions[record.key]
            expected_width = 8 if record.features[0] > 0.5 else 2
            correct += predicted.width == expected_width
        assert correct / len(records) > 0.75

    def test_needs_two_programs(self):
        records = records_for(["solo"])
        with pytest.raises(ValueError):
            fast_leave_one_program_out(records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fast_leave_one_program_out([])

    def test_record_best_property(self):
        records = records_for(["a", "b"])
        config, value = records[0].best
        assert value == 100.0
        assert records[0].evaluations[config] == 100.0

    def test_best_ties_broken_by_config_not_insertion_order(self):
        """Regression: efficiency ties used to be resolved by dict
        insertion order, so two sweeps producing the same evaluations in
        different orders disagreed on the best configuration."""
        space = DesignSpace(seed=4)
        first, second = space.random_sample(2)
        winner = min(first, second, key=lambda c: c.as_tuple())
        one_order = PhaseRecord(
            program="p", phase_id=0, features=np.ones(2),
            evaluations={first: 1.0, second: 1.0})
        other_order = PhaseRecord(
            program="p", phase_id=0, features=np.ones(2),
            evaluations={second: 1.0, first: 1.0})
        assert one_order.best == other_order.best == (winner, 1.0)

    def test_best_still_prefers_higher_efficiency(self):
        space = DesignSpace(seed=5)
        low, high = space.random_sample(2)
        record = PhaseRecord(
            program="p", phase_id=0, features=np.ones(2),
            evaluations={low: 1.0, high: 2.0})
        assert record.best == (high, 2.0)

    def test_holdout_is_honoured(self):
        """A phase key appears exactly once, predicted by the fold that
        excluded its program."""
        records = records_for(["a", "b", "c"])
        predictions = fast_leave_one_program_out(records, max_iterations=30)
        assert len(predictions) == len(records)
