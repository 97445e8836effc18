"""Tied int8 columns: the int8 engine answers the lowest class of
identical columns, whatever the batch shape."""

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.config import TABLE1_PARAMETERS  # noqa: E402
from repro.model.quantize import QuantizedPredictor  # noqa: E402

TIE_FEATURES = 5


def tied_predictor(seed: int, features: int = TIE_FEATURES
                   ) -> QuantizedPredictor:
    """Int8 matrices in which most classes share their column with
    another class of the same parameter."""
    rng = np.random.default_rng(seed)
    matrices = {}
    for parameter in TABLE1_PARAMETERS:
        distinct = rng.integers(-127, 128, size=(features, rng.integers(
            1, parameter.cardinality + 1)), dtype=np.int8)
        owner = rng.integers(distinct.shape[1], size=parameter.cardinality)
        matrices[parameter.name] = distinct[:, owner]
    scales = {parameter.name: 1.0 for parameter in TABLE1_PARAMETERS}
    return QuantizedPredictor.from_state(matrices, scales)


class TestTiedColumns:
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40),
           cuts=st.lists(st.integers(1, 39), max_size=6), exact=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_answers_do_not_depend_on_batch_shape(self, seed, rows, cuts,
                                                  exact):
        quantized = tied_predictor(seed)
        rng = np.random.default_rng([seed, rows])
        x = (rng.integers(-3, 4, size=(rows, TIE_FEATURES)).astype(float)
             if exact else rng.normal(size=(rows, TIE_FEATURES)))
        whole = quantized.predict_batch(x)
        bounds = [0, *sorted({cut for cut in cuts if cut < rows}), rows]
        split = [config for start, stop in zip(bounds, bounds[1:])
                 for config in quantized.predict_batch(x[start:stop])]
        assert split == whole
        assert [quantized.predict(row) for row in x] == whole
        assert quantized.predict_batch(x[0]) == whole[:1]

        matrices, _ = quantized.state()
        for row, config in zip(x, whole):
            for parameter in TABLE1_PARAMETERS:
                columns = matrices[parameter.name].astype(float)
                answer = parameter.index_of(config[parameter.name])
                tied = [j for j in range(parameter.cardinality)
                        if np.array_equal(columns[:, j], columns[:, answer])]
                assert answer == min(tied)
                if exact:  # integer scores: the argmax is exact
                    scores = row @ columns
                    assert answer == int(np.flatnonzero(
                        scores == scores.max())[0])

    def test_row_blocks_answer_like_single_rows(self):
        """A batch wider than one product's row block is scored in
        several products; each row still gets its one-row answer."""
        quantized = tied_predictor(3, features=2000)
        x = np.random.default_rng(3).normal(size=(40, 2000))
        assert quantized._block < 20
        assert quantized.predict_batch(x) == [quantized.predict(row)
                                              for row in x]
