"""The production soft-max objective against the verbatim copy of the
original in ``tests/reference_crossval.py``.

:meth:`SoftmaxClassifier.objective` computes the row index, one-hot
target, weight column and ``x.T`` once per fit and then evaluates the
original expression in the original operation order, so its value and
gradient must be *equal* to the reference's, not merely close — and so
must the weights a whole conjugate-gradient fit lands on.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import SoftmaxClassifier
from tests import reference_crossval as ref


@st.composite
def problems(draw, weighted):
    """Random N x D features, N labels in [0, K), two D x K weight
    matrices, optional sample weights and a regularisation strength."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 24))
    k = draw(st.integers(2, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(scale=10.0 ** draw(st.integers(-2, 2)), size=(n, d))
    labels = rng.integers(0, k, size=n)
    weights = [rng.normal(size=(d, k)) for _ in range(2)]
    sample_weight = None
    if weighted:
        # Good-set multiplicities are whole numbers; allow general
        # positive floats too.
        sample_weight = (rng.integers(1, 6, size=n).astype(np.float64)
                         if draw(st.booleans())
                         else rng.uniform(0.1, 3.0, size=n))
    regularization = draw(st.sampled_from([0.0, 0.3, 0.5, 2.0]))
    return x, labels, weights, sample_weight, k, regularization


def assert_objective_equal(problem):
    x, labels, weights, sample_weight, k, regularization = problem
    clf = SoftmaxClassifier(n_classes=k, regularization=regularization)
    evaluate = clf.objective(x, labels, sample_weight)
    # Two evaluations of one objective: the per-fit state is not mutated.
    for w in weights:
        value, grad = evaluate(w)
        ref_value, ref_grad = ref.negative_objective(
            regularization, w, x, labels, sample_weight)
        assert value == ref_value
        assert grad.dtype == ref_grad.dtype
        np.testing.assert_array_equal(grad, ref_grad)
        one_shot = clf.negative_objective(w, x, labels, sample_weight)
        assert one_shot[0] == ref_value
        np.testing.assert_array_equal(one_shot[1], ref_grad)


class TestObjectiveMatchesReference:
    @given(problem=problems(weighted=True))
    @settings(max_examples=200, deadline=None)
    def test_weighted_objective_equivalence(self, problem):
        assert_objective_equal(problem)

    @given(problem=problems(weighted=False))
    @settings(max_examples=200, deadline=None)
    def test_unweighted_objective_equivalence(self, problem):
        assert_objective_equal(problem)

    @given(problem=problems(weighted=True),
           max_iterations=st.integers(1, 60))
    @settings(max_examples=50, deadline=None)
    def test_fit_matches_reference_fit(self, problem, max_iterations):
        x, labels, _, sample_weight, k, regularization = problem
        clf = SoftmaxClassifier(n_classes=k, regularization=regularization,
                                max_iterations=max_iterations)
        clf.fit(x, labels, sample_weight=sample_weight)
        np.testing.assert_array_equal(
            clf.weights,
            ref.fit_reference(x, labels, sample_weight, k, regularization,
                              max_iterations))
