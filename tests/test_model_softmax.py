"""Tests for the regularised soft-max classifier."""

import numpy as np
import pytest

from repro.model import SoftmaxClassifier
from repro.model.optimizer import minimize_cg


def blobs(n=60, k=3, d=4, seed=0, spread=4.0):
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=spread, size=(k, d))
    x = np.vstack([rng.normal(centres[c], 1.0, size=(n, d))
                   for c in range(k)])
    y = np.repeat(np.arange(k), n)
    x = np.hstack([x, np.ones((len(x), 1))])  # bias column
    return x, y


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 5))
        y = rng.integers(0, 3, size=30)
        clf = SoftmaxClassifier(n_classes=3, regularization=0.5)
        w = rng.normal(size=(5, 3))
        value, grad = clf.negative_objective(w, x, y)
        eps = 1e-6
        for i, j in [(0, 0), (2, 1), (4, 2)]:
            w2 = w.copy()
            w2[i, j] += eps
            v2, _ = clf.negative_objective(w2, x, y)
            assert (v2 - value) / eps == pytest.approx(grad[i, j], rel=1e-3,
                                                       abs=1e-4)

    def test_sample_weights_scale_gradient(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        clf = SoftmaxClassifier(n_classes=2, regularization=0.0)
        w = rng.normal(size=(3, 2))
        v1, g1 = clf.negative_objective(w, x, y)
        v2, g2 = clf.negative_objective(w, x, y,
                                        sample_weight=2 * np.ones(10))
        assert v2 == pytest.approx(2 * v1)
        assert np.allclose(g2, 2 * g1)

    def test_weighted_equals_duplicated(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, size=8)
        weights = np.array([1, 2, 1, 3, 1, 1, 2, 1], dtype=float)
        x_dup = np.repeat(x, weights.astype(int), axis=0)
        y_dup = np.repeat(y, weights.astype(int))
        clf = SoftmaxClassifier(n_classes=2, regularization=0.5)
        w = rng.normal(size=(3, 2))
        v_weighted, g_weighted = clf.negative_objective(w, x, y, weights)
        v_dup, g_dup = clf.negative_objective(w, x_dup, y_dup)
        assert v_weighted == pytest.approx(v_dup)
        assert np.allclose(g_weighted, g_dup)


class TestTraining:
    def test_fits_separable_data(self):
        x, y = blobs()
        clf = SoftmaxClassifier(n_classes=3).fit(x, y)
        assert (clf.predict(x) == y).mean() > 0.95

    def test_probabilities_normalised(self):
        x, y = blobs()
        clf = SoftmaxClassifier(n_classes=3).fit(x, y)
        probs = clf.predict_proba(x[:10])
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_single_vector_prediction(self):
        x, y = blobs()
        clf = SoftmaxClassifier(n_classes=3).fit(x, y)
        single = clf.predict(x[0])
        assert isinstance(single, int)
        probs = clf.predict_proba(x[0])
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0)

    def test_regularisation_shrinks_weights(self):
        x, y = blobs()
        loose = SoftmaxClassifier(n_classes=3, regularization=0.01).fit(x, y)
        tight = SoftmaxClassifier(n_classes=3, regularization=10.0).fit(x, y)
        assert np.abs(tight.weights).sum() < np.abs(loose.weights).sum()

    def test_hard_decision_matches_probabilities(self):
        x, y = blobs(seed=5)
        clf = SoftmaxClassifier(n_classes=3).fit(x, y)
        assert (clf.predict(x) == clf.predict_proba(x).argmax(axis=1)).all()

    def test_log_likelihood_improves_with_training(self):
        x, y = blobs(seed=6)
        clf = SoftmaxClassifier(n_classes=3)
        clf.weights = np.ones((x.shape[1], 3))
        before = clf.log_likelihood(x, y)
        clf.fit(x, y)
        assert clf.log_likelihood(x, y) > before

    def test_unseen_class_can_still_be_predicted_structurally(self):
        """Classes absent from training keep valid (low) scores."""
        x, y = blobs(k=2)
        clf = SoftmaxClassifier(n_classes=4).fit(x, y)
        probs = clf.predict_proba(x[:5])
        assert probs.shape == (5, 4)
        assert (clf.predict(x) < 2).all()


class TestTrajectoryEquivalence:
    def test_weighted_rows_match_duplicated_rows(self):
        """Satellite contract: training on weight-m rows follows the same
        CG trajectory as training on m duplicated rows (same iterates and
        objective values up to summation roundoff, same predictions)."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        weights = np.array([1, 2, 1, 3, 1, 1, 2, 1, 2, 1], dtype=float)
        x_dup = np.repeat(x, weights.astype(int), axis=0)
        y_dup = np.repeat(y, weights.astype(int))

        def trajectory(classifier, *fit_args, **fit_kwargs):
            iterates = []

            def objective_of(clf, features, labels, sample_weight):
                def fun(flat):
                    value, grad = clf.negative_objective(
                        flat.reshape(3, 2), features, labels, sample_weight)
                    return value, grad.ravel()
                return fun

            fun = objective_of(classifier, *fit_args, **fit_kwargs)
            minimize_cg(fun, np.ones(6), max_iterations=30,
                        callback=lambda w, value: iterates.append(
                            (w.copy(), value)))
            return iterates

        clf = SoftmaxClassifier(n_classes=2, regularization=0.5)
        weighted = trajectory(clf, x, y, sample_weight=weights)
        duplicated = trajectory(clf, x_dup, y_dup, sample_weight=None)
        assert len(weighted) == len(duplicated)
        for (w_a, v_a), (w_b, v_b) in zip(weighted, duplicated):
            assert v_a == pytest.approx(v_b, rel=1e-9)
            np.testing.assert_allclose(w_a, w_b, rtol=1e-7, atol=1e-9)


class TestLogLikelihood:
    def test_matches_objective_identity(self):
        """Direct eq. 5 equals the value recoverable from the penalised
        training objective."""
        x, y = blobs(seed=8)
        clf = SoftmaxClassifier(n_classes=3).fit(x, y)
        value, _ = clf.negative_objective(clf.weights, x, y)
        penalty = clf.regularization * float(np.sum(clf.weights ** 2))
        assert clf.log_likelihood(x, y) == pytest.approx(-value + penalty)

    def test_weighted(self):
        x, y = blobs(seed=8)
        clf = SoftmaxClassifier(n_classes=3).fit(x, y)
        doubled = clf.log_likelihood(x, y, sample_weight=2 * np.ones(len(y)))
        assert doubled == pytest.approx(2 * clf.log_likelihood(x, y))

    def test_requires_training(self):
        with pytest.raises(RuntimeError):
            SoftmaxClassifier(n_classes=2).log_likelihood(np.ones((2, 2)),
                                                          np.array([0, 1]))


class TestValidation:
    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            SoftmaxClassifier(n_classes=1)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            SoftmaxClassifier(n_classes=2, regularization=-1.0)

    def test_rejects_empty_training(self):
        clf = SoftmaxClassifier(n_classes=2)
        with pytest.raises(ValueError):
            clf.fit(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_rejects_bad_labels(self):
        clf = SoftmaxClassifier(n_classes=2)
        with pytest.raises(ValueError):
            clf.fit(np.zeros((3, 2)), np.array([0, 1, 2]))

    def test_rejects_misaligned(self):
        clf = SoftmaxClassifier(n_classes=2)
        with pytest.raises(ValueError):
            clf.fit(np.zeros((3, 2)), np.array([0, 1]))

    def test_predict_before_fit(self):
        clf = SoftmaxClassifier(n_classes=2)
        with pytest.raises(RuntimeError):
            clf.predict(np.zeros(3))
