"""The regularised soft-max model of section IV.

For one microarchitectural parameter with K possible values, the
conditional probability of value ``s_k`` given a phase's counter vector
``x`` is a soft-max over linear scores (eq. 3):

    P(y = s_k | x) = exp(w_k^T x) / sum_j exp(w_j^T x)

Training maximises the regularised data log-likelihood (eqs. 5-6) over the
"good" configurations of the training phases; following the paper, weights
are initialised deterministically to 1 and optimised by conjugate
gradients with lambda = 0.5.  (Eq. 6 writes ``L + lambda tr(W^T W)`` while
describing the term as a *penalty*; we implement the penalised form
``L - lambda ||W||^2``, which is what makes the optimisation well-posed.)

Prediction uses the paper's hard-decision shortcut (eqs. 8-9): the argmax
of ``W^T x`` needs no exponentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.model.optimizer import CGResult, minimize_cg

__all__ = ["SoftmaxClassifier"]


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@dataclass
class SoftmaxClassifier:
    """Multinomial logistic model for one microarchitectural parameter.

    Args:
        n_classes: K, the number of values the parameter can take.
        regularization: the paper's lambda (0.5).
        max_iterations: conjugate-gradient iteration budget.
    """

    n_classes: int
    regularization: float = 0.5
    max_iterations: int = 300
    weights: np.ndarray | None = field(default=None, repr=False)
    training_result: CGResult | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.regularization < 0:
            raise ValueError("regularization must be non-negative")

    # -- training ----------------------------------------------------------

    def objective(
        self, x: np.ndarray, labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
        """The training objective over one data set, built once per fit.

        The returned ``evaluate(weights)`` gives -(L - lambda ||W||^2) and
        its gradient (for minimisation) at a D x K weight matrix.  The
        row index, one-hot target, weight column and ``x.T`` depend only
        on the data, so they are computed here once rather than on each
        of the ~350 evaluations a conjugate-gradient fit makes.

        Args:
            x: N x D feature matrix.
            labels: N integer class labels in [0, K).
            sample_weight: optional per-sample weights.
        """
        n = len(labels)
        rows = np.arange(n)
        weight = np.ones(n) if sample_weight is None else np.asarray(
            sample_weight, dtype=np.float64)
        weight_col = weight[:, None]
        target = np.zeros((n, self.n_classes))
        target[rows, labels] = 1.0
        xt = x.T
        regularization = self.regularization

        def evaluate(weights: np.ndarray) -> tuple[float, np.ndarray]:
            log_probs = _log_softmax(x @ weights)
            picked = log_probs[rows, labels]
            log_likelihood = float(np.dot(weight, picked))
            penalty = regularization * float(np.sum(weights * weights))
            objective = log_likelihood - penalty

            weighted_error = (target - np.exp(log_probs)) * weight_col
            grad_ll = xt @ weighted_error  # D x K
            grad = grad_ll - 2.0 * regularization * weights
            return -objective, -grad

        return evaluate

    def negative_objective(
        self, weights: np.ndarray, x: np.ndarray, labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """:meth:`objective` over one data set, evaluated at ``weights``."""
        return self.objective(x, labels, sample_weight)(weights)

    def fit(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "SoftmaxClassifier":
        """Train on features ``x`` (N x D) and integer ``labels`` by
        conjugate gradients from the paper's all-ones weights."""
        x = np.asarray(x, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if x.ndim != 2:
            raise ValueError("x must be N x D")
        if len(x) != len(labels):
            raise ValueError("x and labels must align")
        if len(x) == 0:
            raise ValueError("cannot fit on an empty training set")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError("labels out of range")
        shape = (x.shape[1], self.n_classes)
        evaluate = self.objective(x, labels, sample_weight)

        def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
            value, grad = evaluate(flat.reshape(shape))
            return value, grad.ravel()

        result = minimize_cg(
            objective,
            np.ones(shape[0] * shape[1]),
            max_iterations=self.max_iterations,
            callback=obs.cg_callback(),
        )
        self.weights = result.x.reshape(shape)
        self.training_result = result
        return self

    # -- inference ------------------------------------------------------------

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Linear scores b = W^T x (eq. 8); works on one vector or a batch."""
        if self.weights is None:
            raise RuntimeError("model is not trained")
        return np.asarray(x) @ self.weights

    def predict(self, x: np.ndarray) -> np.ndarray | int:
        """argmax_k b_k (eq. 9)."""
        scores = self.scores(x)
        if scores.ndim == 1:
            return int(np.argmax(scores))
        return np.argmax(scores, axis=1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Full soft-max probabilities (eq. 3)."""
        scores = self.scores(x)
        batched = scores.ndim > 1
        probs = np.exp(_log_softmax(np.atleast_2d(scores)))
        return probs if batched else probs[0]

    def log_likelihood(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> float:
        """Unregularised data log-likelihood (eq. 5) of a labelled set.

        Computed directly — sum of the picked log-probabilities — rather
        than by evaluating the full penalised training objective (and its
        gradient) and undoing the penalty term.
        """
        if self.weights is None:
            raise RuntimeError("model is not trained")
        x = np.asarray(x, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        log_probs = _log_softmax(x @ self.weights)
        picked = log_probs[np.arange(len(labels)), labels]
        if sample_weight is None:
            return float(picked.sum())
        return float(np.dot(np.asarray(sample_weight, dtype=np.float64),
                            picked))
